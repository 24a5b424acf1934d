"""Subspace lattice operations over F_{q^m}: canonical echelon forms, linear
combinations, greedy span completions, sums and intersections (both from one
elimination), ranks of sums, annihilators, quotient coordinates, Grassmannian
enumeration, the shared index of rational subspaces, and point sets.

Subspaces are immutable and identified with their reduced row-echelon basis,
which is unique, so equality of subspaces is equality of bases.

For p = 2 and order**N at most POINT_SET_MAX, a subspace also has a point
set: one int with a bit per packed vector of F^N (see Packing).  Containment
and intersection dimensions are then bit operations on point sets; in odd
characteristic and above the bound they go through rref.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

from .errors import DimensionMismatchError
from .gf import DEFAULT_BUDGET, Field, gate, gauss_binomial  # noqa: F401 (re-exported)

# the largest order**N whose vectors are packed for point sets: F_4^4, the
# largest space on which point sets were timed against rref; a Packing holds
# order**(N + 1) ints
POINT_SET_MAX = 1 << 8


def rref(field: Field, rows, width: int):
    """Reduced row echelon form; returns (rows, pivot columns).

    Each row is cleared as row + (-c) * pivot row through Field.axpy, with
    -c taken once per row, so no entry costs a Field method call."""
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(width):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = field.inv(mat[rank][col])
        if inv != 1:
            mat[rank] = field.axpy(inv, mat[rank], [0] * width)
        row = mat[rank]
        for i in range(len(mat)):
            c = mat[i][col]
            if i != rank and c != 0:
                mat[i] = field.axpy(field.neg(c), row, mat[i])
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return [tuple(r) for r in mat[:rank]], pivots


def combine(field: Field, coeffs, rows, width: int):
    """sum_i coeffs[i] * rows[i] as a vector of length width, skipping zero coefficients."""
    v = (0,) * width
    for c, row in zip(coeffs, rows):
        if c:
            v = field.axpy(c, row, v)
    return tuple(v)


class Subspace:
    """A linear subspace of F_{q^m}^N in canonical reduced-echelon form."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_sigma", "_points", "_hash")

    def __init__(self, field: Field, ambient_dim: int, basis, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(basis)
        self.pivots = tuple(pivots)
        self._sigma = None
        self._points = None
        self._hash = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        # taken on first use and kept, as the basis never changes
        if self._hash is None:
            self._hash = hash((self.ambient_dim, self.basis))
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace(N={self.ambient_dim}, dim={self.dim}, basis={self.basis})"

    def reduce(self, vec):
        """Remainder of vec after clearing all pivot coordinates."""
        f = self.field
        v = vec
        for row, p in zip(self.basis, self.pivots):
            if v[p]:
                v = f.axpy(f.neg(v[p]), row, v)
        return tuple(v)

    def contains_vector(self, vec) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatchError("ambient dimensions differ")
        # the basis lengths, not the dim property: every flag check lands here
        if len(other.basis) > len(self.basis):
            return False
        mine = self.points()
        if mine is not None:
            return other.points() & ~mine == 0
        return all(self.contains_vector(r) for r in other.basis)

    def points(self):
        """The point set, built on first use: bit v is set iff the packed
        vector v lies in the subspace.  None where F^N has no packing."""
        if self._points is None:
            pk = packing(self.field, self.ambient_dim)
            # -1 marks a space without point sets
            self._points = -1 if pk is None else pk.span(map(pk.pack, self.basis))
        return None if self._points < 0 else self._points

    def frobenius_image(self) -> "Subspace":
        """sigma of the subspace, built on first use; the subspace itself
        when it is rational."""
        if self._sigma is None:
            # entrywise q-power of an echelon basis is again an echelon basis
            fr = self.field._frob
            rows = tuple(tuple([fr[x] for x in row]) for row in self.basis)
            self._sigma = self if rows == self.basis else Subspace(
                self.field, self.ambient_dim, rows, self.pivots
            )
        return self._sigma

    def is_rational(self) -> bool:
        """True iff the subspace is defined over F_q (basis fixed by Frobenius)."""
        return self.frobenius_image() is self

    def vectors(self):
        """All vectors of the subspace (use only at small dimensions)."""
        for coeffs in product(self.field.elements(), repeat=self.dim):
            yield combine(self.field, coeffs, self.basis, self.ambient_dim)


class Packing:
    """The vectors of F^N, for p = 2, packed into ints with log2(order) bits
    per coordinate, coordinate i in bits from i * log2(order) on: vector
    addition is xor, and multiples[v][c] is c * v.  A point set is an int
    with bit v set for each packed vector v it holds."""

    __slots__ = ("shifts", "multiples")

    def __init__(self, field: Field, N: int):
        self.shifts = tuple(field.degree * i for i in range(N))
        scaled = []
        for c in field.elements():
            times_c = [field.mul(c, x) for x in field.elements()]
            table = [0]
            for sh in self.shifts:
                table = [(y << sh) | low for y in times_c for low in table]
            scaled.append(table)
        self.multiples = list(zip(*scaled))

    def pack(self, vec) -> int:
        return sum(x << sh for x, sh in zip(vec, self.shifts))

    def span(self, rows) -> int:
        """The point set of the span of packed vectors."""
        pts = [0]
        for r in rows:
            pts = [a ^ m for m in self.multiples[r] for a in pts]
        mask = 0
        for v in pts:
            mask |= 1 << v
        return mask


@cache
def packing(field: Field, N: int):
    """The Packing of F^N, built once per field value and N and shared after;
    None for odd p or order**N above POINT_SET_MAX."""
    if field.p != 2 or field.order**N > POINT_SET_MAX:
        return None
    return Packing(field, N)


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """dim(a cap b): log_order of |a cap b| from the point sets, else
    dim a + dim b - dim(a + b) from one rank."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    pa = a.points()
    if pa is not None:
        return ((pa & b.points()).bit_count().bit_length() - 1) // a.field.degree
    return a.dim + b.dim - sum_rank(a, b)


def echelonize(field: Field, rows, ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    for r in rows:
        if len(r) != ambient_dim:
            raise DimensionMismatchError(f"vector of length {len(r)}, ambient {ambient_dim}")
    basis, pivots = rref(field, rows, ambient_dim)
    return Subspace(field, ambient_dim, basis, pivots)


def extend(S: Subspace, candidates) -> list:
    """The candidates, in order, that each lie outside the span of S and those
    taken before; S and the taken vectors span S + span(candidates)."""
    taken = []
    for v in candidates:
        if S.dim == S.ambient_dim:
            break
        if not S.contains_vector(v):
            taken.append(v)
            S = echelonize(S.field, S.basis + (tuple(v),), S.ambient_dim)
    return taken


def span_sum(a: Subspace, b: Subspace) -> Subspace:
    """a + b, with no elimination where a summand is zero or the whole space."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    if not a.basis or b.dim == b.ambient_dim:
        return b
    if not b.basis or a.dim == a.ambient_dim:
        return a
    return echelonize(a.field, a.basis + b.basis, a.ambient_dim)


def sum_rank(a: Subspace, b: Subspace) -> int:
    """dim(a + b), from one rref of the stacked bases."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    return len(rref(a.field, a.basis + b.basis, a.ambient_dim)[0])


def sum_and_intersection(a: Subspace, b: Subspace):
    """(a + b, a cap b) from one rref of the 2N-wide block [[a | a], [b | 0]]
    (Zassenhaus).  The rows with a nonzero left half come first and their
    left halves span a + b; a row with zero left half combines u in a with
    -u in b, so the right halves of the rest span a cap b.  Both halves come
    out in reduced echelon form, so both subspaces are canonical."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    N = a.ambient_dim
    zero = (0,) * N
    rows, pivots = rref(a.field, [r + r for r in a.basis] + [r + zero for r in b.basis], 2 * N)
    k = next((i for i, p in enumerate(pivots) if p >= N), len(pivots))
    total = Subspace(a.field, N, [r[:N] for r in rows[:k]], pivots[:k])
    inter = Subspace(a.field, N, [r[N:] for r in rows[k:]], [p - N for p in pivots[k:]])
    return total, inter


# the standard bilinear pairing sum_i a_i b_i, as pairing(field, a, b)
pairing = Field.dot


def perp(a: Subspace) -> Subspace:
    """Annihilator under the standard pairing (kernel of the basis matrix)."""
    f = a.field
    n = a.ambient_dim
    pivset = set(a.pivots)
    rows = []
    for free in range(n):
        if free in pivset:
            continue
        v = [0] * n
        v[free] = 1
        for row, p in zip(a.basis, a.pivots):
            v[p] = f.neg(row[free])
        rows.append(tuple(v))
    return echelonize(f, rows, n)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    return sum_and_intersection(a, b)[1]


class QuotientMap:
    """Coordinates on V/W: reduce modulo W, read off the non-pivot columns."""

    __slots__ = ("space", "free_cols")

    def __init__(self, by: Subspace):
        self.space = by
        pivset = set(by.pivots)
        self.free_cols = tuple(j for j in range(by.ambient_dim) if j not in pivset)

    @property
    def dim(self) -> int:
        return len(self.free_cols)

    def apply(self, vec):
        r = self.space.reduce(vec)
        return tuple(r[j] for j in self.free_cols)

    def lift(self, qvec):
        """A preimage of a quotient coordinate vector."""
        v = [0] * self.space.ambient_dim
        for c, j in zip(qvec, self.free_cols):
            v[j] = c
        return tuple(v)


def _echelon_bases(field: Field, N: int, n: int, elems):
    """Every n-dimensional subspace of F^N whose reduced echelon basis has
    its free entries in elems, in canonical pivot-set-major order."""
    for pivots in combinations(range(N), n):
        pivset = set(pivots)
        free_positions = [
            (i, j) for i in range(n) for j in range(pivots[i] + 1, N) if j not in pivset
        ]
        template = [[0] * N for i in range(n)]
        for i, p in enumerate(pivots):
            template[i][p] = 1
        for values in product(elems, repeat=len(free_positions)):
            rows = [r[:] for r in template]
            for (i, j), v in zip(free_positions, values):
                rows[i][j] = v
            yield Subspace(field, N, tuple(tuple(r) for r in rows), pivots)


def _gate(N: int, n: int, base: int, budget: int) -> None:
    """Reject n outside 0..N, then more than budget n-subspaces of F_base^N."""
    if n < 0 or n > N:
        raise DimensionMismatchError(f"need 0 <= n <= N, got n={n}, N={N}")
    gate(budget, "subspaces", base, n, N)


def enumerate_grassmannian(field: Field, N: int, n: int, budget: int = DEFAULT_BUDGET):
    """Yield every n-dimensional subspace of F^N exactly once, in canonical pivot-set-major
    order; the budget bounds their count and the n * N entries of one basis."""
    _gate(N, n, field.order, budget)
    gate(budget, "basis entries", n * N, 1)
    yield from _echelon_bases(field, N, n, field.elements())


def rational_subspaces(field: Field, N: int, n: int, budget: int = DEFAULT_BUDGET):
    """The F_q-rational n-dimensional subspaces of F^N, as a tuple in
    enumerate_grassmannian order: the echelon bases with entries in F_q,
    which are exactly the Frobenius-fixed subspaces.

    One tuple per field value and (N, n): it is built on first use and
    shared after, as its subspaces are immutable; the budget is checked on
    every call."""
    _gate(N, n, field.q, budget)
    return _rational_subspaces(field, N, n)


@cache
def _rational_subspaces(field: Field, N: int, n: int):
    return tuple(_echelon_bases(field, N, n, field.subfield))
