"""Toy shtukas over F_{q^m}: the defining rank-at-most-one predicate, the
toy locus indexed once per field value (toy_points), the trivial/nontrivial
dichotomy (is_trivial reads the basis, with no elimination, so a sweep of the
trivial locus tests it before is_toy_shtuka), left/right flags, indexed
once per field value and kind too (flags), and partial Frobeniuses.

A point is a subspace L of F_{q^m}^N whose intersection with its coordinate
Frobenius twist sigma(L) has codimension at most one in L.  Nontrivial points
(sigma(L) != L) carry a canonical flag structure: L cap sigma(L) below and
L + sigma(L) above.

Where F^N has point sets (linalg.Packing), the predicate and the dichotomy
read them; otherwise they go through ranks (is_toy_shtuka_by_rank,
dichotomy_by_rank), which also serve as the oracles the replays use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .errors import (
    DimensionMismatchError,
    InvalidFlagError,
    NotAToyShtukaError,
    TrivialPointError,
)
from .gf import DEFAULT_BUDGET, Field, gate
from .linalg import (
    QuotientMap,
    Subspace,
    _gate,
    combine,
    echelonize,
    enumerate_grassmannian,
    gauss_binomial,
    intersection_dim,
    packing,
    span_sum,
    sum_and_intersection,
    sum_rank,
)


@dataclass(frozen=True)
class ToyPoint:
    """A toy shtuka point with, computed on first use, its flag and the
    vectors that step along it."""

    L: Subspace

    @property
    def sigma_L(self) -> Subspace:
        """The Frobenius twist, cached on L (Subspace.frobenius_image)."""
        return self.L.frobenius_image()

    @cached_property
    def flag(self):
        """(L cap sigma L, L + sigma L), from one elimination, computed once
        per point; raises NotAToyShtukaError when the sum exceeds dim L + 1."""
        total, inter = sum_and_intersection(self.L, self.sigma_L)
        if total.dim > self.L.dim + 1:
            raise NotAToyShtukaError("rank condition fails")
        return inter, total

    @cached_property
    def flag_steps(self):
        """(l, s) with l in L outside M = L cap sigma L and s in
        S = L + sigma L outside L, so L = M + <l> and S = L + <s>; None on a
        trivial point, where M = L = S."""
        if self.L.is_rational():
            return None
        inter, _ = self.flag
        L = self.L
        l = next(v for v in L.basis if not inter.contains_vector(v))
        s = next(v for v in self.sigma_L.basis if not L.contains_vector(v))
        return l, s

    @cached_property
    def flag_points(self):
        """The point sets (L, M, S) of L, M = L cap sigma L and
        S = L + sigma L, or None where F^N has no point sets; raises
        NotAToyShtukaError when M has codimension above one in L.  S is
        spanned by L and one point of sigma L outside L, with no elimination."""
        pL = self.L.points()
        if pL is None:
            return None
        pM = pL & self.sigma_L.points()
        if pM.bit_count() * self.L.field.order < pL.bit_count():
            raise NotAToyShtukaError("rank condition fails")
        outside = self.sigma_L.points() & ~pL
        if not outside:
            return pL, pL, pL
        pk = packing(self.L.field, self.L.ambient_dim)
        s = (outside & -outside).bit_length() - 1
        return pL, pM, pk.span([*map(pk.pack, self.L.basis), s])


def is_toy_shtuka(L: Subspace) -> bool:
    """True iff dim(L cap sigma L) >= dim L - 1, which on point sets reads
    |L cap sigma L| * order >= |L| (linalg.intersection_dim)."""
    if L.dim <= 1 or L.dim >= L.ambient_dim:
        return True
    return intersection_dim(L, L.frobenius_image()) >= L.dim - 1


def is_toy_shtuka_by_rank(L: Subspace) -> bool:
    """is_toy_shtuka from ranks alone: the stacked bases of L and sigma L
    have rank at most dim L + 1."""
    return sum_rank(L, L.frobenius_image()) <= L.dim + 1


def is_trivial(L: Subspace) -> bool:
    """True iff sigma L = L, i.e. L is defined over F_q."""
    return L.is_rational()


def enumerate_toysht(field: Field, N: int, n: int, budget: int = DEFAULT_BUDGET):
    """Stream the toy shtuka points of dimension n over F_{q^m}."""
    for L in enumerate_grassmannian(field, N, n, budget=budget):
        if is_toy_shtuka(L):
            yield ToyPoint(L)


def toy_points(field: Field, N: int, n: int, budget: int = DEFAULT_BUDGET):
    """The toy shtuka points of dimension n over F_{q^m}, as a tuple in
    enumerate_toysht order: one per field value and (N, n), as
    rational_subspaces, built on first use and shared after, so the points'
    cached flags are shared too; the budget is checked on every call."""
    _gate(N, n, field.order, budget)
    return _toy_points(field, N, n)


@cache
def _toy_points(field: Field, N: int, n: int):
    # the caller has gated the count; the stream also gates a basis's n * N entries
    return tuple(enumerate_toysht(field, N, n, max(gauss_binomial(N, n, field.order), n * N)))


def split_nontrivial(point: ToyPoint):
    """The canonical flag (L cap sigma L, L + sigma L) of a nontrivial point."""
    if point.sigma_L == point.L:
        raise TrivialPointError("point is Frobenius-fixed")
    return point.flag


@dataclass(frozen=True, slots=True)
class FlagPoint:
    """A nested pair of subspaces with a one-step dimension gap.

    For kind "right" the pair is (L, L') with L, sigma(L) both inside L'.
    For kind "left" it is (L', L) with L' inside both L and sigma(L).
    """

    small: Subspace
    big: Subspace
    kind: str

    def validate(self) -> None:
        if self.kind not in ("left", "right"):
            raise InvalidFlagError(f"unknown kind {self.kind!r}")
        if len(self.big.basis) != len(self.small.basis) + 1:
            raise InvalidFlagError("dimension gap must be exactly one")
        if not self.big.contains(self.small):
            raise InvalidFlagError("small is not contained in big")
        if self.kind == "right":
            if not self.big.contains(self.small.frobenius_image()):
                raise InvalidFlagError("sigma(small) escapes big")
        else:
            if not self.big.frobenius_image().contains(self.small):
                raise InvalidFlagError("small escapes sigma(big)")

    def frobenius_image(self) -> "FlagPoint":
        return FlagPoint(
            self.small.frobenius_image(), self.big.frobenius_image(), self.kind
        )


def partial_frobenius_plus(f: FlagPoint) -> FlagPoint:
    """Right (L, L') to left (sigma L, L')."""
    if f.kind != "right":
        raise InvalidFlagError("expects a right flag")
    out = FlagPoint(f.small.frobenius_image(), f.big, "left")
    out.validate()
    return out


def partial_frobenius_minus(f: FlagPoint) -> FlagPoint:
    """Left (L', L) to right (L', sigma L)."""
    if f.kind != "left":
        raise InvalidFlagError("expects a left flag")
    out = FlagPoint(f.small, f.big.frobenius_image(), "right")
    out.validate()
    return out


def superspaces_one_more(L: Subspace, budget: int = DEFAULT_BUDGET):
    """All subspaces of dimension dim L + 1 containing L."""
    qm = QuotientMap(L)
    for line in enumerate_grassmannian(L.field, qm.dim, 1, budget=budget):
        yield echelonize(L.field, L.basis + (qm.lift(line.basis[0]),), L.ambient_dim)


def subspaces_one_less(L: Subspace, budget: int = DEFAULT_BUDGET):
    """All hyperplanes of L, via coordinates in a basis of L."""
    f, k, N = L.field, L.dim, L.ambient_dim
    for H in enumerate_grassmannian(f, k, k - 1, budget=budget):
        yield echelonize(f, [combine(f, coeffs, L.basis, N) for coeffs in H.basis], N)


def _fiber(N: int, n: int, kind: str):
    """The (ambient, dimension) of the Grassmannian a trivial point's fiber
    ranges over, for flags of the given kind at level n; raises
    InvalidFlagError for an unknown kind and DimensionMismatchError for a
    level without flags."""
    if kind not in ("left", "right"):
        raise InvalidFlagError(f"unknown kind {kind!r}")
    right = kind == "right"
    if not (0 <= n < N if right else 0 < n <= N):
        bounds = "0 <= n < N" if right else "0 < n <= N"
        raise DimensionMismatchError(f"{kind} flags need {bounds}, got n={n}, N={N}")
    return (N - n, 1) if right else (n, n - 1)


def enumerate_flags(field: Field, N: int, n: int, kind: str, budget: int = DEFAULT_BUDGET):
    """Stream all flags of the given kind at level n.

    Right flags at level n pair an n-dimensional toy point with an
    (n+1)-dimensional cover; left flags at level n pair an (n-1)-dimensional
    base with an n-dimensional toy point.  Over a nontrivial point the
    partner is forced; over a trivial one it ranges over a projective fiber.
    The budget bounds the points (toy_points) and each fiber.
    """
    _fiber(N, n, kind)
    right = kind == "right"
    for pt in toy_points(field, N, n, budget):
        if is_trivial(pt.L):
            fiber = superspaces_one_more if right else subspaces_one_less
            partners = fiber(pt.L, budget)
        else:
            inter, total = split_nontrivial(pt)
            partners = (total if right else inter,)
        for other in partners:
            yield FlagPoint(pt.L, other, kind) if right else FlagPoint(other, pt.L, kind)


def flags(field: Field, N: int, n: int, kind: str, budget: int = DEFAULT_BUDGET):
    """The flags of the given kind at level n, as a tuple in enumerate_flags
    order: one per field value and (N, n, kind), as toy_points, built on
    first use and shared after, so the fiber subspaces' cached point sets
    and Frobenius images are shared too.  On every call the budget is
    checked on the points and on one trivial point's fiber, which every
    level has (the rational subspaces), raising as enumerate_flags would,
    then on their product, which bounds the flags."""
    fiber, q = _fiber(N, n, kind), field.order
    _gate(N, n, q, budget)
    _gate(*fiber, q, budget)
    gate(budget, "flags", gauss_binomial(N, n, q) * gauss_binomial(*fiber, q), 1)
    return _flags(field, N, n, kind)


@cache
def _flags(field: Field, N: int, n: int, kind: str):
    # the caller has gated the points and the fibers, so enumerate at the
    # larger of the two sizes
    q = field.order
    sizes = (gauss_binomial(N, n, q), gauss_binomial(*_fiber(N, n, kind), q))
    return tuple(enumerate_flags(field, N, n, kind, max(sizes)))


def _in_line(field: Field, v, l) -> bool:
    """True iff v is a multiple of l (for l = 0, iff v = 0): with c = v_j / l_j
    at the first nonzero l_j, v and l vanish together and log v_k - log l_k
    is log c mod order - 1, read on the log table with no Field call."""
    j = next((k for k, x in enumerate(l) if x), None)
    if j is None or not v[j]:
        return not any(v)
    log, n1 = field._log, field.order - 1
    lc = log[v[j]] - log[l[j]]
    return all(x and (log[x] - log[y] - lc) % n1 == 0 if y else not x for x, y in zip(v, l))


# the (sub_fixed, quot_fixed) pairs, indexed by both flags: a level's lists share them
_PAIRS = ((False, False), (False, True)), ((True, False), (True, True))


def dichotomy_check(points, centers):
    """For each toy point, in order, the list of pairs (sub_fixed,
    quot_fixed) for the rational W of centers, in order: whether L cap W and
    im(L -> V/W) are Frobenius-fixed.  The dichotomy says at least one of
    each pair holds; a pair with neither is a violation, which the caller
    reports.  The centers are checked, and their point sets read, once.

    As W is rational, L cap W is fixed iff it lies in M = L cap sigma L; and
    the image is fixed iff L + W is rational, iff rank(S + W) = rank(L + W)
    for S = L + sigma L.  On point sets (ToyPoint.flag_points) both are bit
    tests on W's point set: W & (L & ~M) == 0, and |S cap W| * |L| =
    |L cap W| * |S|.  Elsewhere as in dichotomy_by_rank, with M + W taken
    once per value of (M, W): sums maps each M to its M + W over the centers.
    """
    dims = {W.ambient_dim for W in centers}
    if not all(map(Subspace.is_rational, centers)):
        raise ValueError("W must be F_q-rational")
    center_points = [W.points() for W in centers]
    sums, out = {}, []
    for point in points:
        if dims - {point.L.ambient_dim}:
            raise DimensionMismatchError("ambient dimensions differ")
        masks = point.flag_points
        if masks is not None:
            L, M, S = masks
            outside, ratio = L & ~M, S.bit_count() // L.bit_count()
            out.append([_PAIRS[not W & outside][(S & W).bit_count() == (L & W).bit_count() * ratio]
                        for W in center_points])
        elif (steps := point.flag_steps) is None:
            out.append([(True, True)] * len(centers))
        else:
            if (M := point.flag[0]) not in sums:
                sums[M] = [span_sum(M, W) for W in centers]
            out.append([_fixed_modulo(MW, *steps) for MW in sums[M]])
    return out


def _fixed_modulo(MW, l, s):
    """One pair from the remainders of the flag steps l, s modulo M + W."""
    l = MW.reduce(l)
    return _PAIRS[any(l)][_in_line(MW.field, MW.reduce(s), l)]


def dichotomy_by_rank(point: ToyPoint, W: Subspace):
    """One pair of dichotomy_check by elimination, in every characteristic.

    L cap W is fixed iff rank(L + W) - rank(M + W) = dim L - dim M.  On a
    trivial point M = L = S and both sides hold.  Otherwise the flag
    M < L < S steps by one dimension twice, L = M + <l> and S = L + <s>
    (ToyPoint.flag_steps), so one elimination of M + W decides both: with
    l' and s' the remainders of l and s modulo it, L cap W is fixed iff
    l' != 0, and the image is fixed iff s' lies on the line through l'.
    """
    if not W.is_rational():
        raise ValueError("W must be F_q-rational")
    steps = point.flag_steps
    if steps is None:
        return True, True
    return _fixed_modulo(span_sum(point.flag[0], W), *steps)
