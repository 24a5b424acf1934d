"""Affine charts of the Grassmannian, the Artin-Schreier presentation of the
toy-shtuka locus, determinantal transversality, and t-adic valuation probes.

A chart is a splitting V = W + W' with W rational of codimension n; the
graph construction identifies n-by-(N-n) matrices with the subspaces
transversal to W.  On a chart the toy locus is the preimage of the
rank-at-most-one matrices under A -> A - A^(q), which is additive in
characteristic p and etale, so curves downstairs lift uniquely once a fiber
point is chosen.  Divisor multiplicities are measured operationally as the
t-adic order of a local equation along such lifted curves.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations, product
from operator import getitem, xor

from .errors import (
    DimensionMismatchError,
    FiberEmptyError,
    NotOnVarietyError,
    TruncationTooShortError,
)
from .gf import Field, randbelow
from .linalg import (
    Subspace,
    combine,
    echelonize,
    extend,
    intersect,
    intersection_dim,
    packing,
    pairing,
    perp,
    rational_subspaces,
    rref,
)
from .toysht import _toy_points


# ---------------------------------------------------------------------------
# truncated power series: coefficient tuples (c_0, ..., c_T) over the field


def _adder(field: Field):
    """Coefficient addition: xor for p = 2, the field's Zech add otherwise."""
    return xor if field.p == 2 else field.add


def series_sub(field: Field, a, b):
    return tuple(map(xor if field.p == 2 else field.sub, a, b))


def series_qth_power(field: Field, a):
    """(sum c_k t^k)^q = sum c_k^q t^(kq) in characteristic p."""
    q, frob = field.q, field._frob
    out = [0] * len(a)
    out[::q] = [frob[c] for c in a[: (len(a) - 1) // q + 1]]
    return tuple(out)


def series_order(a):
    """Index of the first nonzero coefficient, or None through t^T."""
    return next((k for k, c in enumerate(a) if c), None)


def series_mul(field: Field, a, b):
    """The product truncated at t^T: each pair of nonzero coefficients is
    one exp[log x + log y], added by xor for p = 2 and by one Zech lookup
    otherwise, as in Field.axpy; pairs beyond t^T are never formed."""
    T = len(a) - 1
    exp, log = field._exp, field._log
    lb = [(j, log[y]) for j, y in enumerate(b) if y]
    out = [0] * (T + 1)
    zech, n1 = (None, 1) if field.p == 2 else (field._zech, field.order - 1)
    for i, x in enumerate(a):
        if x:
            lx = log[x]
            for j, ly in lb:
                k = i + j
                if k > T:
                    break
                if zech is None:
                    out[k] ^= exp[lx + ly]
                else:
                    m, y = (lx + ly) % n1, out[k]
                    z = zech[log[y] - m] if y else 0
                    out[k] = exp[m + z] if z >= 0 else 0
    return tuple(out)


def series_matrix_as(field: Field, M):
    """Entrywise Artin-Schreier map x - x^q on a series matrix."""
    return [[series_sub(field, x, series_qth_power(field, x)) for x in row] for row in M]


# ---------------------------------------------------------------------------
# charts and the Artin-Schreier presentation


class Chart:
    """A splitting V = W + W' with ordered rational bases of both parts.

    Matrices act by rows: the graph of A has one row w'_i + sum_j A[i][j] w_j
    per basis vector of W'.  The chart keeps the inverse of its basis B (the
    W' rows, then the W rows), so chart coordinates are one product with it.
    """

    __slots__ = ("field", "N", "w_basis", "wp_basis", "inverse")

    def __init__(self, field: Field, N: int, w_basis, wp_basis):
        self.field = field
        self.N = N
        self.w_basis = tuple(tuple(r) for r in w_basis)
        self.wp_basis = tuple(tuple(r) for r in wp_basis)
        B = self.wp_basis + self.w_basis
        for r in B:
            if len(r) != N:
                raise DimensionMismatchError(f"vector of length {len(r)}, ambient {N}")
        # one rref of [B | I]: B is a basis iff the left half reduces to I,
        # and then the right half is B^-1
        rows, pivots = rref(field, [r + tuple(int(i == k) for k in range(N))
                                    for i, r in enumerate(B)], 2 * N)
        if pivots != list(range(N)):
            raise ValueError("chart bases must together form a basis of the ambient space")
        self.inverse = tuple(r[N:] for r in rows)

    @property
    def n(self) -> int:
        return len(self.wp_basis)

    def coords(self, v):
        """The c with sum_i c_i B_i = v, the W' part then the W part: the
        product v B^-1, as a sum of rows of the inverse."""
        return combine(self.field, v, self.inverse, self.N)

    def graph(self, A) -> Subspace:
        """The subspace with matrix A in this chart."""
        rows = [combine(self.field, (1, *a), (wp, *self.w_basis), self.N)
                for wp, a in zip(self.wp_basis, A)]
        return echelonize(self.field, rows, self.N)

    def coordinates(self, L: Subspace):
        """Matrix of L in this chart, or None when L meets W: in chart
        coordinates L is a graph iff its echelon pivots are 0..n-1, and then
        its echelon rows are [I | A]."""
        n = self.n
        if L.dim != n:
            return None
        rows, pivots = rref(self.field, [self.coords(v) for v in L.basis], self.N)
        if pivots != list(range(n)):
            return None
        return tuple(r[n:] for r in rows)


@cache
def canonical_chart(field: Field, W: Subspace) -> Chart:
    """The chart centered at rational W, completed by standard basis vectors:
    one per field value and W, built on first use and shared after."""
    N = W.ambient_dim
    pivset = set(W.pivots)
    wp = [tuple(1 if k == j else 0 for k in range(N)) for j in range(N) if j not in pivset]
    return Chart(field, N, W.basis, wp)


def artin_schreier(field: Field, A):
    """Entrywise A - A^(q) on a matrix over the field."""
    return tuple(
        tuple(field.sub(x, field.frobenius(x)) for x in row) for row in A
    )


def rank_le1(field: Field, A) -> bool:
    """True iff every 2x2 minor vanishes."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    for i1 in range(rows):
        for i2 in range(i1 + 1, rows):
            for j1 in range(cols):
                for j2 in range(j1 + 1, cols):
                    d = field.sub(
                        field.mul(A[i1][j1], A[i2][j2]),
                        field.mul(A[i1][j2], A[i2][j1]),
                    )
                    if d != 0:
                        return False
    return True


@cache
def rank_le1_locus(field: Field, s: int, t: int):
    """The s-by-t matrices of rank at most one, sorted: the zero matrix and
    each u v^T with u normalized (first nonzero entry 1) and v nonzero, so
    each once.  One tuple per field value and shape, built on first use.
    With s or t zero the one matrix is the empty one, returned unenumerated."""
    if min(s, t) == 0:
        return (((0,) * t,) * s,)
    us = [u for u in product(field.elements(), repeat=s) if next(filter(None, u), 0) == 1]
    vs = list(product(field.elements(), repeat=t))[1:]
    return tuple(sorted([((0,) * t,) * s] + [
        tuple(tuple(field.mul(x, y) for y in v) for x in u) for u in us for v in vs]))


def _toy_matrices(field: Field, N: int, n: int, chart: Chart):
    """The matrices (tuples of row tuples) of the chart whose graphs are toy
    shtukas: the chart coordinates of the points of the toy-locus index
    (toysht.toy_points, which the caller gates) that are graphs in it, taken
    once per chart; None at the levels where every graph is toy, which read
    no index.  On point sets a point P is a graph iff it meets W in 0 alone,
    and then its row i is the row value a of its one point in the coset
    w'_i + W, read off the top bit of P & C_i, C_i the coset's point set;
    elsewhere each point's coordinates come from one Chart.coordinates."""
    if n <= 1 or n >= N:
        return None
    index = _toy_points(field, N, n)
    pk = packing(field, N)
    if pk is None:
        return {A for A in (chart.coordinates(pt.L) for pt in index) if A is not None}
    w = [pk.multiples[pk.pack(v)] for v in chart.w_basis]
    values = list(product(field.elements(), repeat=N - n))

    def coset(wp):
        # the point set of wp + W, and the row value a of each of its points
        row = {reduce(xor, map(getitem, w, a), wp): a for a in values}
        return sum(1 << v for v in row), row

    W, _ = coset(0)
    cosets = [coset(pk.pack(wp)) for wp in chart.wp_basis]
    return {tuple(row[(P & C).bit_length() - 1] for C, row in cosets)
            for P in (pt.L.points() for pt in index) if P & W == 1}


def chart_equivalence_check(field: Field, N: int, n: int, charts) -> list:
    """Per chart, in order, compare the intrinsic toy predicate on graphs, read
    off the toy-locus index as the chart's toy matrices, with the chart-side
    rank condition on Artin-Schreier images, over every matrix as n-tuples of
    row values; an image's rank <= 1 is one lookup in rank_le1_locus per call."""
    for chart in charts:
        if (chart.N, chart.n) != (N, n):
            raise DimensionMismatchError(f"chart of (N, n) = {chart.N, chart.n}, check of {N, n}")
    # the row values, and their Artin-Schreier images in the same order, so
    # the two products walk each matrix and its image together; for n = 0
    # the one matrix is (), so no row is formed
    rows = list(product(field.elements(), repeat=(N - n) * (n > 0)))
    images = [artin_schreier(field, (a,))[0] for a in rows]
    cone = frozenset(rank_le1_locus(field, n, N - n))
    in_cone = [image in cone for image in product(images, repeat=n)]
    reports = []
    for chart in charts:
        toy = _toy_matrices(field, N, n, chart)
        reports.append({"checked": len(in_cone), "counterexamples": [
            A for A, rank_le1_image in zip(product(rows, repeat=n), in_cone)
            if (toy is None or A in toy) != rank_le1_image]})
    return reports


# ---------------------------------------------------------------------------
# transversality of coordinate hyperplanes with the determinantal cone


def transversal_entries(field: Field, s: int, t: int, A) -> set:
    """The zero entries (a, b) of a rank-at-most-one A at which {X_ab = 0}
    meets the locus transversally.

    At a rank-one point the tangent space is the kernel of the Jacobian of
    the 2x2 minors; X_ab is nonzero on it iff e_ab lies outside the row
    space of the Jacobian (perp of perp is the identity), so one echelonize
    serves every entry.  The zero matrix (the cone vertex) has none.
    """
    if not any(map(any, A)):
        return set()
    # -A, entry by entry through Field.axmy, with no Field.neg call
    minus = [field.axmy(1, row, [0] * t) for row in A]
    jac_rows = []
    for i1, i2 in combinations(range(s), 2):
        for j1, j2 in combinations(range(t), 2):
            g = [0] * (s * t)
            g[i1 * t + j1] = A[i2][j2]
            g[i2 * t + j2] = A[i1][j1]
            g[i1 * t + j2] = minus[i2][j1]
            g[i2 * t + j1] = minus[i1][j2]
            jac_rows.append(tuple(g))
    jac = echelonize(field, jac_rows, s * t)
    return {(a, b) for a in range(s) for b in range(t) if A[a][b] == 0
            and not jac.contains_vector(tuple(int(k == a * t + b) for k in range(s * t)))}


def transversality_check(field: Field, s: int, t: int, a: int, b: int, A) -> bool:
    """Whether {X_ab = 0} meets the rank-at-most-one locus transversally at
    A, with the rank of A computed, not read off the cone index."""
    if not rank_le1(field, A):
        raise NotOnVarietyError("matrix has rank above one")
    if A[a][b] != 0:
        raise ValueError("the (a,b) entry must vanish on the hyperplane")
    return (a, b) in transversal_entries(field, s, t, A)


# ---------------------------------------------------------------------------
# valuation probes


def valuation_probe(series):
    """The t-adic order of a series along a probe curve: the index of its
    first nonzero coefficient, or None when every tracked coefficient
    vanishes.  An order at the truncation says nothing, so it raises."""
    k = series_order(series)
    if k is not None and k >= len(series) - 1:
        raise TruncationTooShortError(f"order reached truncation {len(series) - 1}")
    return k


def default_truncation(field: Field) -> int:
    return 2 * field.q + 2


def hensel_lift_probe(field: Field, A_series, B0):
    """The unique curve upstairs through B0 whose Artin-Schreier image is the
    given downstairs curve.

    Additivity of x - x^q makes the correction the sum of the iterated
    q-power images of the curve minus its base: coefficient a_j at t^j adds
    a_j^(q^r) at t^(j q^r) for every r while j q^r stays within t^T.  In
    B - B^(q) those terms telescope, each q-th power cancelling the next
    term, so AS(B) is AS(B0) + sum_j a_j t^j: the curve itself through t^T
    once AS(B0) is its base.  The lift is checked once against the curve:
    a mismatch at t^0 raises FiberEmptyError (B0 is not over the base), any
    other NotOnVarietyError.
    """
    T = len(A_series[0][0]) - 1
    add, frob, q = _adder(field), field._frob, field.q
    out = []
    for a_row, b_row in zip(A_series, B0):
        orow = []
        for a, b in zip(a_row, b_row):
            eps = [b] + [0] * T
            for j in range(1, T + 1):
                x, k = a[j], j
                while x and k <= T:
                    eps[k] = add(eps[k], x)
                    x, k = frob[x], k * q
            orow.append(tuple(eps))
        out.append(orow)
    pairs = [(x, a) for x_row, a_row in zip(series_matrix_as(field, out), A_series)
             for x, a in zip(x_row, a_row)]
    if any(x[0] != a[0] for x, a in pairs):
        raise FiberEmptyError("fiber point does not sit over the curve base")
    if any(x != a for x, a in pairs):
        raise NotOnVarietyError("the lift's Artin-Schreier image leaves the curve")
    return out


def random_series(field: Field, rng, T: int, const: int = 0):
    """Random series with prescribed constant term: one draw per coefficient
    of t through t^T."""
    return (const, *(randbelow(rng, field.order) for _ in range(T)))


def rank1_curve(field: Field, rng, A0, T: int):
    """A random curve of rank-at-most-one matrices through the nonzero A0,
    as an outer product of perturbed factor curves."""
    rows = len(A0)
    cols = len(A0[0])
    i0 = j0 = None
    for i in range(rows):
        for j in range(cols):
            if A0[i][j] != 0:
                i0, j0 = i, j
                break
        if i0 is not None:
            break
    if i0 is None:
        raise NotOnVarietyError("curve base must be a nonzero matrix")
    v0 = list(A0[i0])
    pivot_inv = field.inv(A0[i0][j0])
    u0 = [field.mul(A0[i][j0], pivot_inv) for i in range(rows)]
    u = [random_series(field, rng, T, const=u0[i]) for i in range(rows)]
    v = [random_series(field, rng, T, const=v0[j]) for j in range(cols)]
    return [[series_mul(field, ui, vj) for vj in v] for ui in u]


def _retry_probe(attempt, T: int):
    """The retry loop shared by the multiplicity probes: up to 200 calls of
    attempt(T), each drawing a fresh curve and returning its result or None
    to resample; an order that reaches the truncation doubles T, up to 64."""
    for _ in range(200):
        try:
            out = attempt(T)
        except TruncationTooShortError:
            if 2 * T > 64:
                raise
            T *= 2
            continue
        if out is not None:
            return out
    raise NotOnVarietyError("no transversal probe direction found")


# ---------------------------------------------------------------------------
# a Schubert-adapted chart and the multiplicity probe for Schubert divisors


class SchubertCenters:
    """The Schubert-adapted centers of a rational W, in center order: each
    rational M of codimension n with M cap W of codimension n+1, paired with
    its adapted chart.  None of this depends on the probed point, so one
    index serves every probe of W; it is filled lazily, one center at a
    time, only as far as the searches through it reach.  normals keeps a
    normal vector of each hyperplane H probed, taken once per H, and bases
    the probe base of each point L0 probed (schubert_probe_base), taken once
    per L0.
    """

    def __init__(self, field: Field, N: int, n: int, W: Subspace):
        self.field, self.N, self.n, self.W = field, N, n, W
        self._rest = iter(rational_subspaces(field, N, N - n))
        self._found = []
        self.normals = {}
        self.bases = {}

    def __iter__(self):
        i = 0
        while True:
            while i == len(self._found):
                M = next(self._rest, None)
                if M is None:
                    return
                chart = self._adapted_chart(M)
                if chart is not None:
                    self._found.append((M, chart))
            yield self._found[i]
            i += 1

    def _adapted_chart(self, M: Subspace):
        """The chart centered at M cap W + <w0>, with complement u plus
        standard vectors, for the first rational w0 in M outside W and u in
        W outside M; None unless M cap W has codimension n+1.

        Then M = M cap W + <w0> and W = M cap W + <u>, so the complement
        meets W in <u> exactly, as the Schubert coordinate needs."""
        field, N, n, W = self.field, self.N, self.n, self.W
        MW = intersect(M, W)
        if MW.dim != N - n - 1:
            return None

        def rational_outside(A: Subspace, B: Subspace):
            # A is rational, so its rational vectors are the F_q-combinations
            # of its echelon basis, met in the order of A.vectors()
            combos = product(field.subfield, repeat=A.dim)
            return next(v for v in (combine(field, c, A.basis, N) for c in combos)
                        if not B.contains_vector(v))

        w0, u = rational_outside(M, W), rational_outside(W, MW)
        span = echelonize(field, list(MW.basis) + [w0, u], N)
        standard = (tuple(int(k == j) for k in range(N)) for j in range(N))
        return Chart(field, N, list(MW.basis) + [w0], [u, *extend(span, standard)])


def schubert_adapted_chart(centers: SchubertCenters, L0: Subspace):
    """A chart containing L0 in which the Schubert equation for the W of
    centers is the single graph coordinate (0, N-n-1).

    The center M is rational of codimension n with M cap W of codimension
    n+1; the complement starts with a vector of W, so the degeneracy locus
    det(L -> V/W) = 0 reduces to one matrix entry.  The chart is that of the
    first such M, in center order, that meets L0 trivially, which is one
    intersection_dim test.  Such an M lies in no hyperplane through L0, as
    its dimension N - n plus dim L0 already fills the space.
    """
    for M, chart in centers:
        if intersection_dim(M, L0):
            continue
        return chart, (0, centers.N - centers.n - 1)
    raise NotOnVarietyError("no adapted chart found for this Schubert center")


def schubert_probe_base(centers: SchubertCenters, L0: Subspace):
    """(chart, entry, B0, A0) for probes at L0: the adapted chart and its
    Schubert entry (schubert_adapted_chart), the matrix B0 of L0 in it and
    its Artin-Schreier image A0.  None of it draws randomness or depends on
    the component, so it is taken once per L0 and kept on centers.bases;
    raises NotOnVarietyError, and keeps nothing, unless L0 is a nontrivial
    point on the Schubert divisor in its chart."""
    base = centers.bases.get(L0)
    if base is None:
        chart, (ai, bj) = schubert_adapted_chart(centers, L0)
        B0 = chart.coordinates(L0)
        if B0 is None or B0[ai][bj] != 0:
            raise NotOnVarietyError("base point is not on the Schubert divisor in its chart")
        A0 = artin_schreier(centers.field, B0)
        if all(x == 0 for row in A0 for x in row):
            raise NotOnVarietyError("probe base point must be nontrivial")
        base = centers.bases[L0] = chart, (ai, bj), B0, A0
    return base


def schubert_multiplicity_probe(centers: SchubertCenters, L0: Subspace, component, rng):
    """Order of the Schubert equation along a random toy-locus curve through
    the nontrivial point L0 on the Schubert divisor of the W of centers.

    component is ("H", hyperplane) or ("J", line), naming the horospherical
    piece through L0; the curve direction is resampled until its first-order
    part crosses that component, an affine-linear certificate independent of
    the probed equation.
    """
    kind, sub = component
    field, n = centers.field, centers.n
    chart, (ai, bj), B0, A0 = schubert_probe_base(centers, L0)

    if kind == "H":
        if sub not in centers.normals:
            centers.normals[sub] = perp(sub).basis[0]
        phi = centers.normals[sub]
        # phi(w_j) for each center basis vector
        phi_w = [pairing(field, phi, w) for w in chart.w_basis]

        def crosses(Adot):
            # d/dt of phi(wp_i + B(wp_i)) is sum_j Adot[i][j] phi(w_j)
            return any(pairing(field, row, phi_w) for row in Adot)

    else:
        c = chart.coords(sub.basis[0])[:n]

        def crosses(Adot):
            # d/dt of B(w'_J) is sum_i c_i Adot[i]
            return any(pairing(field, c, col) for col in zip(*Adot))

    def attempt(T):
        A_curve = rank1_curve(field, rng, A0, T)
        if not crosses([[s[1] for s in row] for row in A_curve]):
            return None
        return valuation_probe(hensel_lift_probe(field, A_curve, B0)[ai][bj])

    return _retry_probe(attempt, default_truncation(field))


# ---------------------------------------------------------------------------
# multiplicity probe for divisor pullbacks along partial Frobeniuses

@cache
def jtype_probe_base(field: Field, N: int, n: int, J: Subspace, flag):
    """(B0, h0, jstar, a0, c, d) for J-type probes at flag: the matrix B0 of
    flag.small in the canonical chart of the first rational W meeting J and
    flag.small trivially, the coordinates h0 of the line H0 = flag.big cap W
    with jstar its first nonzero index, the heights a0 of the Artin-Schreier
    rows over h0, and the chart coordinates (c, d) of J.  None of it draws
    randomness, so it is one tuple of tuples per value of (J, flag), built
    on first use and shared after; raises NotOnVarietyError, and keeps
    nothing, unless the flag lies on the component in the model."""
    width = N - n
    L0 = flag.small
    # chart avoiding both J and the base point
    W = next((W for W in rational_subspaces(field, N, width)
              if intersection_dim(W, J) == 0 and intersection_dim(W, L0) == 0), None)
    if W is None:
        raise NotOnVarietyError("no chart is transversal to both J and the point")
    chart = canonical_chart(field, W)
    B0 = chart.coordinates(L0)
    A0 = artin_schreier(field, B0)
    H0 = intersect(flag.big, W)
    if H0.dim != 1:
        raise NotOnVarietyError("the flag's big part must meet the chart center in a line")
    h0 = chart.coords(H0.basis[0])[n:]
    jstar = next(j for j in range(width) if h0[j] != 0)
    # scalar heights of the Artin-Schreier rows over the line direction
    hinv = field.inv(h0[jstar])
    a0 = tuple(field.mul(A0[i][jstar], hinv) for i in range(n))
    if any(A0[i][j] != field.mul(a0[i], h0[j]) for i in range(n) for j in range(width)):
        raise NotOnVarietyError("base point leaves the model")
    coeffs = chart.coords(J.basis[0])
    c, d = coeffs[:n], coeffs[n:]
    if not any(c):
        raise NotOnVarietyError("J must be transversal to the chart center")
    if any(pairing(field, c, col) != dj for col, dj in zip(zip(*B0), d)):
        raise NotOnVarietyError("base point is off the component")
    return B0, h0, jstar, a0, c, d


def jtype_flag_pullback_probe(field: Field, N: int, n: int, J: Subspace, flag, rng):
    """Orders of the local equation of the J-type flag component, and of its
    Frobenius pullback, along a random curve on the chart model of flags.

    Works on the space of pairs (L, L') with sigma L inside L', presented
    over a chart as matrices B with the line H = L' cap W recording the
    image of B - B^(q).  The component is the locus where the rational line
    J sits inside the graph of B; the Frobenius factorization of the two
    partial Frobeniuses pulls its equation back to its entrywise q-power.
    The base flag must lie on the component, and the rng-free part of the
    model comes from jtype_probe_base.  Returns (order, pulled_order).
    """
    width = N - n
    B0, h0, jstar, a0, c, d = jtype_probe_base(field, N, n, J, flag)

    def component_eq(M):
        # sum_i c_i B[i][jstar] - d[jstar]
        out = (0,) * len(M[0][0])
        for ci, row in zip(c, M):
            if ci:
                out = field.axpy(ci, row[jstar], out)
        return (field.sub(out[0], d[jstar]), *out[1:])

    def attempt(T):
        h_curve = [random_series(field, rng, T, const=h0[j]) for j in range(width)]
        a_curve = [random_series(field, rng, T, const=a0[i]) for i in range(n)]
        if pairing(field, c, [a[1] for a in a_curve]) == 0:
            return None
        A_curve = [[series_mul(field, a, h) for h in h_curve] for a in a_curve]
        eq = component_eq(hensel_lift_probe(field, A_curve, B0))
        order = valuation_probe(eq)
        pulled = valuation_probe(series_qth_power(field, eq))
        return None if None in (order, pulled) else (order, pulled)

    return _retry_probe(attempt, default_truncation(field))
