import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from toyshtlab.charts import (
    INFINITE,
    Chart,
    SchubertCenters,
    artin_schreier,
    canonical_chart,
    chart_equivalence_check,
    hensel_lift_probe,
    jtype_flag_pullback_probe,
    jtype_probe_base,
    minor_equations,
    rank1_curve,
    rank_le1,
    rank_le1_locus,
    schubert_adapted_chart,
    schubert_multiplicity_probe,
    series_matrix_as,
    series_mul,
    series_order,
    series_qth_power,
    series_sub,
    transversality_check,
    valuation_probe,
)
from toyshtlab import charts, linalg
from toyshtlab.errors import (
    DimensionMismatchError,
    FiberEmptyError,
    NotOnVarietyError,
    TruncationTooShortError,
)
from toyshtlab.divisors import _component_points, toy_locus
from toyshtlab.gf import field_make
from toyshtlab.linalg import (
    echelonize,
    enumerate_grassmannian,
    intersect,
    intersection_dim,
    rational_subspaces,
)
from toyshtlab.toysht import enumerate_flags, enumerate_toysht

F2 = field_make(2, 1, 1)
F3 = field_make(3, 1, 1)
F4 = field_make(2, 1, 2)
F9 = field_make(3, 1, 2)


def test_artin_schreier_kills_rational_matrices():
    A = ((1, 0), (1, 1))
    assert artin_schreier(F4, A) == ((0, 0), (0, 0))


def test_artin_schreier_generator_example():
    g = F4.generator
    assert artin_schreier(F4, ((g,),)) == ((1,),)  # g + g^2 = 1 in F_4


def test_artin_schreier_additive():
    rng = random.Random(0)
    for _ in range(50):
        A = tuple(tuple(rng.randrange(4) for _ in range(2)) for _ in range(2))
        B = tuple(tuple(rng.randrange(4) for _ in range(2)) for _ in range(2))
        S = tuple(tuple(F4.add(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(A, B))
        lhs = artin_schreier(F4, S)
        ra, rb = artin_schreier(F4, A), artin_schreier(F4, B)
        rhs = tuple(tuple(F4.add(a, b) for a, b in zip(x, y)) for x, y in zip(ra, rb))
        assert lhs == rhs


def test_rank_le1_examples():
    assert rank_le1(F2, ((0, 0), (0, 0)))
    assert rank_le1(F3, ((1, 2), (2, 1 * 2 * 2 % 3)))  # outer product (1,2)x(1,2)
    assert not rank_le1(F2, ((1, 0), (0, 1)))


@pytest.mark.parametrize("field,s,t,size", [
    (F3, 3, 3, 339), (F2, 2, 2, 10), (F4, 2, 2, 76), (F9, 2, 2, 801), (F2, 3, 3, 50), (F3, 2, 3, 105),
])
def test_rank_le1_locus_matches_filtered_sweep(field, s, t, size):
    matrices = (tuple(flat[i * t:(i + 1) * t] for i in range(s))
                for flat in product(field.elements(), repeat=s * t))
    swept = tuple(A for A in matrices if rank_le1(field, A))
    assert rank_le1_locus(field, s, t) == swept and len(swept) == size


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_chart_equivalence_cone_agrees_with_rank_le1(n):
    # F_4, N = 3, with the edges n = 0 (one 0 x 3 matrix) and n = N (3 x 0)
    cone = frozenset(rank_le1_locus(F4, n, 3 - n))
    for W in rational_subspaces(F4, 3, 3 - n):
        chart = canonical_chart(F4, W)
        is_toy_graph = charts._graph_predicate(F4, 3, n, chart)
        matrices = list(product(product(F4.elements(), repeat=(3 - n) * (n > 0)), repeat=n))
        for A in matrices:
            assert (artin_schreier(F4, A) in cone) == rank_le1(F4, artin_schreier(F4, A))
        rep = chart_equivalence_check(F4, 3, n, chart)
        assert rep["checked"] == len(matrices)
        assert rep["counterexamples"] == [
            A for A in matrices if is_toy_graph(A) != rank_le1(F4, artin_schreier(F4, A))]


def test_chart_rejects_degenerate_splittings():
    with pytest.raises(ValueError):
        Chart(F4, 3, [(0, 1, 0), (0, 0, 1)], [(0, 1, 1)])  # parts overlap
    with pytest.raises(ValueError):
        Chart(F4, 3, [(0, 1, 0)], [(1, 0, 0)])  # parts do not span
    with pytest.raises(ValueError):
        Chart(F4, 3, [(0, 1, 0), (0, 1, 0)], [(1, 0, 0)])  # dependent basis
    with pytest.raises(DimensionMismatchError):
        Chart(F4, 3, [(0, 1, 0), (0, 0, 1)], [(1, 0)])  # row of the wrong length


def test_chart_graph_and_coordinates_roundtrip():
    W = echelonize(F4, [(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    chart = canonical_chart(F4, W)
    g = F4.generator
    A = ((g, 1), (0, g))
    L = chart.graph(A)
    assert chart.coordinates(L) == A
    # a subspace meeting W has no chart coordinates
    bad = echelonize(F4, [(0, 0, 1, 0), (1, 0, 0, 0)], 4)
    assert chart.coordinates(bad) is None


@pytest.mark.parametrize("field,N", [(F4, 4), (F9, 3)])
def test_coordinates_exhaustive(field, N):
    # every rational W and every n-subspace L: L has coordinates exactly
    # when it meets W trivially, and they give L back
    for n in range(N + 1):
        for W in rational_subspaces(field, N, N - n):
            chart = canonical_chart(field, W)
            for L in enumerate_grassmannian(field, N, n):
                A = chart.coordinates(L)
                assert (A is None) == (intersection_dim(L, W) > 0)
                assert A is None or chart.graph(A) == L


@pytest.mark.parametrize("field,N,n", [(F4, 4, 2), (F9, 3, 1)])
def test_coords_expand_back(field, N, n):
    # the canonical charts, and the Schubert-adapted charts of the first center
    centers = rational_subspaces(field, N, N - n)
    adapted = [chart for _, chart in SchubertCenters(field, N, n, centers[0])]
    rng = random.Random(7)
    for chart in [canonical_chart(field, W) for W in centers] + adapted:
        basis = chart.wp_basis + chart.w_basis
        for _ in range(5):
            v = tuple(rng.randrange(field.order) for _ in range(N))
            total = [0] * N
            for c, b in zip(chart.coords(v), basis):
                total = [field.add(x, field.mul(c, y)) for x, y in zip(total, b)]
            assert tuple(total) == v


def test_chart_and_coordinates_make_one_elimination_each(monkeypatch):
    W = echelonize(F9, [(0, 1, 0), (0, 0, 1)], 3)
    on_chart = echelonize(F9, [(1, 2, F9.generator)], 3)
    off_chart = echelonize(F9, [(0, 1, 1)], 3)
    calls = []
    original = linalg.rref

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (charts, linalg):
        monkeypatch.setattr(module, "rref", counted)
    chart = canonical_chart(F9, W)
    assert len(calls) == 1
    assert chart.coordinates(on_chart) == ((2, F9.generator),)
    assert chart.coordinates(off_chart) is None
    assert len(calls) == 3


@pytest.mark.parametrize("N,n", [(2, 1), (3, 1), (3, 2)])
def test_chart_equivalence_small(N, n):
    for W in rational_subspaces(F4, N, N - n):
        rep = chart_equivalence_check(F4, N, n, canonical_chart(F4, W))
        assert rep["counterexamples"] == []
        assert rep["checked"] == 4 ** (n * (N - n))


@pytest.mark.parametrize("N,n", [(3, 1), (3, 2), (4, 1)])
def test_chart_equivalence_rejects_a_chart_of_another_shape(N, n):
    # a chart of F^3, or one with n = 1, checked as (N, n) = (4, 2)
    chart = canonical_chart(F4, next(iter(rational_subspaces(F4, N, N - n))))
    with pytest.raises(DimensionMismatchError, match=rf"\({N}, {n}\).*\(4, 2\)"):
        chart_equivalence_check(F4, 4, 2, chart)


def test_chart_equivalence_m1_all_trivial():
    W = echelonize(F2, [(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    rep = chart_equivalence_check(F2, 4, 2, canonical_chart(F2, W))
    assert rep["counterexamples"] == [] and rep["checked"] == 16


def test_transversality_spec_examples():
    assert transversality_check(F2, 2, 2, 0, 0, ((0, 0), (0, 0))) is False
    # nonzero entry elsewhere in row a: transversal
    assert transversality_check(F2, 2, 2, 0, 0, ((0, 1), (0, 0))) is True
    # nonzero only away from row a and column b: not transversal
    assert transversality_check(F2, 2, 2, 0, 0, ((0, 0), (0, 1))) is False


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("s,t", [(2, 2), (2, 3), (3, 3)])
def test_transversality_locus_exhaustive(field, s, t):
    for flat in product(range(field.order), repeat=s * t):
        A = tuple(tuple(flat[i * t : (i + 1) * t]) for i in range(s))
        if not rank_le1(field, A):
            continue
        for a in range(s):
            for b in range(t):
                if A[a][b] != 0:
                    continue
                got = transversality_check(field, s, t, a, b, A)
                row_zero = all(x == 0 for x in A[a])
                col_zero = all(A[i][b] == 0 for i in range(s))
                assert got == (not (row_zero and col_zero))


def test_transversality_preconditions():
    with pytest.raises(NotOnVarietyError):
        transversality_check(F2, 2, 2, 0, 0, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        transversality_check(F2, 2, 2, 0, 0, ((1, 1), (1, 1)))


# --- truncated series -------------------------------------------------------


def _series(coeffs, T):
    """A coefficient tuple through t^T, zero-padded."""
    return tuple(coeffs) + (0,) * (T + 1 - len(coeffs))


def test_series_arithmetic_and_qth_power():
    t = _series((0, 1), 8)
    g = F4.generator
    s = _series((g, 1, g), 8)
    assert series_mul(F4, s, t)[1] == g
    assert not any(map(F4.add, s, s))  # characteristic 2
    p = series_qth_power(F4, s)
    assert p[0] == F4.frobenius(g)
    assert p[2] == 1 and p[1] == 0


SERIES_FIELDS = {"F4": F4, "F8": field_make(2, 1, 3), "F9": F9, "F25": field_make(5, 1, 2)}


def _schoolbook_mul(field, a, b):
    T = len(a) - 1
    out = [0] * (T + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= T:
                out[i + j] = field.add(out[i + j], field.mul(x, y))
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SERIES_FIELDS)), st.integers(0, 12), st.data())
def test_series_kernel_matches_schoolbook(name, T, data):
    # the log/exp product, the xor or Zech sums and the q-th power against
    # field.mul and field.add, the q-th power as q schoolbook products
    field = SERIES_FIELDS[name]
    coeff = st.one_of(st.just(0), st.integers(0, field.order - 1))
    a, b = (tuple(data.draw(st.lists(coeff, min_size=T + 1, max_size=T + 1)))
            for _ in range(2))
    assert series_mul(field, a, b) == _schoolbook_mul(field, a, b)
    assert series_sub(field, a, b) == tuple(map(field.sub, a, b))
    power = _series((1,), T)
    for _ in range(field.q):
        power = _schoolbook_mul(field, power, a)
    assert series_qth_power(field, a) == power
    assert series_order(a) == next((k for k, x in enumerate(a) if x), None)


def test_valuation_probe_basics():
    t = _series((0, 1), 6)
    probe = [[t]]
    assert valuation_probe(lambda M: M[0][0], probe) == 1
    zero = [[_series((), 6)]]
    assert valuation_probe(lambda M: M[0][0], zero) == INFINITE
    tip = [[_series((0,) * 6 + (1,), 6)]]
    with pytest.raises(TruncationTooShortError):
        valuation_probe(lambda M: M[0][0], tip)


def test_valuation_probe_rejects_off_variety_curves():
    t = _series((0, 1), 6)
    probe = [[t]]
    with pytest.raises(NotOnVarietyError):
        valuation_probe(lambda M: M[0][0], probe, defining_eqs=[lambda M: M[0][0]])


def _eval_poly(field, poly, point):
    """poly: list of (coeff, exponent tuple); point: list of coefficient tuples."""
    T = len(point[0]) - 1
    acc = _series((), T)
    for coeff, exps in poly:
        term = _series((coeff,), T)
        for x, e in zip(point, exps):
            for _ in range(e):
                term = series_mul(field, term, x)
        acc = tuple(map(field.add, acc, term))
    return acc


def test_frobenius_composition_multiplies_valuation_by_q():
    # order of g(x^(q)) along a curve is q times the order of g along the
    # twisted curve, across random polynomial/probe pairs
    rng = random.Random(31)
    T = 24
    hits = 0
    while hits < 100:
        k = rng.randrange(1, 3)
        poly = [
            (1 + rng.randrange(3), tuple(rng.randrange(3) for _ in range(k)))
            for _ in range(rng.randrange(1, 4))
        ]
        curve = [_series([rng.randrange(4) for _ in range(5)], T) for _ in range(k)]
        twisted = [_series([F4.frobenius(c) for c in s], T) for s in curve]
        base = series_order(_eval_poly(F4, poly, twisted))
        if base is None or base * F4.q >= T:
            continue
        composed = series_order(
            _eval_poly(F4, poly, [series_qth_power(F4, s) for s in curve])
        )
        assert composed == base * F4.q
        hits += 1


def test_hensel_lift_constant_curve():
    B0 = ((F4.generator, 1),)
    A0 = artin_schreier(F4, B0)
    curve = [[_series((x,), 5) for x in row] for row in A0]
    lift = hensel_lift_probe(F4, curve, B0)
    for i, row in enumerate(lift):
        for j, s in enumerate(row):
            assert s[0] == B0[i][j]
            assert all(c == 0 for c in s[1:])


def _assert_hensel_residual_vanishes(field, rng):
    for _ in range(20):
        B0 = tuple(tuple(rng.randrange(field.order) for _ in range(2)) for _ in range(2))
        A0 = artin_schreier(field, B0)
        curve = [
            [
                tuple([A0[i][j]] + [rng.randrange(field.order) for _ in range(5)])
                for j in range(2)
            ]
            for i in range(2)
        ]
        lift = hensel_lift_probe(field, curve, B0)
        back = series_matrix_as(field, lift)
        for i in range(2):
            for j in range(2):
                assert back[i][j] == curve[i][j]


def test_hensel_lift_residual_vanishes():
    _assert_hensel_residual_vanishes(F4, random.Random(9))


def test_hensel_lift_residual_vanishes_over_f9():
    # odd p: the lift sums through Zech adds, and x - x^3 moves t^j to t^(3j)
    _assert_hensel_residual_vanishes(F9, random.Random(9))


def test_hensel_lift_requires_matching_base():
    B0 = ((0, 0),)
    curve = [[_series((1, 1), 5), _series((0, 1), 5)]]
    with pytest.raises(FiberEmptyError):
        hensel_lift_probe(F4, curve, B0)


def test_rank1_curve_stays_on_locus():
    rng = random.Random(3)
    A0 = ((1, F4.generator), (F4.generator, F4.mul(F4.generator, F4.generator)))
    assert rank_le1(F4, A0)
    curve = rank1_curve(F4, rng, A0, 6)
    for eq in minor_equations(F4, 2, 2):
        assert not any(eq(curve))
    assert [[s[0] for s in row] for row in curve] == [list(r) for r in A0]


# --- multiplicity probes ----------------------------------------------------


def test_schubert_probe_orders_one():
    rng = random.Random(17)
    W = echelonize(F4, [(0, 1, 0), (0, 0, 1)], 3)
    pts = [
        p.L
        for p in enumerate_toysht(F4, 3, 1)
        if W.contains(p.L) and not p.L.is_rational()
    ]
    centers = SchubertCenters(F4, 3, 1, W)
    for L0 in pts:
        for _ in range(5):
            assert schubert_multiplicity_probe(centers, L0, ("H", W), rng) == 1


def test_jtype_flag_probe_orders():
    rng = random.Random(23)
    J = echelonize(F4, [(1, 0, 0)], 3)
    flags = [
        f
        for f in enumerate_flags(F4, 3, 1, "right")
        if f.small.contains(J) and f.big.contains(J)
    ]
    assert flags
    for f in flags:
        v_id, v_frob = jtype_flag_pullback_probe(F4, 3, 1, J, f, rng)
        assert (v_id, v_frob) == (1, F4.q)


def test_jtype_flag_probe_orders_over_f9():
    # odd p: the component equation subtracts its base value by a Zech add
    rng = random.Random(23)
    J = echelonize(F9, [(1, 0, 0)], 3)
    flags = [
        f
        for f in enumerate_flags(F9, 3, 1, "right")
        if f.small.contains(J) and f.big.contains(J)
    ]
    assert flags
    for f in flags:
        assert jtype_flag_pullback_probe(F9, 3, 1, J, f, rng) == (1, F9.q)


def test_jtype_flag_probe_wider_level():
    # level two of a four-dimensional space: nontrivial points on the
    # component exist, so the engine crosses through a moving base point
    rng = random.Random(41)
    J = echelonize(F4, [(1, 0, 0, 0)], 4)
    flags = [
        f
        for f in enumerate_flags(F4, 4, 2, "right")
        if f.small.contains(J) and f.big.contains(J)
    ]
    assert flags
    from toyshtlab.toysht import is_trivial

    trivial_based = [f for f in flags if is_trivial(f.small)]
    moving_based = [f for f in flags if not is_trivial(f.small)]
    assert trivial_based and moving_based
    for f in trivial_based[:3] + moving_based[:3]:
        v_id, v_frob = jtype_flag_pullback_probe(F4, 4, 2, J, f, rng)
        assert (v_id, v_frob) == (1, F4.q)


def test_jtype_probe_base_is_cached_immutable_and_never_on_failure():
    J = echelonize(F4, [(1, 0, 0)], 3)
    right = list(enumerate_flags(F4, 3, 1, "right"))
    on = next(f for f in right if f.small.contains(J))
    base = jtype_probe_base(F4, 3, 1, J, on)
    # hashable, so every part is a tuple and no caller can change it
    hash(base)
    assert jtype_probe_base(F4, 3, 1, J, on) is base
    off = next(f for f in right if not f.small.contains(J))
    size = jtype_probe_base.cache_info().currsize
    for _ in range(2):
        with pytest.raises(NotOnVarietyError):
            jtype_probe_base(F4, 3, 1, J, off)
        assert jtype_probe_base.cache_info().currsize == size


# --- the per-W index of Schubert-adapted centers ----------------------------


def adapted_chart_by_search(field, N, n, W, L0):
    """The adapted chart by the search the index replaces: every rational
    center tested in full on every query."""
    for M in rational_subspaces(field, N, N - n):
        MW = intersect(M, W)
        if MW.dim != N - n - 1:
            continue
        if intersect(M, L0).dim != 0:
            continue
        w0 = None
        for v in M.vectors():
            if any(x != 0 for x in v) and not W.contains_vector(v):
                if all(field.frobenius(x) == x for x in v):
                    w0 = v
                    break
        if w0 is None:
            continue
        u = None
        for v in W.vectors():
            if any(x != 0 for x in v) and not MW.contains_vector(v):
                if all(field.frobenius(x) == x for x in v):
                    u = v
                    break
        if u is None:
            continue
        chosen = list(MW.basis) + [w0, u]
        span = echelonize(field, chosen, N)
        extra = []
        for j in range(N):
            if span.dim == N:
                break
            e = tuple(1 if k == j else 0 for k in range(N))
            if not span.contains_vector(e):
                extra.append(e)
                span = echelonize(field, list(span.basis) + [e], N)
        wp_basis = [u] + extra
        if len(wp_basis) != n:
            continue
        chart = Chart(field, N, list(MW.basis) + [w0], wp_basis)
        if intersect(echelonize(field, chart.wp_basis, N), W).dim != 1:
            continue
        return chart, (0, N - n - 1)
    raise NotOnVarietyError("no adapted chart found for this Schubert center")


def _chart_or_none(find, *args):
    try:
        chart, entry = find(*args)
    except NotOnVarietyError:
        return None
    return chart.w_basis, chart.wp_basis, entry


@pytest.mark.parametrize("field,N,n", [pytest.param(F4, 3, 1, id="3-1"),
                                       pytest.param(F4, 4, 2, id="4-2"),
                                       pytest.param(F9, 3, 1, id="F9-3-1")])
def test_adapted_centers_match_exhaustive_search(field, N, n):
    # every W and every point clean on one of its components; one index per
    # W.  The center lies in no hyperplane component through the point
    locus = toy_locus(field, N, n)
    found = Counter()
    for W in rational_subspaces(field, N, N - n):
        hyperplanes = [H for H in rational_subspaces(field, N, N - 1)
                       if H.contains(W)]
        components = [("H", H) for H in hyperplanes if n < N - 1]
        components += [("J", J) for J in rational_subspaces(field, N, 1)
                       if n > 1 and W.contains(J)]
        clean = _component_points(components, locus)
        points = list(dict.fromkeys(L0 for pts in clean.values() for L0 in pts))
        centers = SchubertCenters(field, N, n, W)
        for L0 in points:
            expected = _chart_or_none(adapted_chart_by_search, field, N, n, W, L0)
            got = _chart_or_none(schubert_adapted_chart, centers, L0)
            assert got == expected, (W, L0)
            found[expected is not None] += 1
            M = echelonize(field, got[0], N)
            for H in hyperplanes:
                if H.contains(L0):
                    assert not H.contains(M), (W, L0, H)
                    found["H through L0"] += 1
        # a subspace of W; at N = 2n it is W, which meets every adapted
        # center, so both searches run out
        L0 = echelonize(field, W.basis[:n], N)
        expected = _chart_or_none(adapted_chart_by_search, field, N, n, W, L0)
        assert _chart_or_none(schubert_adapted_chart, centers, L0) == expected
        assert (expected is None) == (N == 2 * n)
    # every query found a chart, so each compared a chart, not two failures;
    # the rest are clean on a line component, through no hyperplane one
    assert found == {(4, 3, 1): {True: 14, "H through L0": 14},
                     (4, 4, 2): {True: 1680, "H through L0": 840},
                     (9, 3, 1): {True: 78, "H through L0": 78}}[(field.order, N, n)]


def test_schubert_probe_base_is_one_coordinates_call_per_point(monkeypatch):
    # F_4, N = 4, n = 2: probes of both kinds at the first three clean
    # points of every component of the first W, each point probed twice per
    # component, on two centers objects; the base of a point is taken once
    # per centers object, whatever the component or the draw
    calls = []
    original = Chart.coordinates

    def counted(self, L):
        calls.append(L)
        return original(self, L)

    monkeypatch.setattr(Chart, "coordinates", counted)
    N, n = 4, 2
    W = rational_subspaces(F4, N, N - n)[0]
    comps = [("H", H) for H in rational_subspaces(F4, N, N - 1) if H.contains(W)]
    comps += [("J", J) for J in rational_subspaces(F4, N, 1) if W.contains(J)]
    clean = _component_points(comps, toy_locus(F4, N, n))
    rng = random.Random(3)
    for _ in range(2):
        calls.clear()
        centers = SchubertCenters(F4, N, n, W)
        probed = []
        for comp in comps:
            for L0 in clean[comp][:3] * 2:
                assert schubert_multiplicity_probe(centers, L0, comp, rng) == 1
                probed.append(L0)
        distinct = set(probed)
        assert len(probed) > len(distinct) > 3
        assert len(calls) == len(distinct) and set(calls) == distinct
        assert set(centers.bases) == distinct


def test_adapted_centers_fill_lazily():
    W = echelonize(F4, [(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    L0 = echelonize(F4, [(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    centers = SchubertCenters(F4, 4, 2, W)
    chart, _ = schubert_adapted_chart(centers, L0)
    # the search stopped at the center it returned
    assert centers._found[-1][1] is chart
    total = len(rational_subspaces(F4, 4, 2))
    assert len(centers._found) < total
