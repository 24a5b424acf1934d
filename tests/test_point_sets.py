"""The point-set kernel against the rank formulas it replaces: containment,
intersection dimensions, the toy predicate, the dichotomy and the chart's
toy matrices (also on a space without point sets), exhaustively on small spaces
and by hypothesis over F_8 and F_16;
and the packed tables' cache, keyed by field value and never built for odd p."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from helpers import edited
from toyshtlab import charts, cli, linalg, toysht
from toyshtlab.charts import _toy_matrices, canonical_chart, chart_equivalence_check
from toyshtlab.gf import Field, field_make
from toyshtlab.linalg import (
    POINT_SET_MAX,
    echelonize,
    enumerate_grassmannian,
    intersection_dim,
    packing,
    rational_subspaces,
    sum_rank,
)
from toyshtlab.toysht import (
    ToyPoint,
    dichotomy_by_rank,
    enumerate_toysht,
    is_toy_shtuka,
    is_toy_shtuka_by_rank,
)

F2 = field_make(2, 1, 1)
F3 = field_make(3, 1, 1)
F4 = field_make(2, 1, 2)
F8 = field_make(2, 1, 3)
F9 = field_make(3, 1, 2)
F16 = field_make(2, 1, 4)


def all_subspaces(F, N):
    return [S for n in range(N + 1) for S in enumerate_grassmannian(F, N, n)]


def all_rational(F, N):
    return [W for n in range(N + 1) for W in rational_subspaces(F, N, n)]


def assert_pair_matches_ranks(a, b):
    joint = sum_rank(a, b)
    assert a.contains(b) == (joint == a.dim)
    assert b.contains(a) == (joint == b.dim)
    assert intersection_dim(a, b) == a.dim + b.dim - joint


def test_kernel_matches_ranks_on_every_pair():
    for F, N in ((F2, 4), (F4, 3)):
        assert packing(F, N) is not None
        subs = all_subspaces(F, N)
        for a in subs:
            assert a.points().bit_count() == F.order**a.dim
            assert is_toy_shtuka(a) == is_toy_shtuka_by_rank(a)
            for b in subs:
                assert_pair_matches_ranks(a, b)


@pytest.mark.parametrize("F,N,pairs", [
    (F2, 4, 4355), (F4, 3, 672), (F4, 4, 27805), (F9, 3, 5096),
], ids=["F2^4", "F4^3", "F4^4", "F9^3"])
def test_dichotomy_matches_ranks_exhaustive(F, N, pairs):
    # the flags of each level's one call, on point sets or (F_9) by rank,
    # against the per-pair oracle on a fresh point, for every (point,
    # center) pair
    subs = all_rational(F, N)
    count = 0
    for n in range(1, N):
        points = list(enumerate_toysht(F, N, n))
        for pt, flags in zip(points, toysht.dichotomy_check(points, subs), strict=True):
            assert flags == [dichotomy_by_rank(ToyPoint(pt.L), W) for W in subs]
            assert all(map(any, flags))
            count += len(flags)
    assert count == pairs


def test_a_memo_keyed_by_the_center_alone_fails_the_exhaustive_dichotomy(monkeypatch):
    # negative control: M + W kept per W alone serves the sums of the first
    # M met to the points of every other M of a level
    monkeypatch.setattr(toysht, "dichotomy_check", edited(
        toysht, "dichotomy_check", "for MW in sums[M]", "for MW in next(iter(sums.values()))"))
    with pytest.raises(AssertionError):
        test_dichotomy_matches_ranks_exhaustive(F9, 3, 5096)


def test_chart_predicate_matches_ranks_exhaustive():
    # every chart and matrix of the F_4, N = 4, n = 2 chart_equivalence sweep,
    # whose charts all read one toy-locus index
    N, n = 4, 2
    verdicts = 0
    for W in rational_subspaces(F4, N, N - n):
        chart = canonical_chart(F4, W)
        toy = _toy_matrices(F4, N, n, chart)
        for flat in product(range(F4.order), repeat=n * (N - n)):
            A = (flat[:2], flat[2:])
            assert (A in toy) == is_toy_shtuka_by_rank(chart.graph(A))
            verdicts += 1
    assert verdicts == 8960


def test_chart_predicate_without_point_sets_matches_ranks():
    # F_9, N = 4, n = 2 has no point sets, so the chart's toy matrices are
    # the coordinates of the toy-locus index points; one chart, all 6,561
    # matrices, against both the graphs found among the index subspaces
    # and the rank form
    N, n = 4, 2
    assert packing(F9, N) is None
    chart = canonical_chart(F9, rational_subspaces(F9, N, N - n)[0])
    toy = _toy_matrices(F9, N, n, chart)
    index = {pt.L for pt in enumerate_toysht(F9, N, n)}
    by_graph = set()
    checked = 0
    for A in product(product(range(F9.order), repeat=N - n), repeat=n):
        graph = chart.graph(A)
        if graph in index:
            by_graph.add(A)
        assert (A in toy) == is_toy_shtuka_by_rank(graph)
        checked += 1
    assert checked == 6561
    assert toy == by_graph and len(toy) == 2673
    assert chart_equivalence_check(F9, N, n, [chart]) == [
        {"checked": 6561, "counterexamples": []}]


def test_a_coset_kernel_reading_the_next_coset_fails_the_chart_check(monkeypatch):
    # the point-set kernel reading row i off coset i + 1 (the last row off
    # its own) fails the F_4, N = 4, n = 2 sweep with 5,040 mismatches, and
    # no witness replays, as the replay decides by rank.  A cyclic shift
    # would only permute the rows, which maps the toy matrices and the cone
    # each to itself, so no check could see it.
    monkeypatch.setattr(charts, "_toy_matrices", edited(
        charts, "_toy_matrices", "for C, row in cosets)", "for C, row in cosets[1:] + cosets[-1:])"))
    r = cli.run(cli.CheckSpec("chart_equivalence", {"p": 2, "e": 1, "m": 2, "N": 4, "n": 2}))
    assert r.verdict == "fail"
    witnesses = r.counters["witnesses"]
    assert len(witnesses) == 5040 and {w["kind"] for w in witnesses} == {"chart_mismatch"}
    assert not any(map(cli.replay_witness, witnesses))


# F_8^2, the largest space over F_8 with point sets, and F_16^2, at the bound
SPACES = [(F8, 2), (F16, 2)]


@st.composite
def space_and_rows(draw):
    F, N = draw(st.sampled_from(SPACES))
    rows = st.lists(st.tuples(*[st.integers(0, F.order - 1)] * N), max_size=N)
    return F, N, draw(rows), draw(rows)


@settings(max_examples=60, deadline=None)
@given(space_and_rows())
def test_kernel_matches_ranks_at_the_bound(drawn):
    F, N, rows_a, rows_b = drawn
    assert F.order**N <= POINT_SET_MAX and packing(F, N + 1) is None
    a, b = (echelonize(F, rows, N) for rows in (rows_a, rows_b))
    assert a.points().bit_count() == F.order**a.dim
    assert is_toy_shtuka(a) == is_toy_shtuka_by_rank(a)
    assert_pair_matches_ranks(a, b)


def test_bound_is_a_space_with_point_sets():
    assert F16.order**2 == POINT_SET_MAX and packing(F16, 2) is not None


def test_packings_are_keyed_by_field_value():
    # equal fields built separately share one table
    assert packing(Field(2, 1, 2, seed=0), 3) is packing(F4, 3)
    # F_4 has one modulus, so another seed is the same field value
    assert packing(Field(2, 1, 2, seed=1), 3) is packing(F4, 3)
    # F_4 as a degree-one extension of itself is another value
    F4_over_F4 = Field(2, 2, 1)
    assert F4_over_F4.modulus == F4.modulus
    assert packing(F4_over_F4, 3) is not packing(F4, 3)
    # another modulus of F_8 gets its own table, with other products
    other = Field(2, 1, 3, seed=4)
    assert other.modulus != F8.modulus
    mine, theirs = packing(F8, 2), packing(other, 2)
    assert mine is not theirs and mine.multiples != theirs.multiples
    assert packing(F8, 2) is mine and packing(F8, 1) is not mine


def test_odd_characteristic_builds_no_point_sets(monkeypatch):
    # every Packing built during the test, by field and N
    built, original = [], linalg.Packing
    monkeypatch.setattr(linalg, "Packing", lambda F, N: built.append((F, N)) or original(F, N))
    for F in (F3, F9):
        assert packing(F, 3) is None
        subs = all_subspaces(F, 3) if F is F3 else all_rational(F, 3)
        for a in subs:
            assert a.points() is None
            assert_pair_matches_ranks(a, subs[-1])
    r = cli.run(cli.CheckSpec("dichotomy", {"p": 3, "e": 1, "m": 2, "N": 3}))
    assert r.verdict == "pass"
    assert built == []
