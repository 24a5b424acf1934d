import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from toyshtlab.errors import BudgetExceededError, DimensionMismatchError
from toyshtlab.gf import Field, field_make
from toyshtlab import linalg
from toyshtlab.linalg import (
    QuotientMap,
    combine,
    echelonize,
    enumerate_grassmannian,
    extend,
    gauss_binomial,
    intersect,
    perp,
    positions,
    rational_over,
    rational_subspaces,
    rational_under,
    rref,
    span_sum,
    sum_and_intersection,
    sum_rank,
)
from toyshtlab.toysht import _in_line

from helpers import full_space, image_subspace, zero_subspace

F2 = field_make(2, 1, 1)
F3 = field_make(3, 1, 1)
F4 = field_make(2, 1, 2)
F9 = field_make(3, 1, 2)


def random_vector(field, n, rng):
    return tuple(rng.randrange(field.order) for _ in range(n))


def test_echelonize_examples():
    assert echelonize(F2, [(0, 0, 0)], 3).dim == 0
    assert echelonize(F2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3).dim == 2
    assert echelonize(F2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3) == full_space(F2, 3)


def test_echelonize_idempotent_and_dimension_check():
    S = echelonize(F3, [(1, 2, 0, 1), (2, 1, 1, 0)], 4)
    assert echelonize(F3, S.basis, 4) == S
    with pytest.raises(DimensionMismatchError):
        echelonize(F3, [(1, 2)], 3)


def test_canonical_form_uniqueness_1000_random_generating_sets():
    rng = random.Random(42)
    S = echelonize(F3, [(1, 0, 2, 1), (0, 1, 1, 2)], 4)
    base = list(S.basis)
    for _ in range(1000):
        rows = []
        for _ in range(rng.randrange(2, 5)):
            v = [0, 0, 0, 0]
            for row in base:
                c = rng.randrange(3)
                for j in range(4):
                    v[j] = F3.add(v[j], F3.mul(c, row[j]))
            rows.append(tuple(v))
        T = echelonize(F3, rows, 4)
        if T.dim == S.dim:
            assert T.basis == S.basis
        else:
            assert S.contains(T)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([F2, F4, F3, F9, field_make(5, 1, 1)]), st.data())
def test_combine_is_a_fold_of_add_and_mul(field, data):
    width = data.draw(st.integers(0, 5))
    elem = st.integers(0, field.order - 1)
    rows = data.draw(st.lists(st.tuples(*[elem] * width), max_size=4))
    coeffs = data.draw(st.tuples(*[elem] * len(rows)))
    expected = [0] * width
    for c, row in zip(coeffs, rows):
        expected = [field.add(x, field.mul(c, y)) for x, y in zip(expected, row)]
    assert combine(field, coeffs, rows, width) == tuple(expected)


@pytest.mark.parametrize("field", [F4, F9])
def test_extend_takes_each_vector_that_leaves_the_span(field):
    rng = random.Random(3)
    for _ in range(100):
        N = rng.randrange(1, 5)
        S = echelonize(field, [random_vector(field, N, rng) for _ in range(rng.randrange(N))], N)
        candidates = [random_vector(field, N, rng) for _ in range(rng.randrange(6))]
        if rng.random() < 0.5:  # a candidate already inside S
            inside = combine(field, [1] * S.dim, S.basis, N)
            candidates.insert(rng.randrange(len(candidates) + 1), inside)
        taken = extend(S, candidates)
        span = S
        for v in taken:
            assert not span.contains_vector(v)
            span = echelonize(field, span.basis + (v,), N)
        assert span == echelonize(field, S.basis + tuple(candidates), N)
        # the taken vectors are candidates, in candidate order
        rest = iter(candidates)
        assert all(v in rest for v in taken)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(F3, F9), (F2, F4)]), st.integers(1, 4), st.data())
def test_subspaces_compare_by_field(fields, N, data):
    # one basis tuple over F_q and over F_(q^2) spans two subspaces: they
    # hash alike but stay two entries of a set or a dict
    small, big = fields
    elem = st.integers(0, small.order - 1)
    rows = data.draw(st.lists(st.tuples(*[elem] * N), max_size=N))
    S, B = echelonize(small, rows, N), echelonize(big, rows, N)
    assert S.basis == B.basis and hash(S) == hash(B)
    assert S != B and not S == B
    assert len({S, B}) == 2 and len({S: 0, B: 1}) == 2
    # a field of equal value, built separately, still matches
    again = echelonize(Field(small.p, small.e, small.m), rows, N)
    assert again.field is not small and again == S and hash(again) == hash(S)
    assert len({S, again}) == 1


def test_sum_intersect_trivial_cases():
    a = echelonize(F2, [(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    b = echelonize(F2, [(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    assert span_sum(a, a) == a and intersect(a, a) == a
    assert span_sum(a, b) == full_space(F2, 4)
    assert intersect(a, b) == zero_subspace(F2, 4)


def draw_subspace(data, field, N):
    """The zero space, the whole space, or the span of up to N + 1 drawn rows
    with entries in F or in F_q, so rational subspaces come up often."""
    kind = data.draw(st.sampled_from(("zero", "whole", "span")))
    if kind == "zero":
        return zero_subspace(field, N)
    if kind == "whole":
        return full_space(field, N)
    elem = st.sampled_from(data.draw(st.sampled_from((field.elements(), field.subfield))))
    return echelonize(field, data.draw(st.lists(st.tuples(*[elem] * N), max_size=N + 1)), N)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([F4, F9]), st.integers(0, 4), st.data())
def test_span_sum_is_the_echelon_form_of_the_stacked_bases(field, N, data):
    # zero-space and whole-space summands are drawn on both sides; span_sum
    # returns such a summand's partner, or the whole space, as it is
    a, b = draw_subspace(data, field, N), draw_subspace(data, field, N)
    total = span_sum(a, b)
    expected = echelonize(field, a.basis + b.basis, N)
    assert total == expected and total.pivots == expected.pivots
    if not a.basis or b.dim == N:
        assert total is b
    elif not b.basis or a.dim == N:
        assert total is a


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([F4, F9]), st.integers(0, 4), st.data())
def test_frobenius_image_is_entrywise_and_fixes_exactly_the_rational_subspaces(
    field, N, data
):
    S = draw_subspace(data, field, N)
    image = S.frobenius_image()
    frob = tuple(tuple(field.frobenius(x) for x in row) for row in S.basis)
    assert image.basis == frob and image.pivots == S.pivots
    assert (image is S) == (S in rational_subspaces(field, N, S.dim))


def test_modular_law_against_span_enumeration():
    rng = random.Random(7)
    for _ in range(30):
        a = echelonize(F3, [random_vector(F3, 4, rng) for _ in range(2)], 4)
        b = echelonize(F3, [random_vector(F3, 4, rng) for _ in range(2)], 4)
        assert a.dim + b.dim == span_sum(a, b).dim + intersect(a, b).dim
        # brute-force oracle: intersection as the set of common vectors
        union = set(a.vectors()) & set(b.vectors())
        assert len(union) == 3 ** intersect(a, b).dim


def test_perp_involution_and_dims():
    for S in enumerate_grassmannian(F4, 4, 2):
        P = perp(S)
        assert P.dim == 2
        assert perp(P) == S
        for v in S.basis:
            for w in P.basis:
                acc = 0
                for x, y in zip(v, w):
                    acc = F4.add(acc, F4.mul(x, y))
                assert acc == 0


def test_perp_inclusion_reversing_bijection_exhaustive():
    # duality between dimensions n and N-n over F_2^4
    all_subs = []
    for n in range(5):
        all_subs.extend(enumerate_grassmannian(F2, 4, n))
    images = [perp(S) for S in all_subs]
    assert len(set(images)) == len(all_subs)
    for a in all_subs:
        for b in all_subs:
            if a.contains(b):
                assert perp(b).contains(perp(a))


def test_gauss_binomial_values():
    assert gauss_binomial(4, 0, 2) == 1
    assert gauss_binomial(4, 2, 2) == 35
    assert gauss_binomial(3, 1, 3) == 13
    assert gauss_binomial(5, 2, 9) == gauss_binomial(5, 3, 9) == 605242
    # a level with one subspace is counted with no factor
    assert gauss_binomial(10**6, 0, 2) == gauss_binomial(10**6, 10**6, 2) == 1


@pytest.mark.parametrize("q_field,m", [(F2, 1), (F4, 2), (F3, 1), (F9, 2)])
def test_grassmannian_counts_match_gauss_binomial(q_field, m):
    base = q_field.order
    for N in range(1, 6):
        for n in range(N + 1):
            count = sum(1 for _ in enumerate_grassmannian(q_field, N, n))
            assert count == gauss_binomial(N, n, base)


def test_grassmannian_examples():
    assert sum(1 for _ in enumerate_grassmannian(F2, 2, 1)) == 3
    assert sum(1 for _ in enumerate_grassmannian(F2, 4, 2)) == 35
    full = list(enumerate_grassmannian(F9, 3, 3))
    assert full == [full_space(F9, 3)]


def test_grassmannian_unique_and_canonical():
    seen = set()
    for S in enumerate_grassmannian(F4, 3, 1):
        assert S not in seen
        seen.add(S)
        assert echelonize(F4, S.basis, 3) == S
    assert len(seen) == gauss_binomial(3, 1, 4)


def test_grassmannian_order_pivot_major():
    # pivot sets appear in combination order; within one pivot set the free
    # entries sweep in element order, so output is reproducible
    pivot_runs = []
    for S in enumerate_grassmannian(F2, 4, 2):
        if not pivot_runs or pivot_runs[-1] != S.pivots:
            pivot_runs.append(S.pivots)
    from itertools import combinations

    assert pivot_runs == list(combinations(range(4), 2))
    first = list(enumerate_grassmannian(F4, 3, 1))
    again = list(enumerate_grassmannian(F4, 3, 1))
    assert first == again


def test_grassmannian_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_grassmannian(F9, 5, 2, budget=1000))


def test_library_default_budget_is_the_command_line_default():
    # the 2**21 - 1 lines of F_2^21 exceed the one default budget of 2**20
    with pytest.raises(BudgetExceededError):
        next(enumerate_grassmannian(field_make(2, 1, 1), 21, 1))


def test_subfield_enumeration_is_frobenius_fixed_locus():
    # the index holds the Frobenius-fixed subspaces in enumeration order
    F8 = field_make(2, 1, 3)
    for field, N in ((F2, 5), (F4, 3), (F4, 4), (F8, 3), (F9, 3)):
        for d in range(N + 1):
            rational = rational_subspaces(field, N, d)
            fixed = tuple(S for S in enumerate_grassmannian(field, N, d) if S.is_rational())
            assert rational == fixed, (field, N, d)
            assert len(rational) == gauss_binomial(N, d, field.q)


def test_rational_subspaces_shared_per_field_value():
    a = rational_subspaces(F4, 4, 2)
    assert rational_subspaces(Field(2, 1, 2), 4, 2) is a
    assert rational_subspaces(F4, 4, 1) is not a
    # the budget still binds an index that is already built
    with pytest.raises(BudgetExceededError, match="35 subspaces exceeds budget 34"):
        rational_subspaces(F4, 4, 2, budget=34)
    assert rational_subspaces(F4, 4, 2, budget=35) is a
    with pytest.raises(DimensionMismatchError):
        rational_subspaces(F4, 4, 5)


@pytest.mark.parametrize("field,N", [pytest.param(F4, 3, id="F4^3"),
                                     pytest.param(F4, 4, id="F4^4"),
                                     pytest.param(F9, 3, id="F9^3"),
                                     pytest.param(F3, 4, id="F3^4")])
def test_rational_incidence_matches_containment_loops(field, N):
    # point sets (F_4) and the rank path (odd p), every subspace X of F^N
    # (0 and F^N among them) against every d in 0..N.  The oracle reads
    # containment off the span of the stacked bases, not off contains
    for n in range(N + 1):
        for X in enumerate_grassmannian(field, N, n):
            for d in range(N + 1):
                subs = rational_subspaces(field, N, d)
                over, under = rational_over(X, d), rational_under(X, d)
                assert over < 1 << len(subs) and under < 1 << len(subs)
                assert positions(over) == [k for k, S in enumerate(subs)
                                           if span_sum(S, X).dim == S.dim]
                assert positions(under) == [k for k, S in enumerate(subs)
                                            if span_sum(S, X).dim == X.dim]


def test_rational_incidence_has_one_entry_per_value():
    # equal subspaces built separately share an entry; the same basis over
    # F_3 and over F_9 are two values, so two entries
    rows = [(1, 2, 0), (0, 0, 1)]
    A, B = echelonize(F3, rows, 3), echelonize(Field(3, 1, 1), [(2, 1, 0), (0, 0, 2)], 3)
    assert A is not B and A == B
    for query in (rational_over, rational_under):
        assert query(A, 1) == query(B, 1)
        assert query.cache_info().currsize == 1
        query(echelonize(F9, rows, 3), 1)
        assert query.cache_info().currsize == 2


def test_graph_chart_induced_map_full_rank():
    # the graph of any matrix in the chart complementary to W surjects onto V/W
    W = echelonize(F4, [(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    g = F4.generator
    L = echelonize(F4, [(1, 0, g, 1), (0, 1, 0, g)], 4)
    assert image_subspace(QuotientMap(W), L).dim == 2


def test_relative_position_rank_identities_exhaustive():
    # equal ranks of the two maps into the quotients, and the joint-span
    # formula, over every pair of equal-dimensional subspaces of F_2^4
    V = full_space(F2, 4)
    for n in (1, 2, 3):
        subs = list(enumerate_grassmannian(F2, 4, n))
        for a in subs:
            for b in subs:
                r1 = image_subspace(QuotientMap(b), a).dim
                r2 = image_subspace(QuotientMap(a), b).dim
                joint = span_sum(a, b).dim
                assert r1 == r2 == joint - a.dim
                assert V.contains(a)


def _reference_intersect(a, b):
    # the four-elimination formula by annihilators, kept as an oracle
    return perp(span_sum(perp(a), perp(b)))


@pytest.mark.parametrize("field,N", [(F2, 4), (F4, 3), (F3, 3)])
def test_sum_and_intersection_match_annihilator_formula_exhaustive(field, N):
    subs = [S for n in range(N + 1) for S in enumerate_grassmannian(field, N, n)]
    for a in subs:
        for b in subs:
            total, inter = sum_and_intersection(a, b)
            assert inter == intersect(a, b) == _reference_intersect(a, b)
            assert total == span_sum(a, b) == perp(_reference_intersect(perp(a), perp(b)))
            # both halves come out canonical: equal bases and pivots
            for S, ref in ((total, span_sum(a, b)), (inter, _reference_intersect(a, b))):
                assert (S.basis, S.pivots) == (ref.basis, ref.pivots)
            assert total.dim == sum_rank(a, b) == a.dim + b.dim - inter.dim


def test_intersect_is_one_elimination(monkeypatch):
    g = F4.generator
    a = echelonize(F4, [(1, 0, g, 1), (0, 1, 0, g)], 4)
    b = echelonize(F4, [(1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 1, 0)], 4)
    calls = []
    original = linalg.rref

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, "rref", counted)
    assert intersect(a, b).dim == 1
    assert len(calls) == 1


def test_sum_rank_rejects_mismatched_ambients():
    line = echelonize(F2, [(1, 0, 0)], 3)
    plane = echelonize(F2, [(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    for op in (sum_rank, span_sum, sum_and_intersection, intersect):
        with pytest.raises(DimensionMismatchError):
            op(line, plane)
        with pytest.raises(DimensionMismatchError):
            op(plane, line)


# --- ranks against sympy over prime fields ----------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ranks_match_sympy(p):
    # F_p encodes its elements as residues, so sympy's GF(p) reads them as is;
    # the shapes are those of the one-elimination paths: M + W, then one and
    # two more rows decided by reduce and the line test, and M + L0 square
    field, K = field_make(p, 1, 1), GF(p)
    rng = random.Random(p)

    def rows_of(k, N):
        rows = [tuple(rng.randrange(p) for _ in range(N)) for _ in range(k)]
        if k >= 3 and rng.random() < 0.5:  # a dependent row
            a, b = rng.randrange(p), rng.randrange(p)
            rows[-1] = tuple((a * x + b * y) % p for x, y in zip(rows[0], rows[1]))
        return rows

    def sympy_rank(rows, N):
        return DomainMatrix([[K(x) for x in r] for r in rows], (len(rows), N), K).rank()

    def rref_rank(rows, N):
        return len(rref(field, rows, N)[0])

    for _ in range(200):
        N = rng.randrange(2, 7)
        M, W = rows_of(rng.randrange(N), N), rows_of(rng.randrange(N + 1), N)
        l, s = rows_of(1, N)[0], rows_of(1, N)[0]
        if rng.random() < 0.3:  # s on the line through l, or l inside M + W
            c = rng.randrange(p)
            s = tuple(c * x % p for x in l)
        if M and rng.random() < 0.3:
            l = M[0]
        square = rows_of(N, N)
        for rows in (M + W, M + W + [l], M + W + [l, s], square):
            assert rref_rank(rows, N) == sympy_rank(rows, N), rows
        MW = span_sum(echelonize(field, M, N), echelonize(field, W, N))
        assert MW.dim == sum_rank(echelonize(field, M, N), echelonize(field, W, N))
        assert MW.dim == sympy_rank(M + W, N)
        lr, sr = MW.reduce(l), MW.reduce(s)
        assert MW.dim + any(lr) == sympy_rank(M + W + [l], N)
        assert MW.dim + any(lr) + (not _in_line(field, sr, lr)) == sympy_rank(M + W + [l, s], N)


def test_row_operations_make_no_per_entry_field_calls(monkeypatch):
    """rref, reduce, combine and pairing go through the table kernels: in odd
    characteristic not one Field.add or Field.mul is called."""
    F27 = field_make(3, 1, 3)
    rng = random.Random(24)
    mat = [tuple(rng.randrange(F27.order) for _ in range(7)) for _ in range(5)]
    calls = []
    for name in ("add", "mul"):
        method = getattr(Field, name)
        monkeypatch.setattr(Field, name, lambda self, a, b, method=method, name=name: (
            calls.append(name), method(self, a, b))[1])
    rows, pivots = rref(F27, mat, 7)
    S = linalg.Subspace(F27, 7, rows, pivots)
    v = combine(F27, (2, 5, 1, 0, 7), mat, 7)
    assert S.contains_vector(v) and S.reduce(v) == (0,) * 7
    linalg.pairing(F27, mat[0], mat[1])
    assert calls == []
    F27.add(1, 1)  # the counter is live
    assert calls == ["add"]
    assert len(pivots) == 5
    assert all(r[p] == 1 and all(o[p] == 0 for o in rows if o is not r)
               for r, p in zip(rows, pivots))
