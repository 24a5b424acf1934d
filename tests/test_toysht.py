from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from toyshtlab import linalg
from toyshtlab.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvalidFlagError,
    NotAToyShtukaError,
    TrivialPointError,
)
from toyshtlab.gf import field_make
from toyshtlab.linalg import (
    QuotientMap,
    echelonize,
    enumerate_grassmannian,
    gauss_binomial,
    intersect,
    perp,
    rational_subspaces,
)
from toyshtlab.toysht import (
    FlagPoint,
    _in_line,
    ToyPoint,
    dichotomy_check,
    enumerate_flags,
    enumerate_toysht,
    flags,
    horospherical_membership,
    is_toy_shtuka,
    is_trivial,
    partial_frobenius_minus,
    partial_frobenius_plus,
    split_nontrivial,
    toy_points,
)

from helpers import full_space, image_subspace, zero_subspace

F2 = field_make(2, 1, 1)
F4 = field_make(2, 1, 2)
F8 = field_make(2, 1, 3)
F9 = field_make(3, 1, 2)
F16 = field_make(2, 1, 4)
F3 = field_make(3, 1, 1)

# brute-force census over F_4, frozen: all 2-subspaces of F_4^4 passing the
# intersection condition, and the Frobenius-fixed ones among them
TOYSHT_4_2_F4_TOTAL = 245
TOYSHT_4_2_F4_NONTRIVIAL = 210


def nontrivial(F, N, n):
    """The nontrivial toy points, in enumeration order."""
    return [pt for pt in enumerate_toysht(F, N, n) if not is_trivial(pt.L)]


def test_rational_subspaces_are_toy_and_trivial():
    for L in rational_subspaces(F4, 4, 2):
        assert is_toy_shtuka(L)
        assert is_trivial(L)


def test_every_line_is_a_toy_shtuka():
    # dimension-one points impose no condition
    assert sum(1 for _ in enumerate_toysht(F4, 3, 1)) == gauss_binomial(3, 1, 4)
    assert sum(1 for _ in enumerate_toysht(F2, 3, 1)) == 7


def test_toy_condition_fails_somewhere():
    witnesses = [
        L
        for L in enumerate_grassmannian(F4, 4, 2)
        if not is_toy_shtuka(L)
    ]
    assert witnesses
    # such a subspace meets its twist in dimension zero
    from toyshtlab.linalg import intersect

    L = witnesses[0]
    assert intersect(L, L.frobenius_image()).dim == 0


def test_trivial_iff_rational():
    g = F4.generator
    assert is_trivial(echelonize(F4, [(1, 1, 0)], 3))
    assert not is_trivial(echelonize(F4, [(1, g)], 2))
    for L in enumerate_grassmannian(F2, 3, 2):
        assert is_trivial(L)


def test_census_fixture_n4_m2():
    pts = list(enumerate_toysht(F4, 4, 2))
    assert len(pts) == TOYSHT_4_2_F4_TOTAL
    nontrivial = [p for p in pts if not is_trivial(p.L)]
    assert len(nontrivial) == TOYSHT_4_2_F4_NONTRIVIAL
    trivial = {p.L for p in pts if is_trivial(p.L)}
    assert trivial == set(rational_subspaces(F4, 4, 2))


def test_census_against_stacked_rank_oracle():
    # independent route: L and its twist stacked as rows span at most n+1
    # dimensions exactly when the intersection has codimension at most one
    from toyshtlab.linalg import echelonize as ech

    count = 0
    for L in enumerate_grassmannian(F4, 4, 2):
        sL = L.frobenius_image()
        stacked = ech(F4, L.basis + sL.basis, 4)
        if stacked.dim <= 3:
            count += 1
            assert is_toy_shtuka(L)
        else:
            assert not is_toy_shtuka(L)
    assert count == TOYSHT_4_2_F4_TOTAL


def test_nontrivial_count_p1():
    pts = nontrivial(F4, 2, 1)
    assert len(pts) == 2  # lines of P^1(F_4) away from P^1(F_2)


@pytest.mark.parametrize("N,n", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_trivial_locus_is_rational_grassmannian(N, n):
    trivial = {
        p.L for p in enumerate_toysht(F4, N, n) if is_trivial(p.L)
    }
    rational = set(rational_subspaces(F4, N, n))
    assert trivial == rational
    assert len(trivial) == gauss_binomial(N, n, 2)


def test_toy_points_index_the_enumeration():
    pts = toy_points(F4, 3, 1)
    assert [p.L for p in pts] == [p.L for p in enumerate_toysht(F4, 3, 1)]
    # one tuple per field value, N and n
    assert toy_points(field_make(2, 1, 2, seed=1), 3, 1) is pts
    assert toy_points(F4, 3, 2) is not pts


def test_cached_toy_points_keep_the_budget():
    assert len(toy_points(F4, 3, 1)) == gauss_binomial(3, 1, 4) == 21
    with pytest.raises(BudgetExceededError):
        toy_points(F4, 3, 1, budget=20)
    with pytest.raises(DimensionMismatchError):
        toy_points(F4, 3, 4)


def test_degenerate_levels():
    assert is_toy_shtuka(zero_subspace(F4, 3))
    assert is_toy_shtuka(full_space(F4, 3))
    pts = list(enumerate_toysht(F4, 3, 0))
    assert len(pts) == 1
    assert not nontrivial(F4, 3, 0)
    assert not nontrivial(F4, 3, 3)


def test_split_nontrivial_dims_and_flags():
    for pt in nontrivial(F4, 3, 2):
        inter, total = split_nontrivial(pt)
        assert inter.dim == 1 and total.dim == 3
        left = FlagPoint(inter, pt.L, "left")
        left.validate()
        right = FlagPoint(pt.L, total, "right")
        right.validate()
    for pt in nontrivial(F4, 4, 2):
        inter, total = split_nontrivial(pt)
        assert (inter.dim, total.dim) == (1, 3)


def test_split_rejects_trivial():
    L = echelonize(F4, [(1, 0, 0), (0, 1, 0)], 3)
    with pytest.raises(TrivialPointError):
        split_nontrivial(ToyPoint(L))


def test_left_right_identification_is_a_bijection():
    # nontrivial left flags <-> nontrivial points <-> nontrivial right flags
    pts = {p.L for p in nontrivial(F4, 3, 2)}
    rights = [f for f in enumerate_flags(F4, 3, 2, "right") if not is_trivial(f.small)]
    lefts = [f for f in enumerate_flags(F4, 3, 2, "left") if not is_trivial(f.big)]
    assert {f.small for f in rights} == pts and len(rights) == len(pts)
    assert {f.big for f in lefts} == pts and len(lefts) == len(pts)


def test_partial_frobenius_roundtrips():
    for N in (2, 3):
        for n in range(0, N):
            for f in enumerate_flags(F4, N, n, "right"):
                assert partial_frobenius_minus(partial_frobenius_plus(f)) == f.frobenius_image()
        for n in range(1, N + 1):
            for f in enumerate_flags(F4, N, n, "left"):
                assert partial_frobenius_plus(partial_frobenius_minus(f)) == f.frobenius_image()


@pytest.mark.parametrize("kind,n", [("right", 3), ("right", -1), ("left", 0), ("left", 4)])
def test_enumerate_flags_rejects_a_level_without_flags(kind, n):
    # right flags need a cover of L, left flags a hyperplane of L: the error
    # names the kind and the caller's level, not an inner fiber's
    with pytest.raises(DimensionMismatchError, match=f"^{kind} flags need .*, got n={n}, N=3$"):
        next(enumerate_flags(F4, 3, n, kind))
    with pytest.raises(DimensionMismatchError, match=f"^{kind} flags need .*, got n={n}, N=3$"):
        flags(F4, 3, n, kind)
    with pytest.raises(InvalidFlagError, match="unknown kind 'up'"):
        flags(F4, 3, 1, "up")


@pytest.mark.parametrize("field,N", [(F2, 1), (F2, 2), (F2, 3), (F2, 4), (F4, 1), (F4, 2),
                                     (F4, 3), (F4, 4), (F9, 3)])
def test_flags_index_enumerate_flags(field, N):
    for kind, levels in (("right", range(0, N)), ("left", range(1, N + 1))):
        for n in levels:
            index = flags(field, N, n, kind)
            assert index == tuple(enumerate_flags(field, N, n, kind)), (kind, n)


def _budget_message(build):
    with pytest.raises(BudgetExceededError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("kind,n", [
    # the points: 21 lines or planes of F_4^3, each fiber at most 5
    ("right", 1), ("left", 2),
    # a fiber: one point, the zero space or F_4^3, over 21 lines or planes
    ("right", 0), ("left", 3),
])
def test_cached_flags_keep_the_budget(kind, n):
    # raised before and after the index is built, as the stream raises it
    expected = _budget_message(lambda: list(enumerate_flags(F4, 3, n, kind, 20)))
    assert _budget_message(lambda: flags(F4, 3, n, kind, 20)) == expected
    index = flags(F4, 3, n, kind)
    assert _budget_message(lambda: flags(F4, 3, n, kind, 20)) == expected
    assert flags(F4, 3, n, kind, 21) is index


def test_partial_frobenius_fixes_rational_flags():
    f = FlagPoint(
        echelonize(F4, [(1, 0, 0)], 3), echelonize(F4, [(1, 0, 0), (0, 1, 0)], 3), "right"
    )
    f.validate()
    out = partial_frobenius_plus(f)
    assert out.small == f.small and out.big == f.big and out.kind == "left"


def test_partial_frobenius_kind_errors():
    f = FlagPoint(
        echelonize(F4, [(1, 0, 0)], 3), echelonize(F4, [(1, 0, 0), (0, 1, 0)], 3), "right"
    )
    with pytest.raises(InvalidFlagError):
        partial_frobenius_minus(f)


def test_flag_validation_rejects_bad_pairs():
    small = echelonize(F4, [(1, 0, 0)], 3)
    big = echelonize(F4, [(0, 1, 0), (0, 0, 1)], 3)
    with pytest.raises(InvalidFlagError):
        FlagPoint(small, big, "right").validate()
    g = F4.generator
    small2 = echelonize(F4, [(1, g, 0)], 3)
    big2 = echelonize(F4, [(1, g, 0), (0, 0, 1)], 3)
    # sigma(small2) escapes big2
    with pytest.raises(InvalidFlagError):
        FlagPoint(small2, big2, "right").validate()


def test_duality_toy_iff_perp_toy():
    for N in (3, 4):
        for n in range(1, N):
            for L in enumerate_grassmannian(F4, N, n):
                assert is_toy_shtuka(L) == is_toy_shtuka(perp(L))


def test_dichotomy_trivial_cases():
    pt = nontrivial(F4, 3, 2)[0]
    flags = dichotomy_check(pt, zero_subspace(F4, 3))
    assert flags["sub_fixed"]
    flags = dichotomy_check(pt, full_space(F4, 3))
    assert flags["quot_fixed"]


def test_dichotomy_exhaustive_n3():
    subs = []
    for d in range(4):
        subs.extend(rational_subspaces(F4, 3, d))
    checked = 0
    for n in (1, 2):
        for pt in enumerate_toysht(F4, 3, n):
            for W in subs:
                dichotomy_check(pt, W)
                checked += 1
    assert checked == 21 * 16 * 2


def test_horospherical_membership_extremes():
    V = full_space(F4, 3)
    H_set, J_set = horospherical_membership(ToyPoint(V))
    assert not H_set and len(J_set) == 7
    J = echelonize(F4, [(1, 0, 0)], 3)
    H_set, J_set = horospherical_membership(ToyPoint(J))
    assert J_set == {J}
    assert len(H_set) == gauss_binomial(2, 1, 2)  # hyperplanes through a line


def test_deep_interior_nonempty():
    # over F_4 a rational functional kills every vector of F_4^3, so the
    # deep interior of the n=1 level first shows up over F_8
    F8 = field_make(2, 1, 3)
    flags = [
        not any(horospherical_membership(p))
        for p in nontrivial(F8, 3, 1)
    ]
    assert any(flags)  # generic points avoid all horospherical loci
    assert not all(flags)
    assert not any(
        not any(horospherical_membership(p))
        for p in nontrivial(F4, 3, 1)
    )


# --- rank forms against the subspace forms they replace ---------------------


def toy_by_intersection(L):
    return intersect(L, L.frobenius_image()).dim >= L.dim - 1


def dichotomy_by_subspaces(point, W):
    Lp = intersect(point.L, W)
    Lpp = image_subspace(QuotientMap(W), point.L)
    return {
        "sub_fixed": Lp.frobenius_image() == Lp,
        "quot_fixed": Lpp.frobenius_image() == Lpp,
    }


@pytest.mark.parametrize("field,N", [(F4, 4), (F9, 3)], ids=["F4^4", "F9^3"])
def test_rank_form_toy_predicate_exhaustive(field, N):
    for n in range(N + 1):
        for L in enumerate_grassmannian(field, N, n):
            assert is_toy_shtuka(L) == toy_by_intersection(L), L


@pytest.mark.parametrize("field", [F4, F9], ids=["F4", "F9"])
def test_rank_form_dichotomy_exhaustive_n3(field):
    rational = [
        W for d in range(4) for W in rational_subspaces(field, 3, d)
    ]
    for n in range(4):
        for pt in enumerate_toysht(field, 3, n):
            for W in rational:
                assert dichotomy_check(pt, W) == dichotomy_by_subspaces(pt, W), (pt.L, W)


def test_flag_is_cached_and_rejects_non_toy_points():
    pt = nontrivial(F4, 4, 2)[0]
    assert split_nontrivial(pt) is pt.flag
    assert pt.flag == (
        intersect(pt.L, pt.sigma_L),
        echelonize(F4, pt.L.basis + pt.sigma_L.basis, 4),
    )
    bad = next(L for L in enumerate_grassmannian(F4, 4, 2) if not is_toy_shtuka(L))
    with pytest.raises(NotAToyShtukaError):
        split_nontrivial(ToyPoint(bad))
    with pytest.raises(NotAToyShtukaError):
        dichotomy_check(ToyPoint(bad), zero_subspace(F4, 4))


def test_flag_is_one_elimination(monkeypatch):
    calls = []
    original = linalg.rref

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, "rref", counted)
    for L in enumerate_grassmannian(F4, 4, 2):
        calls.clear()
        try:
            ToyPoint(L).flag
        except NotAToyShtukaError:
            pass
        assert len(calls) == 1


@st.composite
def subspace_and_rational(draw):
    field = draw(st.sampled_from([F8, F16]))
    N = draw(st.integers(2, 5))
    elem = st.integers(0, field.order - 1)
    sub = st.sampled_from(field.subfield)
    rows = draw(st.lists(st.tuples(*[elem] * N), min_size=0, max_size=N))
    wrows = draw(st.lists(st.tuples(*[sub] * N), min_size=0, max_size=N))
    return echelonize(field, rows, N), echelonize(field, wrows, N)


@settings(max_examples=300, deadline=None)
@given(subspace_and_rational())
def test_rank_forms_on_random_bases(pair):
    L, W = pair
    toy = is_toy_shtuka(L)
    assert toy == toy_by_intersection(L)
    if toy:
        pt = ToyPoint(L)
        assert dichotomy_check(pt, W) == dichotomy_by_subspaces(pt, W)


def test_in_line_matches_the_multiplication_reference():
    # v is a multiple of l iff v = c l for some c, zero vectors included
    for field in (F3, F9):
        vectors = list(product(field.elements(), repeat=2))
        for v, l in product(vectors, repeat=2):
            expected = any(all(x == field.mul(c, y) for x, y in zip(v, l))
                           for c in field.elements())
            assert _in_line(field, v, l) == expected, (field, v, l)
