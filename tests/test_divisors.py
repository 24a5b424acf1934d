import functools
import random
from array import array
from fractions import Fraction
from operator import itemgetter

import pytest

from helpers import brute_force_incidence
from toyshtlab import charts, divisors
from toyshtlab.charts import jtype_flag_pullback_probe
from toyshtlab.divisors import (
    Family,
    HoroDivisor,
    SINGER_MIN_LINES,
    _gather,
    _pullback_components,
    fraction,
    incidence_lists,
    incidence_sums,
    is_principal_pair,
    line_family,
    line_keys,
    line_values,
    on_component,
    partial_frobenius_divisor_pullback_check,
    radon_backward,
    radon_forward,
    schubert_decomposition_check,
    schubert_deficit,
    singer_sums,
    singer_table,
    singer_words,
    toy_locus,
    zero_sum_draw,
)
from toyshtlab.errors import DimensionMismatchError, SumNotZeroError
from toyshtlab.gf import Field, field_make
from toyshtlab.linalg import echelonize, gauss_binomial, intersect, perp, rational_subspaces
from toyshtlab.toysht import (
    FlagPoint,
    enumerate_flags,
    enumerate_toysht,
    horospherical_membership,
)

F2 = field_make(2, 1, 1)
F3 = field_make(3, 1, 1)
F4 = field_make(2, 1, 2)


def _hyperplanes_through_counts(field, N):
    inc = incidence_lists(field, N)
    counts = dict.fromkeys(inc, 0)
    for perp_lines in inc.values():
        for jk in perp_lines:
            counts[jk] += 1
    return counts


def test_incidence_structure_pg22():
    inc = incidence_lists(F2, 3)
    assert all(len(v) == 3 for v in inc.values())
    assert all(c == 3 for c in _hyperplanes_through_counts(F2, 3).values())


def test_incidence_counts_match_gauss_binomial():
    for field, N in ((F2, 4), (F3, 3)):
        expected = gauss_binomial(N - 1, N - 2, field.q)
        counts = _hyperplanes_through_counts(field, N)
        assert all(c == expected for c in counts.values())


@pytest.mark.parametrize(
    "field", [F2, F3, F4, field_make(3, 2, 1)], ids=["F2", "F3", "F4", "F9"]
)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_incidence_lists_match_pairing_double_loop(field, d):
    keys = [L.basis[0] for L in rational_subspaces(field, d, 1)]

    def pairing(a, b):
        acc = 0
        for x, y in zip(a, b):
            acc = field.add(acc, field.mul(x, y))
        return acc

    expected = {hk: [jk for jk in keys if pairing(hk, jk) == 0] for hk in keys}
    inc = incidence_lists(field, d)
    assert list(inc) == keys == line_keys(field, d)
    assert inc == expected


# F_2 with N <= 6, F_3 with N <= 5, q = 4 and q = 9 with N = 3
SYMMETRIC_CASES = ([(F2, N) for N in range(2, 7)] + [(F3, N) for N in range(2, 6)]
                   + [(F4, 3), (field_make(3, 2, 1), 3)])


@pytest.mark.parametrize("field,N", SYMMETRIC_CASES,
                         ids=[f"q{f.order}-N{N}" for f, N in SYMMETRIC_CASES])
def test_symmetric_incidence_build_matches_brute_force(field, N):
    inc = incidence_lists(field, N)
    expected = brute_force_incidence(field, N)
    assert list(inc) == list(expected)
    assert inc == expected


# F_2 with N <= 7, F_3 with N <= 5, q = 4, 5 and 9 (e = 2) with N = 2, 3, and
# F_4 as m = 2 over F_2 (rational lines) with N = 4
KERNEL_CASES = ([(F2, N) for N in range(1, 8)] + [(F3, N) for N in range(1, 6)]
                + [(f, N) for f in (field_make(2, 2, 1), field_make(5, 1, 1),
                                    field_make(3, 2, 1)) for N in (2, 3)]
                + [(F4, 4)])
KERNEL_IDS = [f"q{f.q}-m{f.m}-N{N}" for f, N in KERNEL_CASES]
# numerators up to these magnitudes need 16-, 32- and 64-bit slots, and the
# last no slot at all
MAGNITUDES = [9, 2**12, 2**28, 2**60, 10**30]


def _brute_force_sums(field, N, nums):
    keys = line_keys(field, N)
    at = dict(zip(keys, nums))
    return tuple(sum(at[jk] for jk in perp_lines)
                 for perp_lines in brute_force_incidence(field, N).values())


def _slot_width(table, nums):
    """The slot rule: the narrowest width w with |D| * (max - min) < 2**w."""
    spread = len(table.diffs) * (max(nums) - min(nums))
    return next((w for w, _, _ in table.words if spread < 1 << w), None)


def _kernel_inputs(field, N):
    """Per magnitude, numerators of both signs on the line keys."""
    rng = random.Random(field.order * 10 + N)
    n = len(line_keys(field, N))
    return [[rng.randint(-mag, mag) for _ in range(n)] for mag in MAGNITUDES]


@pytest.mark.parametrize("field,N", KERNEL_CASES, ids=KERNEL_IDS)
def test_incidence_sums_match_the_gather_and_brute_force(field, N):
    table = singer_table(field, N)
    n = len(table.keys)
    # the rows read off D are the pairing's incidence, in key order
    inc = brute_force_incidence(field, N)
    assert list(table.keys) == list(inc) == line_keys(field, N)
    assert incidence_lists(field, N) is table.incidence
    assert table.incidence == inc
    assert table.pos == {k: i for i, k in enumerate(table.keys)}
    # Singer order is an order of the keys, j -> H_j a bijection onto them
    assert sorted(table.lines) == sorted(table.normals) == list(range(n))
    assert len(table.diffs) == gauss_binomial(N - 1, 1, field.q)
    for nums in _kernel_inputs(field, N):
        expected = _brute_force_sums(field, N, nums)
        assert tuple(sum(g(nums)) for g in table.getters) == expected
        assert tuple(incidence_sums(field, N, nums)) == expected
        got = singer_sums(table, nums)
        if _slot_width(table, nums) is None:
            assert got is None
        else:
            assert tuple(got) == expected


def test_singer_sums_pack_into_the_narrowest_slot_width(monkeypatch):
    codes = []
    monkeypatch.setattr(divisors, "array",
                        lambda code, init: codes.append(code) or array(code, init))
    seen = set()
    for field, N in KERNEL_CASES:
        table = singer_table(field, N)
        typecode = {w: code for w, code, _ in table.words}
        for nums in _kernel_inputs(field, N):
            codes.clear()
            w = _slot_width(table, nums)
            singer_sums(table, nums)
            # packed and unpacked at width w, or not packed at all
            assert codes == ([] if w is None else [typecode[w]] * 2)
            seen.add(w)
    assert seen == {16, 32, 64, None}


@pytest.mark.parametrize("field,N", [(F2, 4), (F4, 4), (F2, 5), (F3, 4)],
                         ids=["q2-N4", "q2-m2-N4", "q2-N5", "q3-N4"])
def test_incidence_sums_correlate_from_the_crossover_on(field, N, monkeypatch):
    # the path is chosen from the number of lines and the range alone
    calls = []
    monkeypatch.setattr(divisors, "singer_sums",
                        lambda *args: calls.append(args) or singer_sums(*args))
    small, _, _, _, wide = _kernel_inputs(field, N)
    for nums in (small, wide):
        assert tuple(incidence_sums(field, N, nums)) == _brute_force_sums(field, N, nums)
    singer = len(line_keys(field, N)) >= SINGER_MIN_LINES
    assert len(calls) == (2 if singer else 0)


@pytest.mark.parametrize("field,N", [(F2, 3), (F2, 5), (F3, 4), (field_make(3, 2, 1), 3)],
                         ids=["q2-N3", "q2-N5", "q3-N4", "q9-N3"])
def test_singer_sums_catch_a_rotated_difference_set_and_a_skipped_fold(field, N, monkeypatch):
    # negative controls: the brute-force comparison fails for a wrong kernel
    table = singer_table(field, N)
    n = len(table.lines)
    nums = _kernel_inputs(field, N)[0]
    expected = _brute_force_sums(field, N, nums)
    assert singer_sums(table, nums) == expected
    rotated = tuple(sorted((d + 1) % n for d in table.diffs))
    bad = table._replace(diffs=rotated, words=singer_words(rotated, n))
    assert singer_sums(bad, nums) != expected
    monkeypatch.setattr(divisors, "_fold", lambda x, bits: x & ((1 << bits) - 1))
    assert singer_sums(table, nums) != expected


def test_incidence_build_reads_every_coordinate(monkeypatch):
    # negative control: a pairing that drops the last coordinate, in the
    # walk of S^T that places the hyperplanes, must be caught: the build
    # raises or its lists differ from the brute force
    dot = Field.dot
    monkeypatch.setattr(Field, "dot", lambda self, a, b: dot(self, a[:-1], b[:-1]))
    try:
        for field, N in ((F2, 4), (F3, 3)):
            singer_table.cache_clear()
            try:
                inc = incidence_lists(field, N)
            except ValueError:
                continue
            assert inc != brute_force_incidence(field, N)
    finally:
        singer_table.cache_clear()


def test_singer_table_refuses_a_walk_that_misses_a_line(monkeypatch):
    # with that pairing the walk of S^T over F_3 returns after 3 of the 13
    # lines of P^2, which an unchecked table read as an IndexError
    dot = Field.dot
    monkeypatch.setattr(Field, "dot", lambda self, a, b: dot(self, a[:-1], b[:-1]))
    with pytest.raises(ValueError, match=r"^the walks of S and S\^T visit 13 and 3 of 13 lines$"):
        singer_table(F3, 3)


@pytest.mark.parametrize("positions", [(), (4,), (0, 5, 2)], ids=["none", "one", "three"])
def test_gather_returns_a_tuple_for_any_count_of_positions(positions):
    t = tuple(range(10, 20))
    getter = _gather(positions)
    # a C-level getter, so a gather makes no Python call per key
    assert type(getter) is itemgetter
    assert getter(t) == tuple(t[i] for i in positions)


def test_radon_on_a_mapping_builds_no_fraction_per_value(monkeypatch):
    keys = line_keys(F3, 5)
    assert len(keys) == 121
    rng = random.Random(24)
    vals, denom = zero_sum_draw(rng, len(keys))
    family = line_values(F3, 5, vals, denom)
    order = keys[:]
    rng.shuffle(order)
    mu = {k: family[k] for k in order}
    expected = radon_forward(F3, family, 2, 5)
    calls = []
    monkeypatch.setattr(divisors, "fraction", lambda *args: calls.append(args))
    lam = radon_forward(F3, mu, 2, 5)
    assert calls == []
    monkeypatch.undo()
    # the output is in line-key order, whatever order the mapping has
    assert list(lam) == keys
    assert dict(lam) == dict(expected)
    assert radon_backward(F3, lam, 2, 5) == mu


def test_radon_of_a_shuffled_mapping_adds_to_the_equal_family():
    # F_2, N = 3: one transform family per line-key order, so the transform
    # of a mapping in any order combines with that of the equal family
    keys = line_keys(F2, 3)
    rng = random.Random(3)
    family = line_values(F2, 3, *zero_sum_draw(rng, len(keys)))
    order = keys[:]
    rng.shuffle(order)
    assert order != keys
    a = radon_forward(F2, {k: family[k] for k in order}, 1, 3)
    b = radon_forward(F2, family, 1, 3)
    assert a == b
    assert a + b == a.scale(2) == b.scale(2)


def test_incidence_cache_keyed_by_field_value():
    # separately built, equal-valued fields: field_make would share one object
    fields = [Field(2, 1, 1) for _ in range(200)]
    assert len({id(field) for field in fields}) == 200
    singer_table.cache_clear()
    for field in fields:
        assert incidence_lists(field, 3) is incidence_lists(fields[0], 3)
    # one entry, built once, for all 200 fields
    info = singer_table.cache_info()
    assert info.currsize == info.misses == 1


def test_radon_delta_difference_pg22():
    keys = line_keys(F2, 3)
    mu = {k: 0 for k in keys}
    J0, J1 = keys[0], keys[1]
    mu[J0] = 1
    mu[J1] = -1
    lam = radon_forward(F2, mu, 1, 3)
    inc = incidence_lists(F2, 3)
    half = Fraction(1, 2)
    zero = 0
    for hk in keys:
        has0, has1 = J0 in inc[hk], J1 in inc[hk]
        if has0 and not has1:
            assert lam[hk] == half
        elif has1 and not has0:
            assert lam[hk] == -half
        else:
            assert lam[hk] == zero
    # same data at level 2 comes out integral
    lam2 = radon_forward(F2, mu, 2, 3)
    for hk in keys:
        assert lam2[hk].denominator == 1
    assert radon_backward(F2, lam, 1, 3) == mu


def test_zero_sum_draw_and_line_values():
    # the numerators, then the denominator exponent, in the rng order the
    # radon checks have always drawn them
    a, b = random.Random(4), random.Random(4)
    for count in (1, 5, 13):
        vals = [b.randrange(-9, 10) for _ in range(count)]
        vals[-1] -= sum(vals)
        assert zero_sum_draw(a, count) == (vals, b.randrange(3))
    vals, denom = zero_sum_draw(a, 13)
    mu = line_values(F3, 3, vals, denom)
    assert list(mu) == line_keys(F3, 3)
    assert list(mu.values()) == [Fraction(v, 3**denom) for v in vals]
    with pytest.raises(DimensionMismatchError, match="expected 13 values, got 12"):
        line_values(F3, 3, vals[1:], denom)


def test_values_enter_a_family_only_from_z_1_over_p():
    # ints and Fractions with p-power denominators, over one shared exponent
    values = [Fraction(1, 2), 3, Fraction(-3, 4), 0, 4]
    assert Family.numerators(2, values) == ([2, 12, -3, 0, 16], 2)
    assert Family.numerators(3, []) == ([], 0)
    # a denominator with another prime is refused, not read as a power of p
    with pytest.raises(ValueError, match="not in Z"):
        Family.numerators(2, [Fraction(1, 3)])
    with pytest.raises(ValueError, match="not in Z"):
        Family.numerators(2, [Fraction(1, 6)])
    mu = line_values(F2, 3, [1, -1, 0, 0, 0, 0, 0], 1)
    with pytest.raises(ValueError, match="not in Z"):
        mu.scale(Fraction(1, 3))
    with pytest.raises(ValueError, match="not in Z"):
        line_family(F2, 3, {k: Fraction(1, 3) for k in line_keys(F2, 3)})
    # an int or a p-power Fraction scales, and values leave as Fractions
    assert mu.scale(Fraction(3, 2)) == mu.scale(3).scale(Fraction(1, 2))
    assert list(mu.scale(-4).values()) == [-2, 2, 0, 0, 0, 0, 0]
    assert fraction(3, 5, -2) == 45 and fraction(3, 5, 2) == Fraction(5, 9)


def test_radon_zero_and_sum_check():
    mu = {k: 0 for k in line_keys(F2, 3)}
    lam = radon_forward(F2, mu, 1, 3)
    assert all(v == 0 for v in lam.values())
    bad = dict(mu)
    bad[line_keys(F2, 3)[0]] = 1
    with pytest.raises(SumNotZeroError):
        radon_forward(F2, bad, 1, 3)
    with pytest.raises(SumNotZeroError):
        radon_backward(F2, bad, 1, 3)


@pytest.mark.parametrize("field,N", [(F2, 4), (F3, 4)])
def test_radon_roundtrips_random(field, N):
    rng = random.Random(13)
    keys = line_keys(field, N)
    p = field.p
    for n in range(1, N):
        for _ in range(50):
            vals = [rng.randrange(-9, 10) for _ in keys]
            vals[-1] -= sum(vals)
            mu = {k: Fraction(v, p ** rng.randrange(2)) for k, v in zip(keys, vals)}
            mu[keys[-1]] -= sum(mu.values())
            lam = radon_forward(field, mu, n, N)
            assert radon_backward(field, lam, n, N) == mu
            assert sum(lam.values()) == 0


def test_principal_pair_examples():
    keys = line_keys(F2, 3)
    zero = {k: 0 for k in keys}
    assert is_principal_pair(HoroDivisor(F2, 3, 1, zero, zero))
    mu = dict(zero)
    mu[keys[0]] = 1
    mu[keys[1]] = -1
    lam = radon_forward(F2, mu, 1, 3)
    assert is_principal_pair(HoroDivisor(F2, 3, 1, lam, mu))
    # a bare generator with no lambda side fails the zero-sum test
    single = dict(zero)
    single[keys[0]] = 1
    assert not is_principal_pair(HoroDivisor(F2, 3, 1, zero, single))
    # right mu, wrong level: the q-power mismatch is detected
    assert not is_principal_pair(HoroDivisor(F2, 3, 2, lam, mu))


def test_principal_set_subgroup_and_level_shift():
    rng = random.Random(4)
    keys = line_keys(F2, 3)
    qv = F2.q

    def random_principal(n):
        vals = [rng.randrange(-5, 6) for _ in keys]
        vals[-1] -= sum(vals)
        mu = dict(zip(keys, vals))
        return HoroDivisor(F2, 3, n, radon_forward(F2, mu, n, 3), mu)

    for _ in range(20):
        a, b = random_principal(2), random_principal(2)
        assert is_principal_pair(a + b)
        assert is_principal_pair(-a)
        # level shift: keep lambda, scale mu by q, drop the level by one
        shifted = HoroDivisor(
            F2, 3, 1, a.lam, {k: qv * v for k, v in a.mu.items()}
        )
        assert is_principal_pair(shifted)


def test_schubert_membership_matches_intersection_oracle():
    W = echelonize(F4, [(0, 0, 1), (0, 1, 0)], 3)
    for pt in enumerate_toysht(F4, 3, 1):
        member = schubert_deficit(pt.L, W) > 0
        assert member == (intersect(pt.L, W).dim > 0)
    with pytest.raises(DimensionMismatchError):
        schubert_deficit(next(iter(enumerate_toysht(F4, 3, 1))).L, echelonize(F4, [(1, 0, 0)], 3))


def test_schubert_membership_chart_zero_matrix():
    # the graph at matrix zero is the complement itself, transversal to W
    W = echelonize(F4, [(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    L = echelonize(F4, [(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    assert not schubert_deficit(L, W) > 0
    J_inside = echelonize(F4, [(0, 0, 1, 0), (1, 0, 0, 0)], 4)
    assert schubert_deficit(J_inside, W) > 0


def test_schubert_decomposition_n3():
    rng = random.Random(19)
    for n, rows in ((1, [(0, 1, 0), (0, 0, 1)]), (2, [(1, 0, 0)])):
        W = echelonize(F4, rows, 3)
        rep = schubert_decomposition_check(F4, 3, n, W, toy_locus(F4, 3, n), rng=rng)
        assert rep["counterexamples"] == []
        assert rep["codim2_failures"] == []
        assert not rep["vacuous"]
        assert rep["probes"]
        for orders in rep["probes"].values():
            assert orders == [1] * 5


def test_schubert_decomposition_same_with_shared_locus():
    # the locus read from the shared toy index, one for every center, must
    # not move a single rng draw against one streamed afresh per center
    locus = toy_locus(F4, 3, 1)
    for k, W in enumerate(rational_subspaces(F4, 3, 2)):
        own, shared = random.Random(k), random.Random(k)
        streamed = [(pt, *horospherical_membership(pt)) for pt in enumerate_toysht(F4, 3, 1)
                    if not pt.L.is_rational()]
        rep = schubert_decomposition_check(F4, 3, 1, W, streamed, rng=own)
        assert rep == schubert_decomposition_check(F4, 3, 1, W, locus, rng=shared)
        assert own.getstate() == shared.getstate()
        assert rep["probes"]


def test_schubert_decomposition_vacuous_over_prime_field():
    W = echelonize(F2, [(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    rep = schubert_decomposition_check(F2, 4, 2, W, toy_locus(F2, 4, 2), rng=random.Random(0))
    assert rep["vacuous"] and rep["points"] == 0


def test_pullback_check_set_and_probes():
    rng = random.Random(29)
    rep = partial_frobenius_divisor_pullback_check(F4, 3, 1, "J", rng=rng)
    assert rep["set_failures"] == []
    assert rep["mode"] == "probabilistic"
    for orders in rep["probes"].values():
        assert all((a, b) == (1, 2) for a, b in orders)
    reph = partial_frobenius_divisor_pullback_check(F4, 3, 1, "H", rng=rng)
    assert reph["set_failures"] == []
    for orders in reph["probes"].values():
        assert all((a, b) == (1, 2) for a, b in orders)


def test_pullback_check_is_set_only_where_no_probe_runs():
    # n = 2 = N - 1 has no probe level, so the rng is never drawn from
    rng = random.Random(0)
    state = rng.getstate()
    rep = partial_frobenius_divisor_pullback_check(F4, 3, 2, "J", rng=rng)
    assert rng.getstate() == state
    assert rep["set_failures"] == [] and rep["mode"] == "exhaustive"


# --- the marker memo of the pullback check, against direct double loops -----


def pullback_check_by_double_loop(field, N, n, divisor_type, rng, probe_repeats=5):
    """The pullback check with every flag tested against every marker by
    on_component, and each component list gathered by its own pass."""
    report = {"flags": 0, "set_failures": [], "probes": {}, "mode": "exhaustive"}
    flags = list(enumerate_flags(field, N, n, "right"))
    marker_dim = N - 1 if divisor_type == "H" else 1
    markers = rational_subspaces(field, N, marker_dim)
    for f in flags:
        report["flags"] += 1
        image = divisors.partial_frobenius_plus(f)
        for mk in markers:
            if on_component(image, mk, divisor_type) != on_component(f, mk, divisor_type):
                report["set_failures"].append((f.small.basis, f.big.basis, mk.basis))
    if 1 <= n <= N - 2:
        report["mode"] = "probabilistic"
        for mk in markers:
            comp = [f for f in flags if on_component(f, mk, divisor_type)]
            if not comp:
                continue
            if divisor_type == "H":
                comp = [FlagPoint(perp(f.big), perp(f.small), "right") for f in comp]
                args, key = (N - n - 1, perp(mk)), ("H-dual", mk.basis)
            else:
                args, key = (n, mk), ("J", mk.basis)
            report["probes"][key] = [
                jtype_flag_pullback_probe(field, N, args[0], args[1],
                                          comp[rng.randrange(len(comp))], rng)
                for _ in range(probe_repeats)
            ]
    return report


# plus partial Frobenius stand-ins, each with the divisor types whose set
# claim it breaks: it grows small to big, or shrinks big to small
IMAGES = {
    "sound": (None, ()),
    "flat": (lambda f: FlagPoint(f.big, f.big, "left"), ("J",)),
    "shrunk": (lambda f: FlagPoint(f.small, f.small, "left"), ("H",)),
}


@functools.lru_cache(maxsize=None)
def right_flags(N, n):
    return list(enumerate_flags(F4, N, n, "right"))


@pytest.mark.parametrize("image", sorted(IMAGES))
@pytest.mark.parametrize("divisor_type", ["H", "J"])
@pytest.mark.parametrize("N", [3, 4])
def test_pullback_components_match_double_loop(N, divisor_type, image, monkeypatch):
    plus, breaks = IMAGES[image]
    if plus:
        monkeypatch.setattr(divisors, "partial_frobenius_plus", plus)
    marker_dim = N - 1 if divisor_type == "H" else 1
    markers = rational_subspaces(F4, N, marker_dim)
    failed = 0
    for n in range(1, N):
        flags = right_flags(N, n)
        failures, comp = _pullback_components(flags, markers, divisor_type)
        assert failures == [
            (f.small.basis, f.big.basis, mk.basis)
            for f in flags
            for mk in markers
            if on_component(divisors.partial_frobenius_plus(f), mk, divisor_type)
            != on_component(f, mk, divisor_type)
        ]
        assert comp == [[f for f in flags if on_component(f, mk, divisor_type)]
                        for mk in markers]
        failed += len(failures)
    assert (failed > 0) == (divisor_type in breaks)


@pytest.mark.parametrize("divisor_type", ["H", "J"])
@pytest.mark.parametrize("N,n", [(3, 1), (4, 1), (4, 2)])
def test_pullback_check_matches_double_loop(N, n, divisor_type):
    seed = 100 * N + 10 * n + (divisor_type == "H")
    own, reference = random.Random(seed), random.Random(seed)
    rep = partial_frobenius_divisor_pullback_check(F4, N, n, divisor_type, rng=own)
    assert rep == pullback_check_by_double_loop(F4, N, n, divisor_type, reference)
    assert rep["probes"] and own.getstate() == reference.getstate()


def test_h_pullback_maps_only_the_drawn_flags(monkeypatch):
    # two perps per drawn flag and one per probed marker, whatever the
    # size of each marker's component
    calls = []

    def counted(a):
        calls.append(a)
        return perp(a)

    monkeypatch.setattr(divisors, "perp", counted)
    rep = partial_frobenius_divisor_pullback_check(F4, 4, 2, "H", rng=random.Random(0))
    markers = len(rational_subspaces(F4, 4, 3))
    assert rep["probes"] and rep["set_failures"] == []
    assert len(calls) <= 2 * divisors.PROBE_REPEATS * markers + markers


@pytest.mark.parametrize("divisor_type", ["H", "J"])
def test_pullback_probes_build_one_chart_per_w(divisor_type, monkeypatch):
    # the J-probe charts are built once per rational W the probes reach,
    # not once per probe
    built = []

    class Counted(charts.Chart):
        __slots__ = ()

        def __init__(self, field, N, w_basis, wp_basis):
            built.append(tuple(w_basis))
            super().__init__(field, N, w_basis, wp_basis)

    monkeypatch.setattr(charts, "Chart", Counted)
    rep = partial_frobenius_divisor_pullback_check(F4, 4, 2, divisor_type, rng=random.Random(0))
    probes = sum(len(orders) for orders in rep["probes"].values())
    assert probes > len(built) == len(set(built)) > 0


def test_pullback_probes_share_one_base_per_j_and_flag(monkeypatch):
    # the default pullback check at seeds 0 and 1: one base per distinct
    # (J, flag) the probes draw, every other probe reads it from the cache
    drawn = []

    def recorded(field, N, n, J, f, rng):
        drawn.append((J, f))
        return jtype_flag_pullback_probe(field, N, n, J, f, rng)

    monkeypatch.setattr(divisors, "jtype_flag_pullback_probe", recorded)
    for seed in (0, 1):
        partial_frobenius_divisor_pullback_check(F4, 3, 1, "J", rng=random.Random(seed))
    info = charts.jtype_probe_base.cache_info()
    assert info.misses == info.currsize == len(set(drawn))
    assert info.hits == len(drawn) - info.misses > 0


def test_pullback_check_rejects_an_unknown_type():
    for bad in ("X", "h", ""):
        with pytest.raises(ValueError, match="divisor type"):
            partial_frobenius_divisor_pullback_check(F4, 3, 1, bad, rng=random.Random(0))
        f = next(iter(enumerate_flags(F4, 3, 1, "right")))
        with pytest.raises(ValueError, match="divisor type"):
            on_component(f, f.small, bad)


def test_divisor_data_must_cover_all_lines():
    with pytest.raises(DimensionMismatchError):
        HoroDivisor(F2, 3, 1, {}, {})


def test_divisor_data_must_be_keyed_by_the_line_keys():
    # seven entries at F_2, N = 3, keyed 0..6: the right count, no line key
    keys = line_keys(F2, 3)
    zero = 0
    bad = {i: zero for i in range(len(keys))}
    good = {k: zero for k in keys}
    for lam, mu in ((bad, good), (good, bad), (bad, bad)):
        with pytest.raises(DimensionMismatchError, match="line keys"):
            HoroDivisor(F2, 3, 1, lam, mu)
    # one key swapped for a key of another space
    swapped = {**{k: zero for k in keys[1:]}, (1, 1, 1, 1): zero}
    with pytest.raises(DimensionMismatchError, match="line keys"):
        HoroDivisor(F2, 3, 1, good, swapped)
    with pytest.raises(DimensionMismatchError, match="line keys"):
        radon_forward(F2, bad, 1, 3)
    d = HoroDivisor(F2, 3, 1, good, good)
    assert is_principal_pair(d) and is_principal_pair(d + d)
    assert list(d.lam) == list(d.mu) == keys
