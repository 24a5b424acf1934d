"""The index-form transforms against loop references of the same formulas,
and the linearity every transform rests on.

radon_forward, radon_backward and radon_finite sum a coefficient family
over the incidence lists, and fourier collapses the character sum to the
same incidence sums.  The references below keep those formulas as plain
dict-and-generator sums in Fraction arithmetic, over incidence lists they
pair out themselves with field.add and field.mul, and every transform must
agree with them value for value and key for key.
The family arithmetic itself (integer numerators over one shared exponent)
is checked against element-wise Fraction arithmetic.  Each of the six
transforms must also be linear over Z[1/p], T(x*a + y) = T(x)*a + T(y),
with a negative control that a shifted transform fails the same test.
"""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_force_incidence
from toyshtlab import divisors
from toyshtlab.divisors import (
    LineFamily,
    incidence_lists,
    line_keys,
    line_values,
    radon_backward,
    radon_forward,
)
from toyshtlab.errors import NotInvariantError, SumNotZeroError
from toyshtlab.gf import field_make
from toyshtlab.linalg import rational_subspaces
from toyshtlab.tate import (
    FiniteTateModel,
    TateFn,
    eps_extend,
    eps_extend_dual,
    fourier,
    is_admissible,
    radon_finite,
)

FIELDS = [field_make(2, 1, 1), field_make(3, 1, 1)]


def z_p(p, num, exp):
    """num / p**exp, for any integer exp."""
    return num * Fraction(p) ** -exp


# the incidence paired out entry by entry, independent of the Singer table
# that incidence_lists reads
reference_incidence = cache(brute_force_incidence)


def incidence_sums_reference(field, d, values, power):
    """q^power times the sum of a zero-sum family over each incidence list
    of P^(d-1), in line-key order, whatever the order of the input."""
    if sum(values.values()) != 0:
        raise SumNotZeroError("coefficients must sum to zero")
    inc = reference_incidence(field, d)
    factor = Fraction(field.q) ** power
    return {hk: factor * sum(values[jk] for jk in inc[hk]) for hk in inc}


def is_invariant_reference(model, values):
    """Whether values, one per vector, are constant on every scalar orbit
    of a line."""
    field = model.field
    for rep in model.lines():
        base = values[model.index(rep)]
        for c in field.elements():
            if c not in (0, 1):
                w = tuple(field.mul(c, x) for x in rep)
                if values[model.index(w)] != base:
                    return False
    return True


def fourier_reference(f):
    """The orbit-sum transform: on a line l', f(0) + q * (sum of f over the
    lines perpendicular to l') - (sum over all lines), times q^offset."""
    model, q, values = f.model, f.model.q, f.values
    inc = reference_incidence(model.field, model.D)
    at = {rep: values[model.index(rep)] for rep in inc}
    total = sum(at.values())
    zero = values[0]
    per_line = {
        rep: zero + q * sum(at[jk] for jk in perp_lines) - total
        for rep, perp_lines in inc.items()
    }
    out = [zero + (q - 1) * total] + [per_line[rep] for rep in model.line_index()[1:]]
    pm = Fraction(q) ** model.offset(f.side)
    other = "T*" if f.side == "T" else "T"
    return TateFn(model, other, [x * pm for x in out])


def zero_sum_family(rng, keys, p):
    """Values num / p^exp with exponents from -1 to 2 on the keys, in a
    shuffled key order, the last one making the sum zero."""
    values = [z_p(p, rng.randrange(-9, 10), rng.randrange(-1, 3)) for _ in keys]
    values[-1] = -sum(values[:-1])
    order = list(range(len(keys)))
    rng.shuffle(order)
    return {keys[i]: values[i] for i in order}


def invariant_function(rng, model, side):
    """A scalar-invariant function with one fresh value object per vector."""
    p = model.field.p
    drawn = {rep: (rng.randrange(-9, 10), rng.randrange(-1, 3)) for rep in model.lines()}
    values = [z_p(p, rng.randrange(-9, 10), rng.randrange(-1, 3))]
    values += [z_p(p, *drawn[rep]) for rep in model.line_index()[1:]]
    return TateFn(model, side, values)


def assert_same(got: dict, expected: dict):
    assert list(got.items()) == list(expected.items())


def check_radon(field, N, n, mu):
    assert_same(radon_forward(field, mu, n, N),
                incidence_sums_reference(field, N, mu, n - (N - 1)))
    assert_same(radon_backward(field, mu, n, N),
                incidence_sums_reference(field, N, mu, 1 - n))


def check_fourier(f):
    expected = fourier_reference(f)
    got = fourier(f)
    assert (got.side, got.values) == (expected.side, expected.values)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 5), st.integers(-3, 4), st.randoms())
def test_radon_forward_backward_match_reference(field, N, n, rng):
    check_radon(field, N, n, zero_sum_family(rng, line_keys(field, N), field.p))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(4, 5), st.integers(0, 1), st.randoms())
def test_radon_finite_matches_reference(field, d, din, rng):
    # admissible: n(inner) = din + c <= -2 and n(outer) = din + d + c >= 2
    c = rng.randrange(2 - din - d, -2 - din + 1)
    model = FiniteTateModel(field, din + d, c)
    inner = model.subspace([tuple(int(k == i) for k in range(model.D)) for i in range(din)])
    outer = model.subspace([tuple(int(k == i) for k in range(model.D)) for i in range(model.D)])
    g = zero_sum_family(rng, line_keys(field, d), field.p)
    assert_same(radon_finite(model, g, inner, outer),
                incidence_sums_reference(field, d, g, model.n(inner) + 1))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 5), st.integers(-3, 1),
       st.sampled_from(["T", "T*"]), st.randoms())
def test_fourier_matches_reference(field, D, c, side, rng):
    model = FiniteTateModel(field, D, c)
    f = invariant_function(rng, model, side)
    assert is_invariant_reference(model, f.values)
    check_fourier(f)


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F3"])
@pytest.mark.parametrize("N", [1, 2])
def test_edge_dimensions_match_reference(field, N):
    # N = 1 has an empty incidence list, N = 2 one line per list
    rng = random.Random(N)
    keys = line_keys(field, N)
    assert {len(v) for v in incidence_lists(field, N).values()} == {N - 1}
    for n in range(-2, 3):
        check_radon(field, N, n, zero_sum_family(rng, keys, field.p))
        for side in ("T", "T*"):
            check_fourier(invariant_function(rng, FiniteTateModel(field, N, -1), side))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.randoms())
def test_invariance_matches_reference(D, rng):
    # over F_3 a vector off its line's key vector can break invariance
    model = FiniteTateModel(FIELDS[1], D, -1)
    values = list(invariant_function(rng, model, "T").values)
    i = rng.randrange(1, len(values))
    values[i] = values[i] + rng.randrange(2)
    # the constructor raises exactly when the reference finds a broken orbit
    if is_invariant_reference(model, values):
        assert TateFn(model, "T", values).values == tuple(values)
    else:
        with pytest.raises(NotInvariantError):
            TateFn(model, "T", values)


def test_patched_incidence_lists_leave_the_cache_sound(monkeypatch):
    # a run with incidence_lists patched, as the incidence_count replay test
    # does, neither uses nor caches an index built from the patched lists
    field, N = FIELDS[1], 3
    divisors.singer_table.cache_clear()
    mu = zero_sum_family(random.Random(0), line_keys(field, N), field.p)
    monkeypatch.setattr(divisors, "incidence_lists",
                        lambda F, N: {k: v[1:] for k, v in incidence_lists(F, N).items()})
    check_radon(field, N, 1, mu)
    monkeypatch.undo()
    check_radon(field, N, 1, mu)


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F3"])
@pytest.mark.parametrize("N", [3, 5])
def test_a_wrong_q_power_fails_the_round_trip_at_a_basis_vector(field, N, monkeypatch):
    # negative control: the zero-sum basis e_i - e_last, through both paths
    # of the incidence kernel, round trips, and none of it with power + 1
    n = 1
    keys = line_keys(field, N)
    basis = [line_values(field, N, [int(k == i) - int(k == len(keys) - 1)
                                    for k in range(len(keys))], 0)
             for i in range(len(keys) - 1)]

    def round_trips(mu):
        return radon_backward(field, radon_forward(field, mu, n, N), n, N) == mu

    assert all(map(round_trips, basis))
    sums = divisors._incidence_sums
    monkeypatch.setattr(divisors, "_incidence_sums",
                        lambda f, d, values, power: sums(f, d, values, power + 1))
    assert not any(map(round_trips, basis))


FAMILY_SHAPES = [(2, 1), (2, 2), (3, 1), (3, 2)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FAMILY_SHAPES), st.sampled_from(["T", "T*"]), st.data())
def test_family_arithmetic_matches_elementwise_reference(shape, side, data):
    p, D = shape
    model = FiniteTateModel(field_make(p, 1, 1), D, -1)
    # one numerator at 0 and one per line; values reads them per vector
    size = 1 + len(model.lines())
    nums = st.lists(st.integers(-40, 40), min_size=size, max_size=size)
    exps = st.integers(-2, 3)
    a = TateFn.from_nums(model, side, data.draw(nums), data.draw(exps))
    if data.draw(st.booleans()):
        b = TateFn.from_nums(model, side, data.draw(nums), data.draw(exps))
    else:
        # a's values written over a larger exponent
        k = data.draw(st.integers(0, 3))
        b = TateFn.from_nums(model, side, [x * p**k for x in a.nums], a.exp + k)
    c = z_p(p, data.draw(st.integers(-40, 40)), data.draw(exps))
    ra, rb = a.values, b.values
    assert ra == tuple(TateFn(model, side, ra).values)
    for x, y in ((a, b), (b, a)):
        rx, ry = x.values, y.values
        assert (x + y).values == tuple(u + v for u, v in zip(rx, ry))
        assert (x - y).values == tuple(u - v for u, v in zip(rx, ry))
        assert (-x).values == tuple(-u for u in rx)
        assert x.scale(c).values == tuple(c * u for u in rx)
        assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
    if ra == rb:
        assert hash(a) == hash(b)
    # the same numbers as families keyed by 0 and the line keys, read as mappings
    keys = (model.vectors()[0], *model.lines())
    la, lb = LineFamily(p, keys, a.nums, a.exp), LineFamily(p, keys, b.nums, b.exp)
    sa, sb = a.rationals(), b.rationals()
    assert list((la + lb).items()) == [(k, u + v) for k, u, v in zip(keys, sa, sb)]
    assert list(la.scale(c).values()) == [c * u for u in sa]
    assert (la == lb) == (ra == rb) == (la == dict(zip(keys, sb)))


def test_family_equality_aligns_exponents():
    # (3, 6) / 3 and (1, 2) / 3^0, at 0 and on the one line of F_3, are one
    # family
    model = FiniteTateModel(FIELDS[1], 1, -1)
    a = TateFn.from_nums(model, "T", (3, 6), 1)
    b = TateFn.from_nums(model, "T", (1, 2), 0)
    assert a == b and b == a and hash(a) == hash(b) and a.values == b.values
    assert a - b == TateFn.zero(model, "T") and len({a, b}) == 1
    assert a + a == b.scale(2)
    # equal values on another side, or with one entry off, are another family
    assert a != TateFn.from_nums(model, "T*", (1, 2), 0)
    assert a != TateFn.from_nums(model, "T", (1, 3), 0)
    keys = line_keys(FIELDS[0], 2)[:2]
    la, lb = LineFamily(3, keys, (3, 6), 1), LineFamily(3, keys, (1, 2), 0)
    assert la == lb and la == dict(lb.items()) and dict(la) == dict(lb)
    assert la != LineFamily(3, keys[::-1], (1, 2), 0)
    with pytest.raises(TypeError):
        hash(la)


def axpy(x, a, y):
    """x * a + y, value by value, on the keys of x."""
    return {k: x[k] * a + y[k] for k in x}


def linear_at(transform, x, a, y):
    """Whether transform(x * a + y) == transform(x) * a + transform(y), value
    by value in Fraction arithmetic; x and y are dicts on one key set."""
    def out(v):
        f = transform(v)
        if isinstance(f, LineFamily):
            return dict(f.items())
        return {(f.side, i): u for i, u in enumerate(f.values)}
    return out(axpy(x, a, y)) == axpy(out(x), a, out(y))


def scalars(p):
    """Scalars num / p**exp of Z[1/p]."""
    return st.builds(lambda num, exp: z_p(p, num, exp), st.integers(-20, 20), st.integers(-2, 3))


@cache
def admissible_pairs(p, D):
    """(model, inner, outer) for every offset and rational admissible pair
    of the model F_p^D."""
    field = field_make(p, 1, 1)
    subs = [S for d in range(D + 1) for S in rational_subspaces(field, D, d)]
    models = [FiniteTateModel(field, D, c) for c in range(-D, 1)]
    return [(m, inner, outer) for m in models for inner in subs for outer in subs
            if is_admissible(m, inner, outer)]


def radon_transforms(field, N, n):
    return [lambda v: radon_forward(field, v, n, N), lambda v: radon_backward(field, v, n, N)]


def tate_transforms(model, inner, outer, side):
    def fourier_of(v):
        return fourier(TateFn(model, side, list(v.values())))
    return [lambda g: radon_finite(model, g, inner, outer),
            lambda g: eps_extend(model, g, inner, outer),
            lambda g: eps_extend_dual(model, g, inner, outer),
            fourier_of]


def tate_inputs(rng, model, inner, outer, side):
    """Per transform of tate_transforms, an input: zero-sum families on the
    quotient lines for the first three, a scalar-invariant function on the
    side's vectors for fourier."""
    keys = line_keys(model.field, outer.dim - inner.dim)
    g = zero_sum_family(rng, keys, model.field.p)
    return [g, g, g, dict(enumerate(invariant_function(rng, model, side).values))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(-3, 4), st.randoms(), st.data())
def test_radon_transforms_are_linear(field, N, n, rng, data):
    keys = line_keys(field, N)
    x, y = zero_sum_family(rng, keys, field.p), zero_sum_family(rng, keys, field.p)
    a = data.draw(scalars(field.p))
    for transform in radon_transforms(field, N, n):
        assert linear_at(transform, x, a, y)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 4), (2, 5), (3, 4)]), st.sampled_from(["T", "T*"]),
       st.randoms(), st.data())
def test_tate_transforms_are_linear(shape, side, rng, data):
    model, inner, outer = data.draw(st.sampled_from(admissible_pairs(*shape)))
    xs = tate_inputs(rng, model, inner, outer, side)
    ys = tate_inputs(rng, model, inner, outer, side)
    a = data.draw(scalars(model.field.p))
    for transform, x, y in zip(tate_transforms(model, inner, outer, side), xs, ys):
        assert linear_at(transform, x, a, y)


def test_admissible_pairs_cover_every_shape():
    # F_2^4 and F_3^4 admit only 0 < F^4 at c = -2; F_2^5 has 64 pairs
    assert [len(admissible_pairs(*s)) for s in [(2, 4), (2, 5), (3, 4)]] == [1, 64, 1]


def shifted(transform):
    """transform plus the family of ones on its output space: not linear."""
    def out(v):
        f = transform(v)
        return f + f._like([1] * len(f.nums), 0)
    return out


@pytest.mark.parametrize("i", range(6))
def test_a_shifted_transform_fails_the_linearity_check(i):
    rng = random.Random(i)
    field = FIELDS[0]
    model, inner, outer = admissible_pairs(2, 4)[0]
    transforms = radon_transforms(field, 3, 1) + tate_transforms(model, inner, outer, "T")
    keys = line_keys(field, 3)
    xs = [zero_sum_family(rng, keys, 2)] * 2 + tate_inputs(rng, model, inner, outer, "T")
    ys = [zero_sum_family(rng, keys, 2)] * 2 + tate_inputs(rng, model, inner, outer, "T")
    a = Fraction(3, 2)
    assert linear_at(transforms[i], xs[i], a, ys[i])
    assert not linear_at(shifted(transforms[i]), xs[i], a, ys[i])
