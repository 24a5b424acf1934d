import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_rem, gf_strip

from toyshtlab.errors import BudgetExceededError, NonPrimeError
from toyshtlab.gf import (
    DEFAULT_BUDGET, Field, _is_irreducible, field_make, is_prime, randbelow)

from helpers import coeffs, field_pow

# every odd-p tower of the odd_fields benchmark workload, and F_{7^4}
ODD_TOWERS = [(3, 1, 2), (5, 1, 4), (3, 1, 6), (3, 2, 3), (7, 1, 3), (3, 1, 7), (7, 1, 4)]
# every odd prime power up to 81, as (p, degree)
SMALL_ODD = [(p, d) for p in range(3, 82, 2) if is_prime(p) for d in range(1, 5) if p**d <= 81]


def test_prime_field():
    F = field_make(2, 1, 1)
    assert F.order == 2
    assert F.add(1, 1) == 0
    assert F.mul(1, 1) == 1


def test_f4_frobenius_fixed_field():
    F = field_make(2, 1, 2)
    assert F.order == 4
    fixed = [x for x in F.elements() if F.frobenius(x) == x]
    assert fixed == [0, 1]


def test_f4_generator_square():
    # the nonprime elements of F_4 satisfy x^2 = x + 1
    F = field_make(2, 1, 2)
    g = F.generator
    assert F.mul(g, g) == F.add(g, 1)
    assert F.frobenius(g) == F.mul(g, g)


def test_f9_frobenius_squared_identity():
    F = field_make(3, 1, 2)
    for x in F.elements():
        assert F.frobenius(F.frobenius(x)) == x


def test_f9_square_root_of_minus_one():
    F = field_make(3, 1, 2)
    minus_one = F.neg(1)
    roots = [x for x in F.elements() if F.mul(x, x) == minus_one]
    assert len(roots) == 2
    for x in roots:
        assert field_pow(F, x, 3) == F.neg(x)


@pytest.mark.parametrize("p,e,m", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 2), (2, 1, 3), (3, 2, 2)])
def test_frobenius_power_m_is_identity(p, e, m):
    F = field_make(p, e, m)
    for x in F.elements():
        y = x
        for _ in range(m):
            y = F.frobenius(y)
        assert y == x


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 2, 1), (2, 2, 2)])
def test_fixed_points_form_subfield_of_size_q(p, e, m):
    F = field_make(p, e, m)
    sub = F.subfield
    assert len(sub) == F.q
    subset = set(sub)
    for a in sub:
        for b in sub:
            assert F.add(a, b) in subset
            assert F.mul(a, b) in subset


def test_frobenius_is_a_ring_map():
    F = field_make(3, 1, 2)
    for x in F.elements():
        for y in F.elements():
            assert F.frobenius(F.add(x, y)) == F.add(F.frobenius(x), F.frobenius(y))
            assert F.frobenius(F.mul(x, y)) == F.mul(F.frobenius(x), F.frobenius(y))


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 3, 1), (3, 2, 2)])
def test_field_axioms_exhaustive(p, e, m):
    # full associativity and distributivity sweeps up to 81 elements
    F = field_make(p, e, m)
    assert F.order <= 81
    elems = list(F.elements())
    for a in elems:
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    for a in elems:
        for b in elems:
            for c in elems:
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_inverses():
    F = field_make(3, 2, 1)
    for x in range(1, F.order):
        assert F.mul(x, F.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_nonprime_rejected():
    with pytest.raises(NonPrimeError):
        field_make(4, 1, 1)
    with pytest.raises(NonPrimeError):
        field_make(1, 1, 1)


def test_budget_rejected():
    with pytest.raises(BudgetExceededError):
        field_make(2, 1, 25)
    field_make(2, 1, 10, budget=1 << 10)  # exactly at the cap is allowed


def test_field_make_shares_one_field_per_value():
    a = field_make(3, 1, 2)
    assert field_make(3, 1, 2) is a and field_make(3, 1, 2, seed=0) is a
    assert field_make(3, 1, 2, seed=1) is not a
    # the budget still binds a field that is already built
    with pytest.raises(BudgetExceededError):
        field_make(3, 1, 2, budget=8)
    assert field_make(3, 1, 2, budget=9) is a


def test_encoding_reproducible():
    # two separate builds per value, as field_make hands back one shared Field
    for (p, e, m), seed in product([(3, 1, 2), (2, 1, 4), (5, 1, 2), (3, 2, 2), (2, 3, 2)], [0, 1]):
        a = Field(p, e, m, seed=seed)
        b = Field(p, e, m, seed=seed)
        assert a is not b
        assert a.modulus == b.modulus
        assert a.generator == b.generator
        elements = list(a.elements())
        assert [a.mul(x, y) for x in elements for y in elements] == [
            b.mul(x, y) for x in elements for y in elements
        ]


def test_coeffs_roundtrip():
    F = field_make(3, 1, 2)
    for x in F.elements():
        c = coeffs(F, x)
        assert len(c) == 2
        assert x == c[0] + 3 * c[1]


# per-digit reference arithmetic, independent of the field's tables


def _digits(F, x):
    return [x // F.p**i % F.p for i in range(F.degree)]


def _undigits(F, ds):
    return sum(d * F.p**i for i, d in enumerate(ds))


def ref_add(F, a, b):
    return _undigits(F, [(x + y) % F.p for x, y in zip(_digits(F, a), _digits(F, b))])


def ref_neg(F, a):
    return _undigits(F, [-x % F.p for x in _digits(F, a)])


def ref_sub(F, a, b):
    return _undigits(F, [(x - y) % F.p for x, y in zip(_digits(F, a), _digits(F, b))])


def _check_against_reference(F, pairs):
    for a, b in pairs:
        assert F.add(a, b) == ref_add(F, a, b), (a, b)
        assert F.sub(a, b) == ref_sub(F, a, b), (a, b)
    rng = random.Random(F.order)
    for a in F.elements():
        assert F.neg(a) == ref_neg(F, a)
        assert F.add(a, F.neg(a)) == 0
        b = rng.randrange(F.order)
        assert F.sub(a, b) == F.add(a, F.neg(b))


@pytest.mark.parametrize("p,d", SMALL_ODD)
def test_add_sub_neg_match_digit_reference_exhaustive(p, d):
    F = field_make(p, d, 1)
    _check_against_reference(F, product(F.elements(), repeat=2))


@pytest.mark.parametrize("p,e,m", ODD_TOWERS)
def test_add_sub_neg_match_digit_reference_sampled(p, e, m):
    F = field_make(p, e, m)
    rng = random.Random(f"{p},{e},{m}")
    pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(5000)]
    pairs += [(a, 0) for a in range(5)] + [(0, a) for a in range(5)] + [(1, F.neg(1))]
    _check_against_reference(F, pairs)


# sympy's galoistools as an independent oracle: its polynomials are
# coefficient lists, highest degree first


def _sympy_poly(F, x):
    return gf_strip(list(reversed(coeffs(F, x))))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_irreducible_matches_sympy(p):
    for d in range(1, 5):
        for low in product(range(p), repeat=d):
            f = low + (1,)
            assert _is_irreducible(f, p) == gf_irreducible_p(list(reversed(f)), p, ZZ), f


@pytest.mark.parametrize("p,e,m", [(3, 1, 2), (5, 1, 4), (3, 1, 6), (3, 2, 3), (3, 1, 7)])
def test_add_mul_match_sympy(p, e, m):
    F = field_make(p, e, m)
    mod = list(reversed(F.modulus))
    assert gf_irreducible_p(mod, p, ZZ)
    rng = random.Random(f"sympy:{p},{e},{m}")
    for _ in range(2000):
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        fa, fb = _sympy_poly(F, a), _sympy_poly(F, b)
        assert _sympy_poly(F, F.add(a, b)) == gf_add(fa, fb, p, ZZ), (a, b)
        assert _sympy_poly(F, F.mul(a, b)) == gf_rem(gf_mul(fa, fb, p, ZZ), mod, p, ZZ), (a, b)


LARGE_ODD = [field_make(5, 1, 4), field_make(3, 1, 6), field_make(3, 1, 7)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LARGE_ODD), st.data())
def test_field_axioms_property_large_odd(F, data):
    a, b, c = (data.draw(st.integers(0, F.order - 1)) for _ in range(3))
    assert F.add(a, b) == F.add(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))


def test_tables_are_linear_in_order():
    F = field_make(7, 1, 4, budget=DEFAULT_BUDGET)
    assert not hasattr(F, "_addtab")
    tables = [v for v in vars(F).values() if isinstance(v, (list, tuple))]
    assert tables
    for t in tables:
        assert len(t) <= 2 * F.order
        assert all(isinstance(x, int) for x in t)


# (p, e, m) -> generator at seeds 0, 1 and 5, and one digest over every
# tower's modulus, generator and exp, log and Frobenius tables at those seeds,
# as the generator search by integer square-and-multiply found them
GENERATORS = {
    (2, 1, 2): (2, 2, 3), (2, 1, 3): (2, 2, 6), (2, 2, 2): (2, 2, 6), (2, 1, 8): (3, 3, 6),
    (3, 1, 2): (4, 4, 6), (5, 1, 4): (6, 6, 28), (3, 1, 6): (3, 3, 6), (3, 2, 3): (3, 3, 6),
    (7, 1, 3): (22, 22, 8), (3, 1, 7): (5, 5, 6), (7, 1, 4): (12, 12, 12),
}
TABLES_DIGEST = "b6f2fd0758626ff525c23d044dbe1e1f6f14070044d585dfa665e2d194671944"


def test_generator_search_and_tables_pinned():
    digest = hashlib.sha256()
    for tower, generators in GENERATORS.items():
        for seed, g in zip((0, 1, 5), generators):
            F = Field(*tower, seed=seed)
            assert F.generator == g, (tower, seed)
            digest.update(repr((tower, seed, F.modulus, g, F._exp, F._log, F._frob)).encode())
    assert digest.hexdigest() == TABLES_DIGEST


# F_2, F_4, F_8, F_3, F_9, F_25, F_27
KERNEL_TOWERS = [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2), (5, 1, 2), (3, 1, 3)]


@pytest.mark.parametrize("p,e,m", KERNEL_TOWERS)
def test_axpy_and_dot_match_add_mul_exhaustive(p, e, m):
    F = field_make(p, e, m)
    pairs = list(product(F.elements(), repeat=2))
    v, row = [x for x, _ in pairs], [y for _, y in pairs]
    for c in range(1, F.order):
        # every entry x + c*y in one call
        assert F.axpy(c, row, v) == [F.add(x, F.mul(c, y)) for x, y in pairs], c
        # every accumulation step s + x*y of a pairing
        assert [F.dot((1, x), (c, y)) for x, y in pairs] == [
            F.add(c, F.mul(x, y)) for x, y in pairs], c
    assert [F.dot((x,), (y,)) for x, y in pairs] == [F.mul(x, y) for x, y in pairs]
    assert F.dot((), ()) == 0


F2187 = field_make(3, 1, 7)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_axpy_and_dot_are_folds_of_add_and_mul_on_f2187(data):
    elem = st.integers(0, F2187.order - 1)
    width = data.draw(st.integers(0, 8))
    a, b = (data.draw(st.lists(elem, min_size=width, max_size=width)) for _ in range(2))
    c = data.draw(st.integers(1, F2187.order - 1))
    assert F2187.axpy(c, a, b) == [F2187.add(y, F2187.mul(c, x)) for x, y in zip(a, b)]
    acc = 0
    for x, y in zip(a, b):
        acc = F2187.add(acc, F2187.mul(x, y))
    assert F2187.dot(a, b) == acc


def test_randbelow_is_randrange_with_the_same_generator_state():
    ns = [1, 2, 3, 4, 9, 13, 19, 64, 65, 2187]
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20):
            for n in ns:
                assert randbelow(ours, n) == theirs.randrange(n), (seed, n)
            # the offset ranges of the Radon and gamma draws
            assert randbelow(ours, 19) - 9 == theirs.randrange(-9, 10)
            assert randbelow(ours, 13) - 6 == theirs.randrange(-6, 7)
        assert ours.getstate() == theirs.getstate()
    for n in (0, -1):
        with pytest.raises(ValueError):
            randbelow(random.Random(0), n)
