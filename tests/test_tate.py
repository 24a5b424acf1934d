import inspect
import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import PACKAGE_CACHES
from toyshtlab.divisors import line_keys, radon_forward
from toyshtlab.errors import (
    DimensionMismatchError,
    LatticeNotNestedError,
    NotAdmissibleError,
    NotInvariantError,
    SumNotZeroError,
    WrongChainError,
    WrongIndexError,
)
from toyshtlab import tate
from toyshtlab.gf import Field, field_make
from toyshtlab.linalg import echelonize, gauss_binomial, pairing, perp
from toyshtlab.tate import (
    FiniteTateModel,
    TateFn,
    TatePair,
    _extension_gathers,
    _generators,
    canonical_generators,
    canonical_preimage_check,
    eps_extend,
    eps_extend_dual,
    fourier,
    gamma_identity_check,
    integrate,
    is_admissible,
    is_principal,
    line_bundle_pairs,
    partial_frobenius_pullback,
    picard_relation_check,
    radon_finite,
    radon_fourier_commutativity_check,
    schubert_pair,
)

F2 = field_make(2, 1, 1)
F3 = field_make(3, 1, 1)


def model_q2(D=4, c=-2):
    return FiniteTateModel(F2, D, c)


def standard(model, dim):
    rows = [tuple(1 if k == i else 0 for k in range(model.D)) for i in range(dim)]
    return model.subspace(rows)


def chain_for(model):
    return tuple(standard(model, i - model.c) for i in (-1, 0, 1))


def test_model_refuses_a_negative_dimension_by_name():
    with pytest.raises(DimensionMismatchError, match="D=-1"):
        FiniteTateModel(F2, -1, 0)
    assert FiniteTateModel(F2, 0, 0).vectors() == ((),)


def test_dimension_theory_and_duality_offsets():
    m = model_q2()
    rng = random.Random(2)
    for _ in range(1000):
        d1, d2 = rng.randrange(5), rng.randrange(5)
        L1, L2 = standard(m, d1), standard(m, d2)
        assert m.n(L2) - m.n(L1) == L2.dim - L1.dim
    for d in range(5):
        L = standard(m, d)
        assert perp(L).dim + m.c_star == -m.n(L)


def test_measure_and_integrate():
    # D=2, c=-1: the punctured space has mass 3/2
    m = FiniteTateModel(F2, 2, -1)
    full = standard(m, 2)
    f = TateFn.indicator(m, "T", full).punctured()
    assert integrate(f) == Fraction(3, 2)
    assert integrate(TateFn.indicator(m, "T", full)) == 2
    L = standard(m, 1)
    assert integrate(TateFn.indicator(m, "T", L)) == 1


def test_model_requires_base_field():
    with pytest.raises(ValueError):
        FiniteTateModel(field_make(2, 1, 2), 3, -1)



def test_function_and_pair_guards_raise():
    # raised, not asserted, so they hold under python -O as well
    m = FiniteTateModel(F3, 3, -1)
    zero = 0
    for size in (0, 26, 28):
        with pytest.raises(DimensionMismatchError, match=f"expected 27 values, got {size}"):
            TateFn(m, "T", [zero] * size)
    # the numerators are the value at 0 and one per line of F_3^3
    assert len(TateFn(m, "T", [zero] * 27).nums) == 1 + len(m.lines()) == 14
    with pytest.raises(DimensionMismatchError, match="expected 14 numerators, got 27"):
        TateFn.from_nums(m, "T", [zero] * 27)
    f, g = TateFn.zero(m, "T"), TateFn.zero(m, "T*")
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        g - f
    with pytest.raises(ValueError):
        TatePair(f, g)
    with pytest.raises(ValueError):
        TatePair(g, g)
    assert TatePair(g, f) == TatePair(g - g, f + f)

def test_functions_and_pairs_respect_the_model():
    # one line on two models that differ only in their offset: the
    # indicators hold the same values but integrate differently
    a, b = FiniteTateModel(F2, 4, -1), FiniteTateModel(F2, 4, -2)
    line = a.subspace([(1, 0, 0, 0)])
    fa, fb = TateFn.indicator(a, "T", line), TateFn.indicator(b, "T", line)
    assert fa.values == fb.values
    assert integrate(fa) == 1
    assert integrate(fb) == Fraction(1, 2)
    assert fa != fb
    with pytest.raises(ValueError):
        fa + fb
    with pytest.raises(ValueError):
        fa - fb
    with pytest.raises(ValueError):
        TatePair(fourier(fa), fb)
    # models compare by value: a model rebuilt from equal data, over a field
    # built separately, holds the same functions
    a2 = FiniteTateModel(field_make(2, 1, 1), 4, -1)
    assert a2 == a and a2 != b
    fa2 = TateFn.indicator(a2, "T", line)
    assert fa2 == fa and fa + fa2 == fa.scale(2)
    assert TatePair(fourier(fa2), fa).f2 == fa


def test_fourier_indicator_displays():
    # the four displayed transform facts, q = 2 and q = 3
    for field in (F2, F3):
        m = FiniteTateModel(field, 4, -2)
        Wm1, W0, W1 = chain_for(m)
        qv = field.q
        ind = lambda side, S: TateFn.indicator(m, side, S)
        # transform of a lattice indicator scales by its measure
        assert fourier(ind("T", W0)) == ind("T*", perp(W0))
        assert fourier(ind("T", W1)) == ind("T*", perp(W1)).scale(qv)
        # shell between consecutive lattices
        assert fourier(ind("T", W1) - ind("T", W0)) == ind("T*", perp(W1)).scale(
            qv
        ) - ind("T*", perp(W0))
        # reversed shell with the q-weight inside
        lhs = fourier(ind("T", W0) - ind("T", Wm1).scale(qv))
        rhs = -(ind("T*", perp(Wm1)) - ind("T*", perp(W0)))
        assert lhs == rhs


def _character_sum_fourier(model, f, k):
    """Independent oracle: the literal character sum over Z[zeta_p], for a
    prime field F_p and the character x -> zeta^(k x).  Returns a list of
    (bucket sums) per dual vector; the zeta-parts must cancel for invariant
    input, leaving the rational value."""
    p = model.q
    assert model.field.e == 1
    out = []
    for w in model.vectors():
        buckets = [0] * p
        for v, fv in zip(model.vectors(), f.values):
            buckets[model.field.mul(k, pairing(model.field, w, v))] += fv
        # sum_j buckets[j] zeta^j with 1 + zeta + ... + zeta^(p-1) = 0:
        # subtract the top bucket from every coefficient
        coeffs = [b - buckets[p - 1] for b in buckets[: p - 1]]
        assert all(c == 0 for c in coeffs[1:]), "zeta-part failed to cancel"
        out.append(coeffs[0])
    pm = Fraction(p) ** model.offset(f.side)
    return tuple(pm * v for v in out)


@pytest.mark.parametrize("field,D", [(F2, 3), (F3, 3), (F3, 4)])
def test_fourier_matches_character_sum_oracle(field, D):
    # the orbit-collapsed transform equals the direct character sum for
    # every nontrivial character, which also checks character independence
    model = FiniteTateModel(field, D, -1)
    rng = random.Random(field.p * 100 + D)
    for _ in range(10):
        values = list(TateFn.zero(model, "T").values)
        values[0] = rng.randrange(-5, 6)
        for rep in model.lines():
            v = Fraction(rng.randrange(-5, 6), field.p ** rng.randrange(2))
            for c in field.elements():
                if c == 0:
                    continue
                w = tuple(field.mul(c, x) for x in rep)
                values[model.index(w)] = v
        f = TateFn(model, "T", values)
        got = fourier(f)
        for k in range(1, field.p):
            assert got.values == _character_sum_fourier(model, f, k)


def test_fourier_linearity():
    m = FiniteTateModel(F3, 3, -1)
    rng = random.Random(8)

    def rand_invariant():
        values = list(TateFn.zero(m, "T").values)
        values[0] = rng.randrange(-5, 6)
        for rep in m.lines():
            v = Fraction(rng.randrange(-5, 6), 3 ** rng.randrange(2))
            for c in (1, 2):
                w = tuple(F3.mul(c, x) for x in rep)
                values[m.index(w)] = v
        return TateFn(m, "T", values)

    for _ in range(20):
        f, g = rand_invariant(), rand_invariant()
        a = Fraction(rng.randrange(-4, 5), 3 ** rng.randrange(2))
        assert fourier(f.scale(a) + g) == fourier(f).scale(a) + fourier(g)
        # Fourier squares to f(-v), and -1 is a scalar, so on the
        # scalar-invariant functions it takes that is f itself
        assert fourier(fourier(f)) == f


def test_fourier_requires_invariance():
    m = FiniteTateModel(F3, 2, -1)
    values = list(TateFn.zero(m, "T").values)
    values[m.index((1, 0))] = 1
    # over F_3 one vector off its line's key vector breaks invariance, and
    # the function is refused where it enters, before any transform
    with pytest.raises(NotInvariantError):
        TateFn(m, "T", values)


# (field, D, c, dim inner, dim outer) of the shells checked exhaustively
SHELLS = [(F2, 5, -2, 1, 4), (F2, 6, -3, 1, 5), (F3, 4, -2, 0, 4), (F3, 4, -2, 1, 3)]


def _shell(field, D, c, din, dout):
    m = FiniteTateModel(field, D, c)
    return m, standard(m, din), standard(m, dout), line_keys(field, dout - din)


def _extensions(m, inner, outer, reps):
    """eps_extend and eps_extend_dual of g(reps[i]) = i + 1, per vector."""
    g = {rep: i for i, rep in enumerate(reps, 1)}
    return eps_extend(m, g, inner, outer).values, eps_extend_dual(m, g, inner, outer).values


def _assert_one_value_per_quotient_line(m, values, small, big, coords):
    """values, an extension of g(line_keys[i]) = i + 1, is nonzero exactly on
    big minus small, constant on F^x v + small, takes one value per line of
    the quotient big/small, and at v the value of the line through coords(v)."""
    f, d = m.field, big.dim - small.dim
    reps = line_keys(f, d)
    shell = [v for v in big.vectors() if not small.contains_vector(v)]
    assert {i for i, x in enumerate(values) if x} == {m.index(v) for v in shell}
    small_vectors = list(small.vectors())
    for v in shell:
        for c, u in product(tuple(f.elements())[1:], small_vectors):
            w = tuple(f.add(f.mul(c, x), y) for x, y in zip(v, u))
            assert values[m.index(w)] == values[m.index(v)]
        a = coords(v)
        inv = f.inv(next(x for x in a if x))
        assert values[m.index(v)] == reps.index(tuple(f.mul(inv, x) for x in a)) + 1
    assert len({values[m.index(v)] for v in shell}) == gauss_binomial(d, 1, f.q)


def _check_eps_extend(shape):
    m, inner, outer, reps = _shell(*shape)
    values, _ = _extensions(m, inner, outer, reps)
    # outer/inner of standard lattices has the coordinates din .. dout - 1
    coords = lambda v: v[shape[3]:shape[4]]
    _assert_one_value_per_quotient_line(m, values, inner, outer, coords)
    assert eps_extend(m, dict.fromkeys(reps, 0), inner, outer) == TateFn.zero(m, "T")
    with pytest.raises(LatticeNotNestedError):
        eps_extend(m, dict.fromkeys(reps, 1), outer, inner)


def _check_eps_extend_dual(shape):
    m, inner, outer, reps = _shell(*shape)
    f = m.field
    values, dual = _extensions(m, inner, outer, reps)
    # w in perp(inner) induces the form a -> sum a_i w_(din + i)
    coords = lambda w: w[shape[3]:shape[4]]
    _assert_one_value_per_quotient_line(m, dual, perp(outer), perp(inner), coords)
    # one completion on both sides: the keys read off the values pair to
    # zero iff the vectors do
    vs = m.vectors()
    key = dict(enumerate(reps, 1))
    for v, x in zip(vs, values):
        for w, y in zip(vs, dual):
            if x and y:
                assert (pairing(f, v, w) == 0) == (pairing(f, key[x], key[y]) == 0)
    with pytest.raises(LatticeNotNestedError):
        eps_extend_dual(m, dict.fromkeys(reps, 1), outer, inner)


def test_eps_extend_support_and_values():
    for shape in SHELLS:
        _check_eps_extend(shape)


def test_eps_extend_dual_support():
    for shape in SHELLS:
        _check_eps_extend_dual(shape)
    # cached by the value of the model and the pair, not the objects
    m, inner, outer, reps = _shell(*SHELLS[-1])
    first = _extensions(m, inner, outer, reps)
    misses = _extension_gathers.cache_info().misses
    fresh = FiniteTateModel(Field(3, 1, 1), 4, -2)
    assert fresh.field is not F3
    assert _extensions(fresh, standard(fresh, 1), standard(fresh, 3), reps) == first
    assert _extension_gathers.cache_info().misses == misses


@pytest.mark.parametrize("old,new,check", [
    # the dual side reads its forms against the quotient rows in reverse
    ("for row in rows]", "for row in rows[::-1]]", _check_eps_extend_dual),
    # the primal side takes one vector, u = 0, of the inner lattice
    ("for u in inner_vectors:", "for u in inner_vectors[:1]:", _check_eps_extend),
], ids=["dual-rows-reversed", "primal-inner-zero-only"])
def test_the_extension_checks_catch_a_broken_gather(monkeypatch, old, new, check):
    source = inspect.getsource(tate._extension_gathers.__wrapped__)
    assert source.count(old) == 1
    namespace = dict(vars(tate))
    exec(compile(source.replace(old, new), tate.__file__, "exec"), namespace)
    monkeypatch.setattr(tate, "_extension_gathers", namespace["_extension_gathers"])
    for shape in SHELLS:
        # the inner lattices of dimension 1 or more
        if shape[3]:
            with pytest.raises(AssertionError):
                check(shape)


def test_radon_finite_delta_difference():
    # q=2, n(inner) = -2: the normalization contributes a bare 1/2
    # (admissibility forces the quotient to have dimension at least four)
    m = model_q2(5, -2)
    inner, outer = standard(m, 0), standard(m, 4)
    assert is_admissible(m, inner, outer)
    reps = line_keys(F2, 4)
    g = {rep: 0 for rep in reps}
    g[reps[0]] = 1
    g[reps[1]] = -1
    R = radon_finite(m, g, inner, outer)
    half = Fraction(1, 2)
    assert set(R.values()) == {0, half, -half}
    assert any(v == half for v in R.values())


def test_radon_finite_matches_projective_radon():
    # with inner = 0 and outer = everything the quotient is the ambient
    # space and the lattice normalization reduces to the q-power one
    m = model_q2(4, -2)
    inner, outer = standard(m, 0), standard(m, 4)
    keys = line_keys(F2, 4)
    g = {k: 0 for k in keys}
    g[keys[0]] = 3
    g[keys[2]] = -3
    R1 = radon_finite(m, g, inner, outer)
    R2 = radon_forward(F2, g, m.n(outer), 4)
    assert R1 == R2


def test_radon_finite_guards():
    m = model_q2(4, -2)
    inner, outer = standard(m, 0), standard(m, 4)
    reps = line_keys(F2, 4)
    bad = {rep: 1 for rep in reps}
    with pytest.raises(SumNotZeroError):
        radon_finite(m, bad, inner, outer)
    shallow = FiniteTateModel(F2, 4, 0)
    with pytest.raises(NotAdmissibleError):
        radon_finite(
            shallow,
            {rep: 0 for rep in reps},
            standard(shallow, 0),
            standard(shallow, 4),
        )


@pytest.mark.parametrize(
    "field,D,c,din,dout",
    [(F2, 5, -2, 0, 5), (F2, 6, -3, 1, 5), (F2, 6, -3, 1, 6), (F3, 4, -2, 0, 4)],
)
def test_radon_fourier_square(field, D, c, din, dout):
    m = FiniteTateModel(field, D, c)
    inner, outer = standard(m, din), standard(m, dout)
    rep = radon_fourier_commutativity_check(m, inner, outer, 30, random.Random(5))
    assert rep["failures"] == 0


def test_radon_fourier_square_needs_admissible_pair():
    m = model_q2(4, 0)
    with pytest.raises(NotAdmissibleError):
        radon_fourier_commutativity_check(m, standard(m, 0), standard(m, 4), 1, random.Random(0))


def test_is_principal_examples():
    m = model_q2()
    zero_pair = TatePair(TateFn.zero(m, "T*"), TateFn.zero(m, "T"))
    assert is_principal(zero_pair)
    _, W0, W1 = chain_for(m)
    # zero-integral invariant function: difference of two punctured lines
    J1 = m.subspace([(1, 0, 0, 0)])
    J2 = m.subspace([(0, 1, 0, 0)])
    f2 = (TateFn.indicator(m, "T", J1) - TateFn.indicator(m, "T", J2)).punctured()
    assert integrate(f2) == 0
    pair = TatePair(fourier(f2).punctured(), f2)
    assert is_principal(pair)
    sp = schubert_pair(m, W0)
    assert not is_principal(sp)


def test_schubert_pair_supports_and_index_guard():
    m = model_q2()
    _, W0, _ = chain_for(m)
    sp = schubert_pair(m, W0)
    assert sp.f1.at_zero() == 0 and sp.f2.at_zero() == 0
    for v in m.vectors():
        if any(v):
            assert (sp.f2.values[m.index(v)] != 0) == W0.contains_vector(v)
    with pytest.raises(WrongIndexError):
        schubert_pair(m, standard(m, 1))


def test_schubert_pair_dual_symmetry():
    # in the dual model the degeneracy pair of the perp lattice is the
    # original pair with its two slots swapped
    m = model_q2()
    W0 = standard(m, 2)
    dual = FiniteTateModel(F2, m.D, m.c_star)
    assert dual.n(perp(W0)) == 0
    sp = schubert_pair(m, W0)
    sp_dual = schubert_pair(dual, perp(W0))
    assert sp_dual.f1.values == sp.f2.values
    assert sp_dual.f2.values == sp.f1.values


def test_schubert_pair_differences_principal():
    m = model_q2()
    W0a = standard(m, 2)
    W0b = m.subspace([(0, 1, 0, 0), (0, 0, 1, 0)])
    W0c = m.subspace([(1, 1, 0, 0), (0, 0, 1, 1)])
    pairs = [schubert_pair(m, W) for W in (W0a, W0b, W0c)]
    for i in range(3):
        for j in range(3):
            assert is_principal(pairs[i] - pairs[j])


def test_line_bundle_pair_masses():
    m = model_q2()
    chain = chain_for(m)
    ell_a, ell_b, ell_det = line_bundle_pairs(m, chain)
    q = m.q
    # total-mass and origin slots of the two shell functions
    full_a = TateFn.indicator(m, "T", chain[2]) - TateFn.indicator(m, "T", chain[1])
    assert integrate(full_a) == q - 1
    assert full_a.at_zero() == 0
    assert ell_a.f2 == full_a.punctured()
    full_b = TateFn.indicator(m, "T", chain[1]) - TateFn.indicator(
        m, "T", chain[0]
    ).scale(q)
    assert integrate(full_b) == 0
    assert full_b.at_zero() == -(q - 1)
    assert ell_b.f2 == full_b.punctured()
    assert ell_det.f2 == -schubert_pair(m, chain[1]).f2
    with pytest.raises(WrongChainError):
        line_bundle_pairs(m, (chain[1], chain[0], chain[2]))


@pytest.mark.parametrize("field,D", [(F2, 4), (F3, 4), (F2, 6)])
def test_picard_relation(field, D):
    m = FiniteTateModel(field, D, -2)
    assert picard_relation_check(m, chain_for(m))


def test_gamma_identity_pinned_and_random():
    for field in (F2, F3):
        m = FiniteTateModel(field, 4, -2)
        chain = chain_for(m)
        Wm1, W0, W1 = chain
        shell = TateFn.indicator(m, "T", W1) - TateFn.indicator(m, "T", W0)
        assert gamma_identity_check(m, shell, chain)
        assert gamma_identity_check(m, TateFn.indicator(m, "T", W0), chain)
        rng = random.Random(77)
        for _ in range(10):
            values = list(TateFn.zero(m, "T").values)
            values[0] = rng.randrange(-5, 6)
            for rep in m.lines():
                v = Fraction(rng.randrange(-5, 6), field.p ** rng.randrange(2))
                for c in field.elements():
                    if c == 0:
                        continue
                    w = tuple(field.mul(c, x) for x in rep)
                    values[m.index(w)] = v
            f = TateFn(m, "T", values)
            assert gamma_identity_check(m, f, chain)


def test_gamma_identity_requires_invariance():
    # over F_2 every function is scalar-invariant, so this one enters
    m = model_q2()
    values = list(TateFn.zero(m, "T").values)
    values[m.index((1, 0, 0, 0))] = 1
    values[m.index((0, 1, 0, 0))] = -1
    assert TateFn(m, "T", values).values == tuple(values)
    fr = FiniteTateModel(F3, 2, -1)
    values = list(TateFn.zero(fr, "T").values)
    values[fr.index((1, 0))] = 1
    with pytest.raises(NotInvariantError):
        gamma_identity_check(fr, TateFn(fr, "T", values), None)


def test_partial_frobenius_pullback_composition():
    m = model_q2()
    sp = schubert_pair(m, standard(m, 2))
    qv = m.q
    both = partial_frobenius_pullback(partial_frobenius_pullback(sp, "minus"), "plus")
    assert both == sp.scale(qv)
    assert partial_frobenius_pullback(sp, "minus").f1 == sp.f1.scale(qv)
    assert partial_frobenius_pullback(sp, "plus").f2 == sp.f2.scale(qv)
    zero_pair = TatePair(TateFn.zero(m, "T*"), TateFn.zero(m, "T"))
    assert partial_frobenius_pullback(zero_pair, "plus") == zero_pair


def test_principal_pairs_form_a_submodule():
    m = model_q2()
    J1 = m.subspace([(1, 0, 0, 0)])
    J2 = m.subspace([(0, 1, 0, 0)])
    J3 = m.subspace([(0, 0, 1, 0)])

    def principal_from(f2):
        return TatePair(fourier(f2).punctured(), f2)

    a = principal_from(
        (TateFn.indicator(m, "T", J1) - TateFn.indicator(m, "T", J2)).punctured()
    )
    b = principal_from(
        (TateFn.indicator(m, "T", J2) - TateFn.indicator(m, "T", J3)).punctured()
    )
    assert is_principal(a) and is_principal(b)
    assert is_principal(a + b)
    assert is_principal(-a)
    assert is_principal(a.scale(Fraction(3, 4)))
    assert is_principal(a.scale(-5) + b)


def test_plus_pullback_couples_with_level_shift():
    # the plus pullback (f1, f2) -> (f1, q f2) carries principal pairs at
    # offset c+1 to principal pairs at offset c: the measure normalization
    # shifts with the level, absorbing the factor q
    D = 4
    upper = FiniteTateModel(F2, D, -1)
    lower = FiniteTateModel(F2, D, -2)
    J1 = upper.subspace([(1, 0, 0, 0)])
    J2 = upper.subspace([(0, 1, 0, 0)])
    f2 = (TateFn.indicator(upper, "T", J1) - TateFn.indicator(upper, "T", J2)).punctured()
    pair_up = TatePair(fourier(f2).punctured(), f2)
    assert is_principal(pair_up)
    pulled = partial_frobenius_pullback(pair_up, "plus")
    relabeled = TatePair(
        TateFn(lower, "T*", pulled.f1.values), TateFn(lower, "T", pulled.f2.values)
    )
    assert is_principal(relabeled)
    # without the level shift the same pair fails the criterion
    assert not is_principal(pulled)


def test_canonical_preimage():
    for field in (F2, F3):
        m = FiniteTateModel(field, 4, -2)
        chain = chain_for(m)
        assert canonical_preimage_check(m, chain)
        g1, g2, g3 = canonical_generators(m, chain)
        # linear combinations stay in the membership set
        a = Fraction(3, field.p)
        f2 = g1.f2.scale(a) + g2.f2 - g3.f2
        f1 = g1.f1.scale(a) + g2.f1 - g3.f1
        assert fourier(f2) == f1
        # a first slot perturbed on one line, scalar-invariant, leaves it
        bad = TateFn.indicator(m, "T*", m.subspace([m.lines()[0]])).punctured()
        assert bad == TateFn(m, "T*", bad.values)
        assert fourier(f2) != f1 + bad


def test_tate_entry_points_refuse_lattices_of_another_model():
    # a flag in F_3^3, or one over F_9, is not a flag of lattices of F_3^4:
    # every entry point refuses it, also where an equal-valued chain is cached
    m = FiniteTateModel(F3, 4, -2)
    chain = chain_for(m)
    g = {(1,): 1}
    assert eps_extend(m, g, chain[1], chain[2]) and canonical_generators(m, chain)
    F9 = field_make(3, 1, 2)
    e = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]

    def flag(field, D, rows):
        return tuple(echelonize(field, rows[:d], D) for d in (1, 2, 3))

    cases = [(DimensionMismatchError, flag(F3, 3, [v[:3] for v in e])),
             (ValueError, flag(F9, 4, e)),
             (ValueError, flag(F9, 4, [(1, 5, 0, 0), *e[1:]]))]
    for error, (Wm1, W0, W1) in cases:
        with pytest.raises(error):
            TateFn.indicator(m, "T", W0)
        with pytest.raises(error):
            schubert_pair(m, W0)
        with pytest.raises(error):
            eps_extend(m, g, W0, W1)
        with pytest.raises(error):
            eps_extend_dual(m, g, W0, W1)
        with pytest.raises(error):
            canonical_generators(m, (Wm1, W0, W1))


def test_transforms_of_built_functions_gather_no_vectors(monkeypatch):
    # per-vector gathers happen only where a function enters or is read per
    # vector: no transform, criterion or extension map reaches them, nor
    # reads a vector index of the model
    m = FiniteTateModel(F3, 4, -2)
    chain = chain_for(m)
    inner, outer = standard(m, 0), standard(m, 4)
    keys = line_keys(F3, 4)
    g = dict(zip(keys, [1, -1] + [0] * (len(keys) - 2)))
    f = TateFn.indicator(m, "T", chain[2]) - TateFn.indicator(m, "T", chain[1]).scale(
        Fraction(2, 3))
    pair = schubert_pair(m, chain[1])
    calls = []
    for name in ("pair_zero_table", "index", "vectors", "line_index"):
        method = getattr(FiniteTateModel, name)
        monkeypatch.setattr(FiniteTateModel, name, lambda model, *args, name=name, method=method:
                            calls.append(name) or method(model, *args))
    # the extension gathers are built here, from line keys alone
    for clear in PACKAGE_CACHES:
        clear.cache_clear()
    fourier(f)
    is_principal(pair)
    gamma_identity_check(m, f, chain)
    eps_extend(m, g, inner, outer)
    eps_extend_dual(m, g, inner, outer)
    radon_finite(m, g, inner, outer)
    assert calls == []
    f.values
    assert calls.count("pair_zero_table") == 1


def test_canonical_generators_cached_by_chain_value():
    m = model_q2()
    chain = chain_for(m)
    _generators.cache_clear()
    first = canonical_generators(m, chain)
    # the same chain rebuilt from fresh subspaces finds the cached pairs
    rebuilt = tuple(m.subspace(list(W.basis)) for W in chain)
    assert all(W is not V for W, V in zip(chain, rebuilt))
    assert canonical_generators(m, rebuilt) is first
    assert _generators.cache_info().currsize == 1
    with pytest.raises(WrongChainError):
        canonical_generators(m, (chain[1], chain[0], chain[2]))


@pytest.mark.parametrize("field", [F2, F3])
def test_canonical_pair_checks_hold_on_cached_pairs(field):
    m = FiniteTateModel(field, 4, -2)
    chain = chain_for(m)
    rng = random.Random(5)
    _generators.cache_clear()
    for _ in range(2):
        # run twice: the second pass reads the cached generator pairs
        assert picard_relation_check(m, chain)
        assert canonical_preimage_check(m, chain)
        values = list(TateFn.zero(m, "T").values)
        values[0] = rng.randrange(-6, 7)
        on_line = {k: Fraction(rng.randrange(-6, 7), field.p ** rng.randrange(2))
                   for k in m.lines()}
        values[1:] = [on_line[k] for k in m.line_index()[1:]]
        f = TateFn(m, "T", values)
        assert gamma_identity_check(m, f, chain)
    assert _generators.cache_info().currsize == 1
