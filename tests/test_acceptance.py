"""Acceptance suite: one test per criterion, exact arithmetic throughout,
every comparison at tolerance zero.  Each test prints a single pass/fail
verdict line (visible with pytest -s or -v plus -s)."""

import functools
import random
import time
from fractions import Fraction
from itertools import product

from toyshtlab import charts, divisors, tate, toysht
from toyshtlab.cli import CheckSpec, replay_witness, run_suite
from toyshtlab.gf import field_make
from toyshtlab.linalg import gauss_binomial, perp, rational_subspaces

from helpers import nontrivial_subspaces

FIELDS = {}


def field(p, e, m):
    key = (p, e, m)
    if key not in FIELDS:
        FIELDS[key] = field_make(p, e, m)
    return FIELDS[key]


def criterion(k, name):
    """Print one verdict line for the criterion, pass or fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.time()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {k:2d} {name}: FAIL ({time.time() - start:.1f}s)")
                raise
            print(f"ACCEPTANCE {k:2d} {name}: PASS ({time.time() - start:.1f}s)")
            return out

        return run

    return wrap


@criterion(1, "chart equivalence")
def test_criterion_01_chart_equivalence():
    for m in (1, 2):
        F = field(2, 1, m)
        for N in (2, 3, 4):
            for n in range(1, N):
                centers = rational_subspaces(F, N, N - n)
                reports = charts.chart_equivalence_check(
                    F, N, n, [charts.canonical_chart(F, W) for W in centers])
                assert len(reports) == len(centers)
                for W, rep in zip(centers, reports):
                    assert rep["counterexamples"] == [], (N, n, m, W.basis)
                    assert rep["checked"] == F.order ** (n * (N - n))


@criterion(2, "trivial locus = rational Grassmannian")
def test_criterion_02_trivial_locus_counts():
    for m in (1, 2):
        F = field(2, 1, m)
        for N in (2, 3, 4):
            for n in range(1, N):
                trivial = {
                    p.L for p in toysht.enumerate_toysht(F, N, n) if toysht.is_trivial(p.L)
                }
                assert len(trivial) == gauss_binomial(N, n, 2), (N, n, m)
                rational = set(rational_subspaces(F, N, n))
                assert trivial == rational, (N, n, m)


@criterion(3, "dichotomy for every point and rational subspace")
def test_criterion_03_dichotomy():
    F = field(2, 1, 2)
    subs = []
    for d in range(4):
        subs.extend(rational_subspaces(F, 3, d))
    violations = 0
    scanned = 0
    for n in (1, 2):
        for flags in toysht.dichotomy_check(list(toysht.enumerate_toysht(F, 3, n)), subs):
            violations += sum(not any(pair) for pair in flags)
            scanned += len(flags)
    assert violations == 0 and scanned == 21 * 16 * 2


@criterion(4, "Schubert decomposition with multiplicity probes")
def test_criterion_04_schubert_decomposition():
    F = field(2, 1, 2)
    rng = random.Random(2024)
    probe_count = 0
    for N in (3, 4):
        for n in range(1, N):
            locus = nontrivial_subspaces(F, N, n)
            for W in rational_subspaces(F, N, N - n):
                rep = divisors.schubert_decomposition_check(F, N, n, W, locus, rng=rng)
                assert rep["counterexamples"] == [], (N, n, W.basis)
                assert rep["codim2_failures"] == [], (N, n, W.basis)
                assert not rep["vacuous"]
                for orders in rep["probes"].values():
                    assert orders == [1] * 5, (N, n, W.basis, orders)
                    probe_count += len(orders)
    assert probe_count > 0


@criterion(5, "Radon duality round trips")
def test_criterion_05_radon_duality():
    for q_p in (2, 3):
        F = field(q_p, 1, 1)
        for N in (2, 3, 4, 5):
            keys = divisors.line_keys(F, N)
            rng = random.Random(100 * q_p + N)
            for n in range(1, N):
                for _ in range(200):
                    vals = [rng.randrange(-9, 10) for _ in keys]
                    vals[-1] -= sum(vals)
                    mu = {
                        k: Fraction(v, F.p ** rng.randrange(3))
                        for k, v in zip(keys, vals)
                    }
                    mu[keys[-1]] -= sum(mu.values())
                    lam = divisors.radon_forward(F, mu, n, N)
                    assert divisors.radon_backward(F, lam, n, N) == mu


@criterion(6, "partial Frobenius composition on all flags")
def test_criterion_06_partial_frobenius_composition():
    flags_checked = 0
    for m in (1, 2):
        F = field(2, 1, m)
        for N in (2, 3, 4):
            for n in range(0, N):
                for f in toysht.enumerate_flags(F, N, n, "right"):
                    got = toysht.partial_frobenius_minus(toysht.partial_frobenius_plus(f))
                    assert got == f.frobenius_image()
                    flags_checked += 1
            for n in range(1, N + 1):
                for f in toysht.enumerate_flags(F, N, n, "left"):
                    got = toysht.partial_frobenius_plus(toysht.partial_frobenius_minus(f))
                    assert got == f.frobenius_image()
                    flags_checked += 1


@criterion(7, "transversality failure locus")
def test_criterion_07_transversality_locus():
    for q_p in (2, 3):
        F = field(q_p, 1, 1)
        for s, t in ((2, 2), (2, 3), (3, 3)):
            for flat in product(range(F.order), repeat=s * t):
                A = tuple(tuple(flat[i * t : (i + 1) * t]) for i in range(s))
                if not charts.rank_le1(F, A):
                    continue
                for a in range(s):
                    for b in range(t):
                        if A[a][b] != 0:
                            continue
                        got = charts.transversality_check(F, s, t, a, b, A)
                        row_zero = all(x == 0 for x in A[a])
                        col_zero = all(A[i][b] == 0 for i in range(s))
                        assert got == (not (row_zero and col_zero)), (q_p, s, t, a, b, A)


@criterion(8, "Fourier transform displays")
def test_criterion_08_fourier_pairs():
    for q_p, D in ((2, 4), (2, 6), (3, 4), (3, 6)):
        F = field(q_p, 1, 1)
        model = tate.FiniteTateModel(F, D, -2)
        dims = [i - model.c for i in (-1, 0, 1)]
        chain = [
            model.subspace(
                [tuple(1 if k == i else 0 for k in range(D)) for i in range(d)]
            )
            for d in dims
        ]
        Wm1, W0, W1 = chain
        qv = F.q
        ind = lambda side, S: tate.TateFn.indicator(model, side, S)
        assert tate.fourier(ind("T", W0)) == ind("T*", perp(W0))
        assert tate.fourier(ind("T", W1)) == ind("T*", perp(W1)).scale(qv)
        assert tate.fourier(ind("T", W1) - ind("T", W0)) == ind(
            "T*", perp(W1)
        ).scale(qv) - ind("T*", perp(W0))
        assert tate.fourier(ind("T", W0) - ind("T", Wm1).scale(qv)) == -(
            ind("T*", perp(Wm1)) - ind("T*", perp(W0))
        )


@criterion(9, "Radon-Fourier square")
def test_criterion_09_radon_fourier_square():
    configs = [
        (2, 5, -2, 0, 5),
        (2, 6, -3, 1, 5),
        (2, 6, -3, 1, 6),
        (3, 4, -2, 0, 4),
        (3, 5, -2, 0, 5),
    ]
    for q_p, D, c, din, dout in configs:
        F = field(q_p, 1, 1)
        model = tate.FiniteTateModel(F, D, c)
        inner = model.subspace(
            [tuple(1 if k == i else 0 for k in range(D)) for i in range(din)]
        )
        outer = model.subspace(
            [tuple(1 if k == i else 0 for k in range(D)) for i in range(dout)]
        )
        rep = tate.radon_fourier_commutativity_check(
            model, inner, outer, 100, random.Random(D * 10 + q_p)
        )
        assert rep["failures"] == 0, (q_p, D, c)


@criterion(10, "principal criterion closure")
def test_criterion_10_principal_criterion_closure():
    for q_p in (2, 3):
        F = field(q_p, 1, 1)
        model = tate.FiniteTateModel(F, 4, -2)
        dims = [i - model.c for i in (-1, 0, 1)]
        chain = tuple(
            model.subspace(
                [tuple(1 if k == i else 0 for k in range(4)) for i in range(d)]
            )
            for d in dims
        )
        # Schubert-pair differences for three distinct index-zero lattices
        W0s = [
            model.subspace([(1, 0, 0, 0), (0, 1, 0, 0)]),
            model.subspace([(0, 1, 0, 0), (0, 0, 1, 0)]),
            model.subspace([(1, 1, 0, 0), (0, 0, 1, 1)]),
        ]
        pairs = [tate.schubert_pair(model, W) for W in W0s]
        for i in range(3):
            for j in range(3):
                assert tate.is_principal(pairs[i] - pairs[j])
        assert tate.picard_relation_check(model, chain)
        rng = random.Random(55 + q_p)
        for _ in range(50):
            values = list(tate.TateFn.zero(model, "T").values)
            values[0] = rng.randrange(-6, 7)
            for rep in model.lines():
                v = Fraction(rng.randrange(-6, 7), F.p ** rng.randrange(2))
                for c in F.elements():
                    if c == 0:
                        continue
                    w = tuple(F.mul(c, x) for x in rep)
                    values[model.index(w)] = v
            f = tate.TateFn(model, "T", values)
            assert tate.gamma_identity_check(model, f, chain)
        assert tate.canonical_preimage_check(model, chain)


@criterion(11, "pullback multiplicity q along J-components")
def test_criterion_11_pullback_multiplicity_q():
    F = field(2, 1, 2)
    rng = random.Random(31337)
    rep = divisors.partial_frobenius_divisor_pullback_check(F, 3, 1, "J", rng=rng)
    assert rep["set_failures"] == []
    assert rep["mode"] == "probabilistic"
    assert rep["probes"]
    for orders in rep["probes"].values():
        assert len(orders) == 5
        assert set(orders) == {(1, F.q)}, orders  # all repetitions agree


@criterion(12, "harness self-test with replayable witness")
def test_criterion_12_harness_selftest():
    reports, code = run_suite(
        [
            CheckSpec("grassmannian_count", {"p": 2, "e": 1, "m": 1, "N": 3, "n": 1}),
            CheckSpec("selftest_negated", {"p": 2, "e": 1, "m": 2, "N": 2}),
        ]
    )
    assert code == 1
    negated = reports[1]
    assert negated.verdict == "fail"
    witnesses = negated.counters["witnesses"]
    assert witnesses and replay_witness(witnesses[0])

