"""Batch driver: named verification checks over configurable parameters,
machine-readable reports, and a suite runner with deterministic seeding.

Every check maps a parameter dictionary and a seed to a verdict in
{pass, fail, vacuous}, a mode in {exhaustive, probabilistic}, and counters.
Failing checks serialize at least one witness that replay_witness() can
re-execute against the library.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field

from . import charts, divisors, tate, toysht
from .errors import (
    BudgetExceededError,
    ConfigParseError,
    ToyshtError,
    UnknownCheckError,
)
from .gf import DEFAULT_BUDGET, field_make
from .linalg import echelonize, enumerate_grassmannian, gauss_binomial

SCHEMA_VERSION = "toyshtlab-report-v1"

BUDGET_ENV = "TOYSHT_BUDGET"

# what a check may raise on a bad parameter or an overrun; run() turns these
# into a failing report instead of aborting the suite
CHECK_ERRORS = (ToyshtError, KeyError, ValueError)


@dataclass
class CheckSpec:
    name: str
    params: dict = dc_field(default_factory=dict)
    seed: int = 0


@dataclass
class Report:
    name: str
    params: dict
    verdict: str
    mode: str
    counters: dict
    elapsed_ms: int
    seed: int


def _budget(params: dict) -> int:
    if "budget" in params:
        return int(params["budget"])
    env = os.environ.get(BUDGET_ENV)
    return int(env) if env else DEFAULT_BUDGET


def _field(params: dict, default_m: int = 1):
    p = int(params.get("p", 2))
    e = int(params.get("e", 1))
    m = int(params.get("m", default_m))
    return field_make(p, e, m, budget=_budget(params))


def _tate_model(params: dict) -> tate.FiniteTateModel:
    """The check's Tate model over F_q, gated up front on its q**D vectors."""
    F = _field(params, default_m=1)
    D, c = int(params["D"]), int(params["c"])
    budget = _budget(params)
    if F.q**D > budget:
        raise BudgetExceededError(f"{F.q**D} vectors exceeds budget {budget}")
    return tate.FiniteTateModel(F, D, c)


def _standard_flag(model: tate.FiniteTateModel, dim: int):
    rows = [
        tuple(1 if k == i else 0 for k in range(model.D)) for i in range(dim)
    ]
    return model.subspace(rows)


def _default_chain(model: tate.FiniteTateModel):
    return tuple(_standard_flag(model, i - model.c) for i in (-1, 0, 1))


# --- individual checks ------------------------------------------------------


def check_chart_equivalence(params: dict, seed: int):
    F = _field(params, default_m=2)
    N, n = int(params["N"]), int(params["n"])
    budget = _budget(params)
    sweep = F.order ** (n * (N - n))
    if sweep > budget:
        raise BudgetExceededError(f"{sweep} matrices per chart exceeds budget {budget}")
    counters = {"charts": 0, "matrices": 0, "witnesses": []}
    for W in enumerate_grassmannian(F, N, N - n, subfield_only=True, budget=budget):
        chart = charts.canonical_chart(F, W)
        rep = charts.chart_equivalence_check(F, N, n, chart)
        counters["charts"] += 1
        counters["matrices"] += rep["checked"]
        for A in rep["counterexamples"]:
            counters["witnesses"].append(
                {"kind": "chart_mismatch", "p": F.p, "e": F.e, "m": F.m,
                 "N": N, "n": n, "W": W.basis, "A": A}
            )
    verdict = "pass" if not counters["witnesses"] else "fail"
    return verdict, "exhaustive", counters


def check_trivial_locus_count(params: dict, seed: int):
    F = _field(params, default_m=2)
    N, n = int(params["N"]), int(params["n"])
    budget = _budget(params)
    trivial = set()
    for pt in toysht.enumerate_toysht(F, N, n, budget=budget):
        if toysht.is_trivial(pt.L):
            trivial.add(pt.L)
    rational = set(enumerate_grassmannian(F, N, n, subfield_only=True, budget=budget))
    expected = gauss_binomial(N, n, F.q)
    counters = {
        "trivial": len(trivial),
        "expected": expected,
        "witnesses": [],
    }
    ok = trivial == rational and len(trivial) == expected
    if not ok:
        for L in trivial.symmetric_difference(rational):
            counters["witnesses"].append(
                {"kind": "trivial_locus", "p": F.p, "e": F.e, "m": F.m,
                 "N": N, "n": n, "rows": L.basis}
            )
    return ("pass" if ok else "fail"), "exhaustive", counters


def check_grassmannian_count(params: dict, seed: int):
    F = _field(params, default_m=1)
    N, n = int(params["N"]), int(params["n"])
    count = sum(1 for _ in enumerate_grassmannian(F, N, n, budget=_budget(params)))
    expected = gauss_binomial(N, n, F.order)
    counters = {"count": count, "expected": expected, "witnesses": []}
    ok = count == expected
    if not ok:
        counters["witnesses"].append(
            {"kind": "grass_count", "p": F.p, "e": F.e, "m": F.m, "N": N, "n": n,
             "count": count, "expected": expected}
        )
    return ("pass" if ok else "fail"), "exhaustive", counters


def check_dichotomy(params: dict, seed: int):
    F = _field(params, default_m=2)
    N = int(params["N"])
    budget = _budget(params)
    counters = {"pairs": 0, "witnesses": []}
    subs = []
    for d in range(N + 1):
        subs.extend(enumerate_grassmannian(F, N, d, subfield_only=True, budget=budget))
    for n in range(1, N):
        for pt in toysht.enumerate_toysht(F, N, n, budget=budget):
            for W in subs:
                try:
                    toysht.dichotomy_check(pt, W)
                except AssertionError:
                    counters["witnesses"].append(
                        {"kind": "dichotomy", "p": F.p, "e": F.e, "m": F.m,
                         "N": N, "L": pt.L.basis, "W": W.basis}
                    )
                counters["pairs"] += 1
    verdict = "pass" if not counters["witnesses"] else "fail"
    return verdict, "exhaustive", counters


def check_partial_frobenius_composition(params: dict, seed: int):
    F = _field(params, default_m=2)
    N = int(params["N"])
    budget = _budget(params)
    counters = {"flags": 0, "witnesses": []}
    for n in range(0, N):
        for f in toysht.enumerate_flags(F, N, n, "right", budget=budget):
            back = toysht.partial_frobenius_minus(toysht.partial_frobenius_plus(f))
            counters["flags"] += 1
            if back != f.frobenius_image():
                counters["witnesses"].append(
                    {"kind": "composition", "small": f.small.basis, "big": f.big.basis}
                )
    for n in range(1, N + 1):
        for f in toysht.enumerate_flags(F, N, n, "left", budget=budget):
            back = toysht.partial_frobenius_plus(toysht.partial_frobenius_minus(f))
            counters["flags"] += 1
            if back != f.frobenius_image():
                counters["witnesses"].append(
                    {"kind": "composition", "small": f.small.basis, "big": f.big.basis}
                )
    verdict = "pass" if not counters["witnesses"] else "fail"
    return verdict, "exhaustive", counters


def check_schubert_decomposition(params: dict, seed: int):
    F = _field(params, default_m=2)
    N, n = int(params["N"]), int(params["n"])
    budget = _budget(params)
    rng = random.Random(seed)
    counters = {"centers": 0, "points": 0, "probe_orders": [], "witnesses": []}
    vacuous = True
    locus = divisors.toy_locus(F, N, n, budget=budget)
    for W in enumerate_grassmannian(F, N, N - n, subfield_only=True, budget=budget):
        rep = divisors.schubert_decomposition_check(F, N, n, W, rng=rng, locus=locus)
        counters["centers"] += 1
        counters["points"] += rep["points"]
        if not rep["vacuous"]:
            vacuous = False
        for rows in rep["counterexamples"]:
            counters["witnesses"].append(
                {"kind": "schubert_set", "p": F.p, "e": F.e, "m": F.m,
                 "N": N, "n": n, "W": W.basis, "L": rows}
            )
        for rows in rep["codim2_failures"]:
            counters["witnesses"].append(
                {"kind": "schubert_codim2", "p": F.p, "e": F.e, "m": F.m,
                 "N": N, "n": n, "W": W.basis, "L": rows}
            )
        for orders in rep["probes"].values():
            counters["probe_orders"].extend(orders)
            if any(o != 1 for o in orders):
                counters["witnesses"].append(
                    {"kind": "schubert_multiplicity", "W": W.basis, "orders": orders}
                )
    if vacuous:
        return "vacuous", "exhaustive", counters
    verdict = "pass" if not counters["witnesses"] else "fail"
    return verdict, "probabilistic", counters


def check_radon_duality(params: dict, seed: int):
    F = _field(params, default_m=1)
    N, n = int(params["N"]), int(params["n"])
    budget = _budget(params)
    lines = gauss_binomial(N, 1, F.q)
    if lines > budget:
        raise BudgetExceededError(f"{lines} rational lines exceeds budget {budget}")
    trials = int(params.get("trials", 200))
    rng = random.Random(seed)
    keys = divisors.line_keys(F, N)
    inc = divisors.incidence_lists(F, N)
    counters = {"trials": trials, "witnesses": []}
    # incidence counts behind the inversion, checked exhaustively
    per_hyperplane = gauss_binomial(N - 1, 1, F.q)
    for hk in keys:
        if len(inc[hk]) != per_hyperplane:
            counters["witnesses"].append({"kind": "incidence_count", "H": hk})
    through = dict.fromkeys(keys, 0)
    for hk in keys:
        for jk in inc[hk]:
            through[jk] += 1
    per_line = gauss_binomial(N - 1, N - 2, F.q)
    for jk in keys:
        if through[jk] != per_line:
            counters["witnesses"].append({"kind": "incidence_count", "J": jk})
    p = F.p
    for _ in range(trials):
        vals = [rng.randrange(-9, 10) for _ in keys]
        vals[-1] -= sum(vals)
        denom = rng.randrange(3)
        mu = {k: divisors.PAdicRational(p, v, denom) for k, v in zip(keys, vals)}
        lam = divisors.radon_forward(F, mu, n, N)
        if divisors.radon_backward(F, lam, n, N) != mu:
            counters["witnesses"].append(
                {"kind": "radon_roundtrip", "mu": [(k, str(v)) for k, v in mu.items()]}
            )
    verdict = "pass" if not counters["witnesses"] else "fail"
    return verdict, "exhaustive", counters


def check_transversality_locus(params: dict, seed: int):
    F = _field(params, default_m=1)
    s, t = int(params["s"]), int(params["t"])
    budget = _budget(params)
    sweep = F.order ** (s * t)
    if sweep > budget:
        raise BudgetExceededError(f"{sweep} matrices exceeds budget {budget}")
    from itertools import product as iproduct

    counters = {"matrices": 0, "witnesses": []}
    elems = tuple(F.elements())
    for flat in iproduct(elems, repeat=s * t):
        A = tuple(tuple(flat[i * t : (i + 1) * t]) for i in range(s))
        if not charts.rank_le1(F, A):
            continue
        counters["matrices"] += 1
        for a in range(s):
            for b in range(t):
                if A[a][b] != 0:
                    continue
                got = charts.transversality_check(F, s, t, a, b, A)
                row_zero = all(x == 0 for x in A[a])
                col_zero = all(A[i][b] == 0 for i in range(s))
                expected = not (row_zero and col_zero)
                if got != expected:
                    counters["witnesses"].append(
                        {"kind": "transversality", "p": F.p, "e": F.e,
                         "s": s, "t": t, "a": a, "b": b, "A": A}
                    )
    verdict = "pass" if not counters["witnesses"] else "fail"
    return verdict, "exhaustive", counters


def check_radon_fourier_square(params: dict, seed: int):
    model = _tate_model(params)
    D, c = model.D, model.c
    inner_dim = int(params.get("inner_dim", max(0, -2 - c)))
    outer_dim = int(params.get("outer_dim", D))
    trials = int(params.get("trials", 100))
    inner = _standard_flag(model, inner_dim)
    outer = _standard_flag(model, outer_dim)
    rng = random.Random(seed)
    rep = tate.radon_fourier_commutativity_check(model, inner, outer, trials, rng)
    counters = {"trials": rep["trials"], "failures": rep["failures"], "witnesses": []}
    if rep["failures"]:
        counters["witnesses"].append(
            {"kind": "radon_fourier", "D": D, "c": c, "failures": rep["failures"]}
        )
    return ("pass" if not rep["failures"] else "fail"), "probabilistic", counters


def check_picard_relation(params: dict, seed: int):
    model = _tate_model(params)
    ok = tate.picard_relation_check(model, _default_chain(model))
    counters = {"witnesses": [] if ok else [{"kind": "picard", "D": model.D, "c": model.c}]}
    return ("pass" if ok else "fail"), "exhaustive", counters


def check_gamma_identity(params: dict, seed: int):
    model = _tate_model(params)
    F, D, c = model.field, model.D, model.c
    trials = int(params.get("trials", 50))
    chain = _default_chain(model)
    rng = random.Random(seed)
    counters = {"trials": trials, "witnesses": []}
    p = F.p
    for _ in range(trials):
        f = tate.TateFn.zero(model, "T")
        f.values[0] = divisors.PAdicRational(p, rng.randrange(-6, 7), 0)
        for rep in model.lines():
            v = divisors.PAdicRational(p, rng.randrange(-6, 7), rng.randrange(2))
            for cc in F.elements():
                if cc == 0:
                    continue
                w = tuple(F.mul(cc, x) for x in rep)
                f.values[model.index(w)] = v
        if not tate.gamma_identity_check(model, f, chain):
            counters["witnesses"].append({"kind": "gamma", "D": D, "c": c})
    verdict = "pass" if not counters["witnesses"] else "fail"
    return verdict, "probabilistic", counters


def check_canonical_preimage(params: dict, seed: int):
    model = _tate_model(params)
    F, D, c = model.field, model.D, model.c
    chain = _default_chain(model)
    ok = tate.canonical_preimage_check(model, chain)
    # a perturbed pair must leave the membership set
    g1 = tate.canonical_generators(model, chain)[0]
    bad = tate.TateFn.zero(model, "T*")
    bad.values[model.index(model.lines()[0])] = divisors.PAdicRational(F.p, 1, 0)
    perturbed_ok = tate.fourier(g1[1]) == (g1[0] + bad)
    counters = {"witnesses": []}
    if not ok or perturbed_ok:
        counters["witnesses"].append({"kind": "canonical_preimage", "D": D, "c": c})
    return ("pass" if ok and not perturbed_ok else "fail"), "exhaustive", counters


def check_pullback_multiplicity(params: dict, seed: int):
    F = _field(params, default_m=2)
    N, n = int(params["N"]), int(params["n"])
    divisor_type = params.get("type", "J")
    rng = random.Random(seed)
    rep = divisors.partial_frobenius_divisor_pullback_check(
        F, N, n, divisor_type, rng=rng, budget=_budget(params)
    )
    counters = {
        "flags": rep["flags"],
        "set_failures": len(rep["set_failures"]),
        "probes": {str(k): v for k, v in rep["probes"].items()},
        "witnesses": [],
    }
    ok = not rep["set_failures"]
    for orders in rep["probes"].values():
        for v_id, v_frob in orders:
            if v_id != 1 or v_frob != F.q:
                ok = False
                counters["witnesses"].append(
                    {"kind": "pullback_multiplicity", "orders": [v_id, v_frob]}
                )
    for w in rep["set_failures"]:
        counters["witnesses"].append({"kind": "pullback_set", "flag": w[:2]})
    return ("pass" if ok else "fail"), rep["mode"], counters


def check_selftest_negated(params: dict, seed: int):
    """Deliberately wrong claim, kept for harness self-tests: asserts that a
    nontrivial point is trivial and must therefore fail with a witness."""
    F = _field(params, default_m=2)
    N = int(params.get("N", 2))
    counters = {"witnesses": []}
    for pt in toysht.enumerate_toysht(F, N, 1, nontrivial_only=True):
        if not toysht.is_trivial(pt.L):
            counters["witnesses"].append(
                {"kind": "negated_trivial", "p": F.p, "e": F.e, "m": F.m,
                 "N": N, "rows": pt.L.basis}
            )
            break
    return ("pass" if not counters["witnesses"] else "fail"), "exhaustive", counters


REGISTRY = {
    "chart_equivalence": check_chart_equivalence,
    "schubert_decomposition": check_schubert_decomposition,
    "radon_duality": check_radon_duality,
    "dichotomy": check_dichotomy,
    "partial_frobenius_composition": check_partial_frobenius_composition,
    "radon_fourier_square": check_radon_fourier_square,
    "picard_relation": check_picard_relation,
    "gamma_identity": check_gamma_identity,
    "canonical_preimage": check_canonical_preimage,
    "transversality_locus": check_transversality_locus,
    "pullback_multiplicity": check_pullback_multiplicity,
    "trivial_locus_count": check_trivial_locus_count,
    "grassmannian_count": check_grassmannian_count,
    "selftest_negated": check_selftest_negated,
}

DEFAULT_SUITE = [
    CheckSpec("grassmannian_count", {"p": 2, "e": 1, "m": 1, "N": 4, "n": 2}),
    CheckSpec("trivial_locus_count", {"p": 2, "e": 1, "m": 2, "N": 3, "n": 1}),
    CheckSpec("chart_equivalence", {"p": 2, "e": 1, "m": 2, "N": 3, "n": 1}),
    CheckSpec("dichotomy", {"p": 2, "e": 1, "m": 2, "N": 3}),
    CheckSpec("partial_frobenius_composition", {"p": 2, "e": 1, "m": 2, "N": 3}),
    CheckSpec("schubert_decomposition", {"p": 2, "e": 1, "m": 2, "N": 3, "n": 1}),
    CheckSpec("radon_duality", {"p": 2, "e": 1, "N": 3, "n": 1, "trials": 100}),
    CheckSpec("transversality_locus", {"p": 2, "e": 1, "s": 2, "t": 2}),
    CheckSpec("radon_fourier_square", {"p": 2, "e": 1, "D": 5, "c": -2, "trials": 50}),
    CheckSpec("picard_relation", {"p": 2, "e": 1, "D": 4, "c": -2}),
    CheckSpec("gamma_identity", {"p": 2, "e": 1, "D": 4, "c": -2, "trials": 20}),
    CheckSpec("canonical_preimage", {"p": 2, "e": 1, "D": 4, "c": -2}),
    CheckSpec("pullback_multiplicity", {"p": 2, "e": 1, "m": 2, "N": 3, "n": 1, "type": "J"}),
]


def _raised_witness(spec: CheckSpec, ex: Exception) -> dict:
    """The witness of a check that raised: the check as it ran, with the
    budget pinned for an overrun, and the exception it raised."""
    params = dict(spec.params)
    kind = "exception"
    if isinstance(ex, BudgetExceededError):
        kind = "budget_exceeded"
        params["budget"] = _budget(spec.params)
    return {"kind": kind, "check": spec.name, "params": params, "seed": spec.seed,
            "type": type(ex).__name__, "message": str(ex)}


def run(spec: CheckSpec) -> Report:
    if spec.name not in REGISTRY:
        raise UnknownCheckError(spec.name)
    start = time.monotonic()
    try:
        verdict, mode, counters = REGISTRY[spec.name](spec.params, spec.seed)
    except CHECK_ERRORS as ex:
        # a check that raised certifies nothing, but it must not kill a suite
        verdict, mode = "fail", "exhaustive"
        counters = {"witnesses": [_raised_witness(spec, ex)]}
    elapsed = int((time.monotonic() - start) * 1000)
    return Report(
        name=spec.name,
        params=dict(spec.params),
        verdict=verdict,
        mode=mode,
        counters=counters,
        elapsed_ms=elapsed,
        seed=spec.seed,
    )


def run_suite(specs):
    """Run the given specs in order; exit code 0 unless some check fails."""
    reports = [run(s) for s in specs]
    exit_code = 0 if all(r.verdict != "fail" for r in reports) else 1
    return reports, exit_code


def load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise ConfigParseError(str(ex)) from ex
    entries = doc["suite"] if isinstance(doc, dict) else doc
    specs = []
    try:
        for entry in entries:
            specs.append(
                CheckSpec(
                    name=entry["name"],
                    params=dict(entry.get("params", {})),
                    seed=int(entry.get("seed", 0)),
                )
            )
    except (KeyError, TypeError, AttributeError) as ex:
        raise ConfigParseError(f"malformed suite entry: {ex}") from ex
    return specs


def replay_witness(witness: dict) -> bool:
    """Re-execute a serialized witness; True iff the failure reproduces."""
    kind = witness.get("kind")
    if kind == "negated_trivial":
        F = field_make(witness["p"], witness["e"], witness["m"])
        L = echelonize(F, [tuple(r) for r in witness["rows"]], witness["N"])
        return not toysht.is_trivial(L)
    if kind == "chart_mismatch":
        F = field_make(witness["p"], witness["e"], witness["m"])
        W = echelonize(F, [tuple(r) for r in witness["W"]], witness["N"])
        chart = charts.canonical_chart(F, W)
        A = tuple(tuple(r) for r in witness["A"])
        lhs = toysht.is_toy_shtuka(chart.graph(A))
        rhs = charts.rank_le1(F, charts.artin_schreier(F, A))
        return lhs != rhs
    if kind == "dichotomy":
        F = field_make(witness["p"], witness["e"], witness["m"])
        L = echelonize(F, [tuple(r) for r in witness["L"]], witness["N"])
        W = echelonize(F, [tuple(r) for r in witness["W"]], witness["N"])
        try:
            toysht.dichotomy_check(toysht.ToyPoint(L), W)
        except AssertionError:
            return True
        return False
    if kind == "trivial_locus":
        F = field_make(witness["p"], witness["e"], witness["m"])
        L = echelonize(F, [tuple(r) for r in witness["rows"]], witness["N"])
        rational = set(
            enumerate_grassmannian(F, witness["N"], witness["n"], subfield_only=True)
        )
        return (toysht.is_trivial(L) and L not in rational) or (
            not toysht.is_trivial(L) and L in rational
        )
    if kind in ("budget_exceeded", "exception"):
        # rerun the check; the failure reproduces iff it raises the same type
        try:
            REGISTRY[witness["check"]](dict(witness["params"]), witness["seed"])
        except CHECK_ERRORS as ex:
            return type(ex).__name__ == witness["type"]
        return False
    if kind in ("schubert_set", "schubert_codim2"):
        return _replay_schubert(witness)
    if kind == "transversality":
        F = field_make(witness["p"], witness["e"], 1)
        A = tuple(tuple(r) for r in witness["A"])
        got = charts.transversality_check(
            F, witness["s"], witness["t"], witness["a"], witness["b"], A
        )
        row_zero = all(x == 0 for x in A[witness["a"]])
        col_zero = all(A[i][witness["b"]] == 0 for i in range(witness["s"]))
        return got != (not (row_zero and col_zero))
    raise UnknownCheckError(f"no replay rule for witness kind {kind!r}")


def _replay_schubert(witness: dict) -> bool:
    """Recompute the Schubert claims at (W, L) with direct containment loops
    over the rational subspaces, independent of divisors.toy_locus."""
    F = field_make(witness["p"], witness["e"], witness["m"])
    N = witness["N"]
    W = echelonize(F, [tuple(r) for r in witness["W"]], N)
    L = echelonize(F, [tuple(r) for r in witness["L"]], N)
    if L.dim != witness["n"] or L.is_rational() or not toysht.is_toy_shtuka(L):
        return False
    deficit = divisors.schubert_deficit(L, W)

    def rational(d):
        return enumerate_grassmannian(F, N, d, subfield_only=True)

    if witness["kind"] == "schubert_set":
        horo = any(H.contains(W) and H.contains(L) for H in rational(N - 1)) or any(
            W.contains(J) and L.contains(J) for J in rational(1)
        )
        return (deficit > 0) != horo
    if deficit < 2:
        return False
    return not (
        any(W.contains(P) and L.contains(P) for P in rational(2))
        or any(H.contains(W) and H.contains(L) for H in rational(N - 2))
    )


def _report_doc(reports):
    return {"schema_version": SCHEMA_VERSION, "reports": [asdict(r) for r in reports]}


def _to_json(reports) -> str:
    return json.dumps(_report_doc(reports), indent=2, default=str) + "\n"


def _to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "verdict", "mode", "elapsed_ms", "seed", "params", "counters"])
    for r in reports:
        writer.writerow(
            [r.name, r.verdict, r.mode, r.elapsed_ms, r.seed,
             json.dumps(r.params, default=str), json.dumps(r.counters, default=str)]
        )
    return buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="toyshtlab", description="run verification checks and emit reports"
    )
    parser.add_argument("--config", help="JSON suite file")
    parser.add_argument("--check", help="single registered check to run")
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="parameter override for --check (repeatable)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the report document here")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args(argv)

    if args.check:
        params = {}
        for kv in args.param:
            if "=" not in kv:
                parser.error(f"bad --param {kv!r}")
            k, v = kv.split("=", 1)
            try:
                params[k] = int(v)
            except ValueError:
                params[k] = v
        specs = [CheckSpec(args.check, params, args.seed)]
    elif args.config:
        specs = load_config(args.config)
    else:
        specs = [CheckSpec(s.name, dict(s.params), args.seed) for s in DEFAULT_SUITE]

    reports, exit_code = run_suite(specs)
    text = _to_json(reports) if args.format == "json" else _to_csv(reports)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
