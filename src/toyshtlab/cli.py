"""Batch driver: named verification checks over configurable parameters,
machine-readable reports, and a suite runner with deterministic seeding.

A check maps a parameter dictionary and a seed to a mode, counters and
witnesses: the kind of each failure and the input it failed at, as JSON-native
values.  run() stamps every witness with the spec it came from and fails the
check iff there is one.  CHECKS declares each check with the kinds it emits and
the rule that replays each kind from the stamped shape, with the same parsers.
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
from collections import Counter
from dataclasses import asdict, dataclass, field as dc_field

from . import charts, divisors, tate, toysht
from .errors import (
    BudgetExceededError,
    ConfigParseError,
    DimensionMismatchError,
    ToyshtError,
    UnknownCheckError,
)
from .gf import DEFAULT_BUDGET, field_make, gate, randbelow
from .linalg import echelonize, enumerate_grassmannian, gauss_binomial, rational_subspaces

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


def _ints(*values) -> None:
    """Raise ValueError unless every value is an int that is not a bool, the one
    rule for the integers of a spec or a witness: true, 4.9, "4" or null is refused."""
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{x!r} is not an int")


def _int(params: dict, key: str, default=None) -> int:
    """params[key], or default where a default is given and key is missing,
    read by the rule of _ints."""
    x = params[key] if default is None else params.get(key, default)
    _ints(x)
    return x


def _budget(params: dict) -> int:
    if "budget" in params:
        return _int(params, "budget")
    env = os.environ.get(BUDGET_ENV)
    return int(env) if env else DEFAULT_BUDGET


def _field(params: dict, default_m: int = 1):
    p = _int(params, "p", 2)
    e = _int(params, "e", 1)
    m = _int(params, "m", default_m)
    return field_make(p, e, m, budget=_budget(params))


def _tate_model(params: dict) -> tate.FiniteTateModel:
    """The check's Tate model over F_q, gated up front on its q**D vectors."""
    F = _field(params, default_m=1)
    D, c = _int(params, "D"), _int(params, "c")
    gate(_budget(params), "vectors", F.q, D)
    return tate.FiniteTateModel(F, D, c)


def _standard_flag(model: tate.FiniteTateModel, dim: int):
    return model.subspace([tuple(int(k == i) for k in range(model.D)) for i in range(dim)])


def _default_chain(model: tate.FiniteTateModel):
    return tuple(_standard_flag(model, i - model.c) for i in (-1, 0, 1))


# --- individual checks and their replay rules ---------------------------------


def _list(x, what: str):
    """x, a witness's array (a JSON list, or a tuple where a check in this
    process built it); anything else raises ValueError."""
    if not isinstance(x, (list, tuple)):
        raise ValueError(f"{what} {x!r} is not a list")
    return x


def _vectors(F, width: int, rows) -> list:
    """A witness's rows as tuples of field elements; rows that are not a list
    of lists, a row not of the given width or an entry that is not an int in
    range(F.order) raises."""
    out = [tuple(_list(r, "row")) for r in _list(rows, "rows")]
    for r in out:
        if len(r) != width:
            raise DimensionMismatchError(f"row of length {len(r)}, expected {width}")
        if not all(type(x) is int and 0 <= x < F.order for x in r):
            raise ValueError(f"row {list(r)} has an entry not an int in range({F.order})")
    return out


def _decode(w: dict, *keys):
    """A witness's field and N, and the subspaces spanned by its rows under keys."""
    F = _field(w["params"], default_m=2)
    N = _int(w["params"], "N")
    return (F, N, *(echelonize(F, _vectors(F, N, w[k]), N) for k in keys))


def check_chart_equivalence(params: dict, seed: int):
    F = _field(params, default_m=2)
    N, n = _int(params, "N"), _int(params, "n")
    if not 0 <= n <= N:
        raise DimensionMismatchError(f"need 0 <= n <= N, got n={n} with N={N}")
    gate(budget := _budget(params), "matrices per chart", F.order, n * (N - n))
    # each chart is an N x N change of basis, built also where it holds one matrix
    gate(budget, "chart entries", N, 2)
    if 1 < n < N:
        # gates, and builds, the toy-locus index the chart predicate reads,
        # and gates its reads, every index point per chart; at the other
        # levels every graph is toy and no index is read
        index = toysht.toy_points(F, N, n, budget)
        gate(budget, "(chart, index point) pairs", gauss_binomial(N, n, F.q) * len(index), 1)
    counters = {"charts": 0, "matrices": 0}
    witnesses = []
    centers = rational_subspaces(F, N, N - n, budget)
    atlas = [charts.canonical_chart(F, W) for W in centers]
    for W, rep in zip(centers, charts.chart_equivalence_check(F, N, n, atlas)):
        counters["charts"] += 1
        counters["matrices"] += rep["checked"]
        witnesses += [{"kind": "chart_mismatch", "W": W.basis, "A": A}
                      for A in rep["counterexamples"]]
    return "exhaustive", counters, witnesses


def _replay_chart_mismatch(w: dict) -> bool:
    F, N, W = _decode(w, "W")
    n = _int(w["params"], "n")
    A = tuple(_vectors(F, N - n, w["A"]))
    if len(A) != n or W.dim != N - n:
        raise DimensionMismatchError(f"need A of {n} rows and W of dimension {N - n}")
    # by rank, independent of the point sets the check reads
    lhs = toysht.is_toy_shtuka_by_rank(charts.canonical_chart(F, W).graph(A))
    return lhs != charts.rank_le1(F, charts.artin_schreier(F, A))


def check_trivial_locus_count(params: dict, seed: int):
    F = _field(params, default_m=2)
    N, n, budget = _int(params, "N"), _int(params, "n"), _budget(params)
    # Frobenius-fixedness first, so the toy predicate runs on the trivial points only
    trivial = {L for L in enumerate_grassmannian(F, N, n, budget=budget)
               if toysht.is_trivial(L) and toysht.is_toy_shtuka(L)}
    rational = set(rational_subspaces(F, N, n, budget))
    expected = gauss_binomial(N, n, F.q)
    witnesses = [{"kind": "trivial_locus", "rows": L.basis} for L in trivial ^ rational]
    if len(trivial) != expected:
        witnesses.append({"kind": "trivial_count", "count": len(trivial), "expected": expected})
    return "exhaustive", {"trivial": len(trivial), "expected": expected}, witnesses


def _replay_trivial_locus(w: dict) -> bool:
    F, N, L = _decode(w, "rows")
    n, budget = _int(w["params"], "n"), _budget(w["params"])
    if L.dim != n:
        raise DimensionMismatchError(f"rows span dimension {L.dim}, expected {n}")
    trivial = toysht.is_trivial(L) and toysht.is_toy_shtuka(L)
    return trivial != (L in rational_subspaces(F, N, n, budget))


def check_grassmannian_count(params: dict, seed: int):
    F = _field(params, default_m=1)
    N, n = _int(params, "N"), _int(params, "n")
    count = sum(1 for _ in enumerate_grassmannian(F, N, n, budget=_budget(params)))
    expected = gauss_binomial(N, n, F.order)
    counters = {"count": count, "expected": expected}
    witnesses = [] if count == expected else [{"kind": "grass_count", **counters}]
    return "exhaustive", counters, witnesses


def check_dichotomy(params: dict, seed: int):
    F = _field(params, default_m=2)
    if (N := _int(params, "N")) < 0:
        raise DimensionMismatchError(f"need N >= 0, got N={N}")
    budget = _budget(params)
    counters = {"pairs": 0}
    witnesses = []
    subs = [W for d in range(N + 1) for W in rational_subspaces(F, N, d, budget)]
    for n in range(1, N):
        points = toysht.toy_points(F, N, n, budget)
        for pt, flags in zip(points, toysht.dichotomy_check(points, subs)):
            witnesses += [{"kind": "dichotomy", "L": pt.L.basis, "W": W.basis}
                          for W, pair in zip(subs, flags) if pair == (False, False)]
            counters["pairs"] += len(subs)
    return "exhaustive", counters, witnesses


def _replay_dichotomy(w: dict) -> bool:
    _, _, L, W = _decode(w, "L", "W")
    # by rank, independent of the point sets the check reads
    return not any(toysht.dichotomy_by_rank(toysht.ToyPoint(L), W))


def _frobenius_round_trip(f):
    """plus then minus on a right flag, minus then plus on a left one."""
    if f.kind == "right":
        return toysht.partial_frobenius_minus(toysht.partial_frobenius_plus(f))
    return toysht.partial_frobenius_plus(toysht.partial_frobenius_minus(f))


def check_partial_frobenius_composition(params: dict, seed: int):
    F = _field(params, default_m=2)
    if (N := _int(params, "N")) < 0:
        raise DimensionMismatchError(f"need N >= 0, got N={N}")
    budget = _budget(params)
    counters = {"flags": 0}
    witnesses = []
    for side, levels in (("right", range(0, N)), ("left", range(1, N + 1))):
        for n in levels:
            for f in toysht.flags(F, N, n, side, budget):
                counters["flags"] += 1
                if _frobenius_round_trip(f) != f.frobenius_image():
                    witnesses.append({"kind": "composition", "side": side,
                                      "small": f.small.basis, "big": f.big.basis})
    return "exhaustive", counters, witnesses


def _replay_composition(w: dict) -> bool:
    f = toysht.FlagPoint(*_decode(w, "small", "big")[2:], w["side"])
    f.validate()
    return _frobenius_round_trip(f) != f.frobenius_image()


def check_schubert_decomposition(params: dict, seed: int):
    F = _field(params, default_m=2)
    N, n = _int(params, "N"), _int(params, "n")
    budget = _budget(params)
    rng = random.Random(seed)
    counters = {"centers": 0, "points": 0, "probe_orders": []}
    witnesses = []
    points = [pt.L for pt in toysht.toy_points(F, N, n, budget) if not pt.L.is_rational()]
    for W in rational_subspaces(F, N, N - n, budget):
        rep = divisors.schubert_decomposition_check(F, N, n, W, points, rng=rng)
        counters["centers"] += 1
        counters["points"] += rep["points"]
        witnesses += [{"kind": "schubert_set", "W": W.basis, "L": rows}
                      for rows in rep["counterexamples"]]
        witnesses += [{"kind": "schubert_codim2", "W": W.basis, "L": rows}
                      for rows in rep["codim2_failures"]]
        for orders in rep["probes"].values():
            counters["probe_orders"].extend(orders)
            if any(o != 1 for o in orders):
                witnesses.append({"kind": "schubert_multiplicity", "W": W.basis, "orders": orders})
    return ("probabilistic" if points else "vacuous"), counters, witnesses


def _replay_schubert(witness: dict) -> bool:
    """Recompute the Schubert claims at (W, L) with direct containment loops
    over the rational subspaces, independent of the cached queries
    linalg.rational_over and rational_under that the check reads."""
    params = witness["params"]
    F, N, W, L = _decode(witness, "W", "L")
    if L.dim != _int(params, "n") or L.is_rational() or not toysht.is_toy_shtuka(L):
        return False
    deficit = divisors.schubert_deficit(L, W)

    def rational(d):
        return rational_subspaces(F, N, d, _budget(params))

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


def _trials(params: dict, default: int) -> int:
    """A sampled check's number of trials; 0 is allowed, a negative count raises."""
    if (trials := _int(params, "trials", default)) < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    return trials


def _radon_space(params: dict):
    """The check's field, N and n, gated up front on the rational lines."""
    F = _field(params, default_m=1)
    N, n = _int(params, "N"), _int(params, "n")
    gate(_budget(params), "rational lines", F.q, 1, N)
    return F, N, n


def _radon_round_trips(F, N: int, n: int, vals, denom: int) -> bool:
    """Whether radon_backward inverts radon_forward at vals / p**denom on the line keys."""
    mu = divisors.line_values(F, N, vals, denom)
    return divisors.radon_backward(F, divisors.radon_forward(F, mu, n, N), n, N) == mu


def check_radon_duality(params: dict, seed: int):
    F, N, n = _radon_space(params)
    trials = _trials(params, 200)
    rng = random.Random(seed)
    keys = divisors.line_keys(F, N)
    inc = divisors.incidence_lists(F, N)
    # incidence counts behind the inversion, checked exhaustively
    per_hyperplane = gauss_binomial(N - 1, 1, F.q)
    witnesses = [{"kind": "incidence_count", "H": hk}
                 for hk in keys if len(inc[hk]) != per_hyperplane]
    through = Counter(jk for hk in keys for jk in inc[hk])
    per_line = gauss_binomial(N - 1, N - 2, F.q)
    witnesses += [{"kind": "incidence_count", "J": jk}
                  for jk in keys if through[jk] != per_line]
    for _ in range(trials):
        vals, denom = divisors.zero_sum_draw(rng, len(keys))
        if not _radon_round_trips(F, N, n, vals, denom):
            witnesses.append({"kind": "radon_roundtrip", "vals": vals, "denom": denom})
    return "exhaustive", {"trials": trials}, witnesses


def _replay_radon_roundtrip(w: dict) -> bool:
    F, N, n = _radon_space(w["params"])
    _ints(w["denom"], *_list(w["vals"], "vals"))
    return not _radon_round_trips(F, N, n, w["vals"], w["denom"])


def _transversality_mismatch(A, a: int, b: int, transversal: bool) -> bool:
    """Whether transversality at the zero entry (a, b) of A disagrees with
    'row a or column b is nonzero'."""
    return transversal == (not any(A[a]) and not any(row[b] for row in A))


def check_transversality_locus(params: dict, seed: int):
    F = _field(params, default_m=1)
    s, t = _int(params, "s"), _int(params, "t")
    if min(s, t) < 0:
        raise DimensionMismatchError(f"need s, t >= 0, got s={s}, t={t}")
    # gated on the ambient matrices, though only the cone index is swept
    gate(_budget(params), "matrices", F.order, s * t)
    cone = charts.rank_le1_locus(F, s, t)
    witnesses = []
    for A in cone:
        transversal = charts.transversal_entries(F, s, t, A)
        witnesses += [{"kind": "transversality", "a": a, "b": b, "A": A}
                      for a in range(s) for b in range(t) if A[a][b] == 0
                      and _transversality_mismatch(A, a, b, (a, b) in transversal)]
    return "exhaustive", {"matrices": len(cone)}, witnesses


def _replay_transversality(w: dict) -> bool:
    F = _field(w["params"], default_m=1)
    s, t = _int(w["params"], "s"), _int(w["params"], "t")
    A = tuple(_vectors(F, t, w["A"]))
    if len(A) != s:
        raise DimensionMismatchError(f"A has {len(A)} rows, expected {s}")
    a, b = _int(w, "a"), _int(w, "b")
    if not (0 <= a < s and 0 <= b < t):
        raise ValueError(f"(a, b) = ({a!r}, {b!r}) is not in range({s}) x range({t})")
    return _transversality_mismatch(A, a, b, charts.transversality_check(F, s, t, a, b, A))


def _radon_fourier_pair(params: dict):
    """The check's Tate model and its (inner, outer) lattice pair."""
    model = _tate_model(params)
    dims = (_int(params, "inner_dim", max(0, -2 - model.c)),
            _int(params, "outer_dim", model.D))
    if not all(0 <= d <= model.D for d in dims):
        raise DimensionMismatchError(f"need 0 <= inner_dim, outer_dim <= D={model.D}, got {dims}")
    return (model, *(_standard_flag(model, d) for d in dims))


def check_radon_fourier_square(params: dict, seed: int):
    model, inner, outer = _radon_fourier_pair(params)
    trials = _trials(params, 100)
    rep = tate.radon_fourier_commutativity_check(model, inner, outer, trials, random.Random(seed))
    witnesses = [{"kind": "radon_fourier", "vals": vals, "denom": denom}
                 for vals, denom in rep["counterexamples"]]
    return "probabilistic", {"trials": rep["trials"], "failures": rep["failures"]}, witnesses


def _replay_radon_fourier(w: dict) -> bool:
    model, inner, outer = _radon_fourier_pair(w["params"])
    _ints(w["denom"], *_list(w["vals"], "vals"))
    return not tate.radon_fourier_commutes(model, inner, outer, w["vals"], w["denom"])


def check_picard_relation(params: dict, seed: int):
    model = _tate_model(params)
    ok = tate.picard_relation_check(model, _default_chain(model))
    return "exhaustive", {}, [] if ok else [{"kind": "picard"}]


def _invariant_fn(model: tate.FiniteTateModel, origin: int, lines) -> tate.TateFn:
    """The scalar-invariant function with value origin at 0 and num / p**den
    on the k-th line of model.lines(), for lines[k] = [num, den]."""
    p = model.field.p
    if len(lines) != len(model.lines()):
        raise DimensionMismatchError(f"expected {len(model.lines())} lines, got {len(lines)}")
    k = max([den for _, den in lines] + [0])
    nums = [origin * p**k, *(num * p ** (k - den) for num, den in lines)]
    return tate.TateFn.from_nums(model, "T", nums, k)


def check_gamma_identity(params: dict, seed: int):
    model = _tate_model(params)
    trials = _trials(params, 50)
    chain = _default_chain(model)
    rng = random.Random(seed)
    witnesses = []
    for _ in range(trials):
        origin = randbelow(rng, 13) - 6
        lines = [[randbelow(rng, 13) - 6, randbelow(rng, 2)] for _ in model.lines()]
        if not tate.gamma_identity_check(model, _invariant_fn(model, origin, lines), chain):
            witnesses.append({"kind": "gamma", "origin": origin, "lines": lines})
    return "probabilistic", {"trials": trials}, witnesses


def _replay_gamma(w: dict) -> bool:
    model = _tate_model(w["params"])
    lines = [_list(entry, "line") for entry in _list(w["lines"], "lines")]
    _ints(w["origin"], *(x for entry in lines for x in entry))
    f = _invariant_fn(model, w["origin"], lines)
    return not tate.gamma_identity_check(model, f, _default_chain(model))


def check_canonical_preimage(params: dict, seed: int):
    model = _tate_model(params)
    chain = _default_chain(model)
    ok = tate.canonical_preimage_check(model, chain)
    # a pair perturbed by the indicator of the first line must leave the membership set
    g1 = tate.canonical_generators(model, chain)[0]
    bad = tate.TateFn.from_nums(model, "T*", [int(i == 1) for i in range(1 + len(model.lines()))])
    ok = ok and tate.fourier(g1.f2) != (g1.f1 + bad)
    return "exhaustive", {}, [] if ok else [{"kind": "canonical_preimage"}]


def check_pullback_multiplicity(params: dict, seed: int):
    F = _field(params, default_m=2)
    N, n = _int(params, "N"), _int(params, "n")
    rep = divisors.partial_frobenius_divisor_pullback_check(
        F, N, n, params.get("type", "J"), rng=random.Random(seed), budget=_budget(params)
    )
    counters = {"flags": rep["flags"], "set_failures": len(rep["set_failures"]),
                "probes": {str(k): v for k, v in rep["probes"].items()}}
    witnesses = [{"kind": "pullback_multiplicity", "orders": [v_id, v_frob]}
                 for orders in rep["probes"].values() for v_id, v_frob in orders
                 if v_id != 1 or v_frob != F.q]
    witnesses += [{"kind": "pullback_set", "small": small, "big": big, "marker": mk}
                  for small, big, mk in rep["set_failures"]]
    return rep["mode"], counters, witnesses


def _replay_pullback_set(w: dict) -> bool:
    _, _, small, big, mk = _decode(w, "small", "big", "marker")
    f = toysht.FlagPoint(small, big, "right")
    f.validate()
    image, divisor_type = toysht.partial_frobenius_plus(f), w["params"].get("type", "J")
    return divisors.on_component(image, mk, divisor_type) != divisors.on_component(
        f, mk, divisor_type
    )


def check_selftest_negated(params: dict, seed: int):
    """Deliberately wrong claim, kept for harness self-tests: asserts that a
    nontrivial point is trivial and must therefore fail with a witness."""
    F = _field(params, default_m=2)
    N = _int(params, "N", 2)
    for pt in toysht.toy_points(F, N, 1, _budget(params)):
        if not toysht.is_trivial(pt.L):
            return "exhaustive", {}, [{"kind": "negated_trivial", "rows": pt.L.basis}]
    return "exhaustive", {}, []


def _replay_negated_trivial(w: dict) -> bool:
    F = _field(w["params"], default_m=2)
    N = _int(w["params"], "N", 2)
    L = echelonize(F, _vectors(F, N, w["rows"]), N)
    if L.dim != 1:
        raise DimensionMismatchError(f"rows span dimension {L.dim}, expected 1")
    return not toysht.is_trivial(L)


def _replay_rerun(w: dict) -> bool:
    """Rerun the check from the stamped spec, for the kinds whose input is
    the spec itself or its seeded probes; the failure reproduces iff the
    check raises the same exception type or emits the same witness again;
    a check name that is not registered raises UnknownCheckError."""
    name, params, seed = w["check"], dict(w["params"]), _int(w, "seed")
    if name not in REGISTRY:
        raise UnknownCheckError(f"no check named {name!r}")
    try:
        _, _, again = REGISTRY[name](params, seed)
    except CHECK_ERRORS as ex:
        return type(ex).__name__ == w.get("type")
    payload = {k: v for k, v in w.items() if k not in ("check", "params", "seed")}
    return json.dumps(payload, sort_keys=True) in {json.dumps(x, sort_keys=True) for x in again}


# check name -> (check, {witness kind it emits: replay rule}); REGISTRY and
# the replay dispatch are both read off this one table
CHECKS = {
    "chart_equivalence": (check_chart_equivalence, {"chart_mismatch": _replay_chart_mismatch}),
    "schubert_decomposition": (check_schubert_decomposition, {
        "schubert_set": _replay_schubert,
        "schubert_codim2": _replay_schubert,
        "schubert_multiplicity": _replay_rerun,
    }),
    "radon_duality": (check_radon_duality, {
        "incidence_count": _replay_rerun,
        "radon_roundtrip": _replay_radon_roundtrip,
    }),
    "dichotomy": (check_dichotomy, {"dichotomy": _replay_dichotomy}),
    "partial_frobenius_composition": (
        check_partial_frobenius_composition, {"composition": _replay_composition}
    ),
    "radon_fourier_square": (check_radon_fourier_square, {"radon_fourier": _replay_radon_fourier}),
    "picard_relation": (check_picard_relation, {"picard": _replay_rerun}),
    "gamma_identity": (check_gamma_identity, {"gamma": _replay_gamma}),
    "canonical_preimage": (check_canonical_preimage, {"canonical_preimage": _replay_rerun}),
    "transversality_locus": (
        check_transversality_locus, {"transversality": _replay_transversality}
    ),
    "pullback_multiplicity": (check_pullback_multiplicity, {
        "pullback_multiplicity": _replay_rerun,
        "pullback_set": _replay_pullback_set,
    }),
    "trivial_locus_count": (check_trivial_locus_count, {
        "trivial_locus": _replay_trivial_locus,
        "trivial_count": _replay_rerun,
    }),
    "grassmannian_count": (check_grassmannian_count, {"grass_count": _replay_rerun}),
    "selftest_negated": (check_selftest_negated, {"negated_trivial": _replay_negated_trivial}),
}

REGISTRY = {name: check for name, (check, _) in CHECKS.items()}

# any check may also raise, which run() reports as one of the last two kinds
REPLAY = {kind: rule for _, rules in CHECKS.values() for kind, rule in rules.items()}
REPLAY |= {"budget_exceeded": _replay_rerun, "exception": _replay_rerun}

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


def run(spec: CheckSpec) -> Report:
    if spec.name not in REGISTRY:
        raise UnknownCheckError(spec.name)
    start = time.monotonic()
    # the check runs with its budget pinned, and its witnesses carry it, so
    # that a replay runs under the same budget
    params = dict(spec.params)
    try:
        params["budget"] = _budget(params)
        mode, counters, witnesses = REGISTRY[spec.name](params, spec.seed)
    except CHECK_ERRORS as ex:
        # a check that raised certifies nothing, but it must not kill a suite
        kind = "budget_exceeded" if isinstance(ex, BudgetExceededError) else "exception"
        mode, counters = "exhaustive", {}
        witnesses = [{"kind": kind, "type": type(ex).__name__, "message": str(ex)}]
    elapsed = int((time.monotonic() - start) * 1000)
    if witnesses:
        stamp = {"check": spec.name, "params": params, "seed": spec.seed}
        witnesses = [{"kind": w["kind"], **stamp, **w} for w in witnesses]
    counters["witnesses"] = witnesses
    return Report(
        name=spec.name,
        params=dict(spec.params),
        verdict="fail" if witnesses else "vacuous" if mode == "vacuous" else "pass",
        # a vacuous sweep is exhaustive over nothing
        mode="exhaustive" if mode == "vacuous" else mode,
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
    """The specs of a JSON suite: a list of entries, or an object whose "suite"
    is one.  An entry is an object with a registered "name", and optionally a
    "params" object and an int "seed"; else ConfigParseError, before any run."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise ConfigParseError(str(ex)) from ex
    entries = doc.get("suite") if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise ConfigParseError('a suite is a list of entries, or an object with a "suite" list')
    specs = []
    for e in entries:
        if not isinstance(e, dict) or not isinstance(e.get("name"), str):
            why = "not an object with a check name"
        elif e["name"] not in REGISTRY:
            why = f"unknown check {e['name']!r}"
        elif not isinstance(params := e.get("params", {}), dict):
            why = "params is not an object"
        elif type(seed := e.get("seed", 0)) is not int:
            why = "seed is not an int"
        else:
            specs.append(CheckSpec(e["name"], dict(params), seed))
            continue
        raise ConfigParseError(f"malformed suite entry {e!r}: {why}")
    return specs


def replay_witness(witness: dict) -> bool:
    """Re-execute a stamped witness against the library; True iff the failure
    reproduces."""
    kind = witness.get("kind")
    if kind not in REPLAY:
        raise UnknownCheckError(f"no replay rule for witness kind {kind!r}")
    if not isinstance(witness.get("params", {}), dict):
        raise ValueError(f"params {witness['params']!r} is not an object")
    return REPLAY[kind](witness)


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
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--config", help="JSON suite file")
    mode.add_argument("--check", help="single registered check to run")
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
    if args.param and not args.check:
        parser.error("--param applies only to --check")

    if args.check:
        if args.check not in REGISTRY:
            parser.error(f"unknown check {args.check!r}")
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
        try:
            specs = load_config(args.config)
        except ConfigParseError as ex:
            parser.error(str(ex))
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
