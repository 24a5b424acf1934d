import copy
import inspect
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import count_calls, edited
from toyshtlab import charts, cli, divisors, linalg, tate, toysht
from toyshtlab.cli import (
    DEFAULT_SUITE,
    REGISTRY,
    REPLAY,
    CheckSpec,
    load_config,
    main,
    replay_witness,
    run,
    run_suite,
)
from toyshtlab.errors import ConfigParseError, DimensionMismatchError, UnknownCheckError
from toyshtlab.gf import Field, field_make
from toyshtlab.linalg import echelonize
from toyshtlab.toysht import enumerate_toysht

F4 = field_make(2, 1, 2)
F9 = field_make(3, 1, 2)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_registry_names():
    expected = {
        "chart_equivalence",
        "schubert_decomposition",
        "radon_duality",
        "dichotomy",
        "partial_frobenius_composition",
        "radon_fourier_square",
        "picard_relation",
        "gamma_identity",
        "canonical_preimage",
        "transversality_locus",
        "pullback_multiplicity",
        "trivial_locus_count",
        "grassmannian_count",
        "selftest_negated",
    }
    assert expected <= set(REGISTRY)


def test_run_radon_duality():
    r = run(CheckSpec("radon_duality", {"p": 2, "e": 1, "N": 3, "n": 1, "trials": 100}))
    assert r.verdict == "pass" and r.mode == "exhaustive"
    assert r.counters["trials"] == 100


def test_run_grassmannian_count():
    r = run(CheckSpec("grassmannian_count", {"p": 2, "e": 1, "m": 1, "N": 4, "n": 2}))
    assert r.verdict == "pass"
    assert r.counters["count"] == 35


def test_run_schubert_vacuous():
    r = run(CheckSpec("schubert_decomposition", {"p": 2, "e": 1, "m": 1, "N": 4, "n": 2}))
    assert r.verdict == "vacuous"


def test_unknown_check():
    with pytest.raises(UnknownCheckError):
        run(CheckSpec("no_such_check", {}))


def test_run_suite_empty():
    reports, code = run_suite([])
    assert reports == [] and code == 0


def test_selftest_negated_fails_with_replayable_witness():
    r = run(CheckSpec("selftest_negated", {"p": 2, "e": 1, "m": 2, "N": 2}))
    assert r.verdict == "fail"
    witnesses = r.counters["witnesses"]
    assert witnesses
    assert replay_witness(witnesses[0])


def test_suite_exit_codes():
    specs = [
        CheckSpec("grassmannian_count", {"p": 2, "e": 1, "m": 1, "N": 3, "n": 1}),
        CheckSpec("selftest_negated", {"p": 2, "e": 1, "m": 2, "N": 2}),
    ]
    reports, code = run_suite(specs)
    assert code == 1
    assert [r.verdict for r in reports] == ["pass", "fail"]
    reports, code = run_suite(specs[:1])
    assert code == 0


def test_reports_stable_for_fixed_seed():
    spec = CheckSpec(
        "schubert_decomposition", {"p": 2, "e": 1, "m": 2, "N": 3, "n": 1}, seed=11
    )
    a, b = run(spec), run(copy.deepcopy(spec))
    a.elapsed_ms = b.elapsed_ms = 0
    assert a == b


def test_config_loading(tmp_path):
    cfg = tmp_path / "suite.json"
    cfg.write_text(
        json.dumps(
            {
                "suite": [
                    {"name": "grassmannian_count",
                     "params": {"p": 2, "e": 1, "m": 1, "N": 3, "n": 1},
                     "seed": 5}
                ]
            }
        )
    )
    specs = load_config(str(cfg))
    assert specs == [
        CheckSpec("grassmannian_count", {"p": 2, "e": 1, "m": 1, "N": 3, "n": 1}, 5)
    ]
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigParseError):
        load_config(str(bad))
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"suite": [{"params": {}}]}))
    with pytest.raises(ConfigParseError):
        load_config(str(malformed))


@pytest.mark.parametrize("entry", [{"name": "grassmannian_count", "seed": "x"},
                                   {"name": "grassmannian_count", "params": ["abc"]}])
def test_load_config_rejects_entries_that_do_not_convert(tmp_path, entry):
    # int("x") and dict(["abc"]) raise ValueError, reported as a parse error
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"suite": [entry]}))
    with pytest.raises(ConfigParseError, match="malformed suite entry"):
        load_config(str(cfg))


GOOD_ENTRY = {"name": "grassmannian_count", "params": {"p": 2, "e": 1, "m": 1, "N": 3, "n": 1}}


@pytest.mark.parametrize("doc,why", [
    ({}, '"suite" list'),
    ({"suite": {"name": "grassmannian_count"}}, '"suite" list'),
    ([{"name": "grassmannian_count", "seed": True}], "seed is not an int"),
    ([{"name": "grassmannian_count", "seed": 2.7}], "seed is not an int"),
    ([{"name": "grassmannian_count", "seed": "3"}], "seed is not an int"),
    ([{"name": "grassmannian_count", "params": [["N", 2]]}], "params is not an object"),
    ([GOOD_ENTRY, {"name": "no_such_check"}], "unknown check 'no_such_check'"),
    ([GOOD_ENTRY, "grassmannian_count"], "not an object with a check name"),
])
def test_load_config_rejects_what_is_not_a_suite(tmp_path, doc, why):
    # no seed but an int, no params but an object, no unknown name, even
    # after valid entries: every entry is checked before any check runs
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(doc))
    with pytest.raises(ConfigParseError, match=why):
        load_config(str(cfg))


def test_load_config_takes_a_bare_list_and_int_seeds(tmp_path):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps([{**GOOD_ENTRY, "seed": -3}, {"name": "selftest_negated"}]))
    assert load_config(str(cfg)) == [CheckSpec("grassmannian_count", GOOD_ENTRY["params"], -3),
                                     CheckSpec("selftest_negated", {}, 0)]


@pytest.mark.parametrize("doc", [{}, [GOOD_ENTRY, {"name": "no_such_check"}],
                                 [{"name": "grassmannian_count", "seed": "3"}]])
def test_main_reports_a_bad_config_as_a_usage_error(tmp_path, capsys, doc):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["--config", str(cfg), "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    # argparse's usage, then one line naming the fault
    assert err[0].startswith("usage: toyshtlab")
    assert all(line.startswith(" ") for line in err[1:-1])
    assert err[-1].startswith("toyshtlab: error: ") and not out.exists()


def test_main_reports_an_unknown_check_as_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--check", "no_such_check"])
    assert exit_info.value.code == 2
    assert "toyshtlab: error: unknown check 'no_such_check'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,fault", [
    # beside --check, a --config (even an invalid one) was never read
    (["--check", "grassmannian_count", "--param", "N=3", "--param", "n=1",
      "--config", "{cfg}"], "not allowed with argument"),
    # without --check, every --param was ignored
    (["--param", "N=3"], "--param applies only to --check"),
    (["--config", "{cfg}", "--param", "N=3"], "--param applies only to --check"),
])
def test_main_rejects_a_flag_it_would_drop(tmp_path, capsys, argv, fault):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{}")
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exit_info:
        main([a.format(cfg=cfg) for a in argv] + ["--out", str(out)])
    assert exit_info.value.code == 2
    assert fault in capsys.readouterr().err.splitlines()[-1]
    assert not out.exists()


def test_main_single_check_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        ["--check", "grassmannian_count", "--param", "N=4", "--param", "n=2",
         "--param", "m=1", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "toyshtlab-report-v1"
    assert doc["reports"][0]["counters"]["count"] == 35


def test_main_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    code = main(
        ["--check", "picard_relation", "--param", "D=4", "--param", "c=-2",
         "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("name,verdict,mode")
    assert lines[1].startswith("picard_relation,pass")


def test_main_config_with_failure(tmp_path):
    cfg = tmp_path / "suite.json"
    cfg.write_text(
        json.dumps(
            {"suite": [{"name": "selftest_negated",
                        "params": {"p": 2, "e": 1, "m": 2, "N": 2}}]}
        )
    )
    out = tmp_path / "r.json"
    code = main(["--config", str(cfg), "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert replay_witness(doc["reports"][0]["counters"]["witnesses"][0])


def test_default_suite_all_pass():
    reports, code = run_suite([copy.deepcopy(s) for s in DEFAULT_SUITE])
    assert code == 0
    assert all(r.verdict == "pass" for r in reports)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("TOYSHT_BUDGET", "4")
    r = run(CheckSpec("grassmannian_count", {"p": 2, "e": 1, "m": 1, "N": 3, "n": 1}))
    assert r.verdict == "fail"
    assert r.counters["witnesses"][0]["kind"] == "budget_exceeded"
    # a budget overrun does not abort the rest of a suite; the Tate model
    # of picard_relation has 2**D vectors, so only D=2 fits the budget
    reports, code = run_suite(
        [
            CheckSpec("grassmannian_count", {"p": 2, "e": 1, "m": 1, "N": 3, "n": 1}),
            CheckSpec("picard_relation", {"p": 2, "e": 1, "D": 4, "c": -2}),
            CheckSpec("picard_relation", {"p": 2, "e": 1, "D": 2, "c": -1}),
        ]
    )
    assert [x.verdict for x in reports] == ["fail", "fail", "pass"] and code == 1
    monkeypatch.delenv("TOYSHT_BUDGET")


def test_budget_env_bounds_dichotomy(monkeypatch):
    monkeypatch.setenv("TOYSHT_BUDGET", "100")
    r = run(CheckSpec("dichotomy", {"p": 2, "e": 1, "m": 2, "N": 4}))
    assert r.verdict == "fail"
    (w,) = r.counters["witnesses"]
    assert w["kind"] == "budget_exceeded" and w["params"]["budget"] == 100
    assert replay_witness(w)


def test_dichotomy_makes_one_elimination_per_pair(monkeypatch):
    # the rank path, which odd characteristic runs (F_9, N = 3); point sets
    # (p = 2) make none, see the next test
    calls = count_calls(monkeypatch, linalg.rref)
    r = run(CheckSpec("dichotomy", {"p": 3, "e": 1, "m": 2, "N": 3}))
    assert r.verdict == "pass"
    eliminations = len(calls)
    points = sum(1 for n in (1, 2) for _ in enumerate_toysht(F9, 3, n))
    assert r.counters["pairs"] == 28 * points == 5096
    # one rref per toy plane (the predicate; lines need none), one per flag
    # of the 156 nontrivial points (a trivial point reads no flag), and one
    # M + W per value of (M, W) in a level's call: M = L cap sigma L of a
    # nontrivial plane is one of the 13 rational lines, against the 26
    # rational W of dimension 1 or 2, while a nontrivial line has M = 0,
    # and W = 0 or F^3 is a summand span_sum returns as it is.  One
    # elimination per (nontrivial plane, W) pair would be 78 * 26 = 2,028.
    assert eliminations == 91 + 156 + 13 * 26 == 585 < 91 + 156 + 78 * 26


def test_odd_p_rank_path_makes_no_negation_and_checks_each_center_once(monkeypatch):
    # rref and Subspace.reduce clear rows through Field.axmy, so an odd-p
    # elimination, reduction and dichotomy sweep make no Field.neg call; the
    # sweep makes one dichotomy_check call per level, N - 1 = 2, and each
    # checks each center for rationality once
    negs = count_calls(monkeypatch, Field.neg)
    rationals = count_calls(monkeypatch, linalg.Subspace.is_rational)
    checks = count_calls(monkeypatch, toysht.dichotomy_check)
    F27 = field_make(3, 1, 3)
    rng = random.Random(33)
    mat = [tuple(rng.randrange(F27.order) for _ in range(6)) for _ in range(4)]
    S = echelonize(F27, mat[:3], 6)
    assert S.dim == 3 and not S.contains_vector(mat[3])
    for F, p in ((F9, 3), (F4, 2)):
        rationals.clear()
        checks.clear()
        subs = [W for d in range(4) for W in linalg.rational_subspaces(F, 3, d)]
        r = run(CheckSpec("dichotomy", {"p": p, "e": 1, "m": 2, "N": 3}))
        assert r.verdict == "pass" and len(checks) == 2
        ids = {id(W) for W in subs}
        assert Counter(id(W) for W, in rationals if id(W) in ids) == dict.fromkeys(ids, 2)
    assert negs == []
    F9.neg(1)  # the counter is live
    assert len(negs) == 1


def test_point_set_checks_make_no_elimination_per_pair(monkeypatch):
    # on point sets (F_4, N = 3) the dichotomy makes no elimination at all,
    # and chart_equivalence only the one of each Chart, none per matrix
    calls = count_calls(monkeypatch, linalg.rref)
    r = run(CheckSpec("dichotomy", {**F4P, "N": 3}))
    assert r.verdict == "pass" and r.counters["pairs"] == 672 and calls == []
    for n in (1, 2):
        calls.clear()
        r = run(CheckSpec("chart_equivalence", {**F4P, "N": 3, "n": n}))
        assert r.verdict == "pass"
        assert len(calls) == r.counters["charts"] < r.counters["matrices"]


def test_transversality_sweep_makes_one_elimination_per_cone_matrix(monkeypatch):
    # F_3, 3 x 3: 339 cone matrices, one Jacobian elimination per nonzero
    # one (not one per zero entry) and no rank computed.  The Jacobian reads
    # -A off the log table, so no Field.neg call is made, where two per 2 x 2
    # minor of each nonzero matrix would be 2 * 9 * 338 = 6,084
    rrefs = count_calls(monkeypatch, linalg.rref)
    ranks = count_calls(monkeypatch, charts.rank_le1)
    negs = count_calls(monkeypatch, Field.neg)
    r = run(CheckSpec("transversality_locus", {"p": 3, "e": 1, "s": 3, "t": 3}))
    assert r.verdict == "pass" and r.counters["matrices"] == 339
    assert len(rrefs) <= 338 and ranks == [] and negs == []


def test_flag_checks_enumerate_each_flag_level_once(monkeypatch):
    # the default suite's two flag checks, at two seeds, twice: every flag
    # level is streamed once, into the flag index, and read from it after
    calls = count_calls(monkeypatch, toysht.enumerate_flags)
    specs = [CheckSpec(s.name, dict(s.params), seed) for s in cli.DEFAULT_SUITE
             if s.name in ("partial_frobenius_composition", "pullback_multiplicity")
             for seed in (0, 1)]
    first = [run(s) for s in specs]
    second = [run(s) for s in specs]
    for a, b in zip(first, second):
        assert a.verdict == "pass"
        a.elapsed_ms = b.elapsed_ms = 0
        assert a == b
    levels = Counter((N, n, kind) for _, N, n, kind, _ in calls)
    assert levels == Counter([(3, n, "right") for n in (0, 1, 2)]
                             + [(3, n, "left") for n in (1, 2, 3)])


def test_chart_sweep_reads_ranks_off_the_cone(monkeypatch):
    ranks = count_calls(monkeypatch, charts.rank_le1)
    r = run(CheckSpec("chart_equivalence", {**F4P, "N": 3, "n": 1}))
    assert r.verdict == "pass" and r.counters["matrices"] == 7 * 16 and ranks == []


def test_chart_sweep_checks_each_matrix_against_the_cone_once(monkeypatch):
    # F_4, N = 4, n = 2: 35 charts of the same 256 matrices, whose images
    # are taken once per row value (16) and looked up in the cone once per
    # run, not once per chart (35 * 16 = 560 images)
    images = count_calls(monkeypatch, charts.artin_schreier)
    cones = count_calls(monkeypatch, charts.rank_le1_locus)
    r = run(CheckSpec("chart_equivalence", {**F4P, "N": 4, "n": 2}))
    assert r.verdict == "pass" and r.counters["charts"] == 35
    assert r.counters["matrices"] == 35 * 256
    assert len(images) == 16 and len(cones) == 1


@pytest.mark.parametrize("field,N,n", [(F4, 3, 1), (F9, 4, 2)], ids=["F4-3-1", "F9-4-2"])
def test_trivial_locus_count_tests_frobenius_before_the_toy_predicate(monkeypatch, field, N, n):
    # every subspace is tested for Frobenius-fixedness, the toy predicate
    # runs on the gauss_binomial(N, n, q) rational ones only, and no toy
    # locus is enumerated or indexed
    streams = count_calls(monkeypatch, toysht.enumerate_toysht)
    predicates = count_calls(monkeypatch, toysht.is_toy_shtuka)
    spec = {"p": field.p, "e": field.e, "m": field.m, "N": N, "n": n}
    r = run(CheckSpec("trivial_locus_count", spec))
    rational = linalg.gauss_binomial(N, n, field.q)
    assert r.verdict == "pass" and r.counters["trivial"] == rational
    assert streams == [] and toysht._toy_points.cache_info().currsize == 0
    assert len(predicates) == rational
    r = run(CheckSpec("trivial_locus_count", {**spec, "budget": 20}))
    assert r.counters["witnesses"][0]["kind"] == "budget_exceeded"


def test_trivial_locus_count_fails_where_the_toy_predicate_rejects_rational_points(monkeypatch):
    # the toy predicate still decides membership of the trivial points: one
    # that rejects every rational subspace empties the trivial locus
    original = toysht.is_toy_shtuka
    monkeypatch.setattr(toysht, "is_toy_shtuka", lambda L: not L.is_rational() and original(L))
    r = run(CheckSpec("trivial_locus_count", {**F4P, "N": 3, "n": 1}))
    assert r.verdict == "fail" and r.counters["trivial"] == 0
    witnesses = r.counters["witnesses"]
    assert Counter(w["kind"] for w in witnesses) == {"trivial_locus": 7, "trivial_count": 1}
    assert all(replay_witness(w) for w in witnesses)
    monkeypatch.undo()
    assert not any(replay_witness(w) for w in witnesses)


@pytest.mark.parametrize("name", ["dichotomy", "partial_frobenius_composition"])
def test_sweeps_over_every_dimension_reject_a_negative_N(name):
    for N in (-1, -2):
        r = run(CheckSpec(name, {**F4P, "N": N}))
        assert r.verdict == "fail"
        (w,) = r.counters["witnesses"]
        assert (w["kind"], w["type"]) == ("exception", "DimensionMismatchError")
        assert replay_witness(w)
    # N = 0 has nothing to sweep and passes
    r = run(CheckSpec(name, {**F4P, "N": 0}))
    assert r.verdict == "pass" and r.counters["witnesses"] == []


@pytest.mark.parametrize("name,params,sound", [
    ("radon_duality", {"p": 2, "e": 1, "N": 0, "n": 1}, {"N": 3}),
    ("radon_duality", {"p": 2, "e": 1, "N": -1, "n": 1}, {"N": 3}),
    ("gamma_identity", {"p": 2, "e": 1, "D": 0, "c": -2}, {"D": 4}),
], ids=["radon_N0", "radon_N-1", "gamma_D0"])
def test_a_space_with_no_lines_is_a_dimension_report(name, params, sound):
    # singer_table reads the line keys before it builds anything, so a space
    # with no rational lines raises DimensionMismatchError and no other error
    r = run(CheckSpec(name, {**params, "trials": 2}))
    assert r.verdict == "fail"
    (w,) = r.counters["witnesses"]
    assert (w["kind"], w["type"]) == ("exception", "DimensionMismatchError")
    assert replay_witness(w)
    assert not replay_witness({**w, "params": {**w["params"], **sound}})


def test_toy_locus_is_enumerated_once(monkeypatch):
    # dichotomy (levels 1, 2) and partial_frobenius_composition (levels
    # 0..3) on F_4, N = 3, twice and at two seeds, read one toy index: one
    # enumeration per level
    calls = []
    original = toysht.enumerate_toysht

    def counted(field, N, n, *args, **kwargs):
        calls.append((N, n))
        return original(field, N, n, *args, **kwargs)

    monkeypatch.setattr(toysht, "enumerate_toysht", counted)
    for _ in range(2):
        for seed in (0, 1):
            for name in ("dichotomy", "partial_frobenius_composition"):
                assert run(CheckSpec(name, {**F4P, "N": 3}, seed)).verdict == "pass"
    assert sorted(calls) == [(3, n) for n in range(4)]


def test_chart_sweep_reads_the_index_once_per_chart(monkeypatch):
    # F_4, N = 4, n = 2: 35 charts of 256 matrices; with the toy-locus index
    # warm, each chart reads the point set of each of the 245 index points
    # once, and no matrix spans its graph
    index = {pt.L for pt in toysht.toy_points(F4, 4, 2)}
    spans, reads = [], []
    span, points = linalg.Packing.span, linalg.Subspace.points
    monkeypatch.setattr(linalg.Packing, "span", lambda pk, rows: spans.append(rows) or span(pk, rows))
    monkeypatch.setattr(linalg.Subspace, "points", lambda L: reads.append(L) or points(L))
    r = run(CheckSpec("chart_equivalence", {**F4P, "N": 4, "n": 2}))
    assert r.verdict == "pass" and r.counters["matrices"] == 8960
    assert spans == [] and len(index) == 245
    assert Counter(reads) == {L: r.counters["charts"] for L in index}
    assert r.counters["charts"] == 35


def test_schubert_probes_take_one_normal_per_component(monkeypatch):
    # F_4, N = 4, n = 2 at seed 0: 105 (W, H) components, each probed
    # several times, and one perp per component
    calls = []
    original = charts.perp

    def counted(sub):
        calls.append(sub)
        return original(sub)

    monkeypatch.setattr(charts, "perp", counted)
    r = run(CheckSpec("schubert_decomposition", {**F4P, "N": 4, "n": 2}, seed=0))
    assert r.verdict == "pass"
    assert 0 < len(calls) <= 105


# the quotient side of the point-set dichotomy kernel, which the next two
# tests break
QUOTIENT_TEST = "(S & W).bit_count() == (L & W).bit_count() * ratio"


def test_dichotomy_verdict_survives_optimized_python():
    # python -O strips assert statements; a broken quotient test must still
    # fail, on the test each characteristic runs: point sets at p = 2 and the
    # line test of the rank path at p = 3
    source = inspect.getsource(toysht.dichotomy_check).replace(QUOTIENT_TEST, "False")
    cases = [
        (f"exec(compile({source!r}, toysht.__file__, 'exec'), vars(toysht))", 2, "98"),
        ("toysht._in_line = lambda field, v, l: False", 3, "936"),
    ]
    env = {k: v for k, v in os.environ.items() if k != "TOYSHT_BUDGET"}
    env["PYTHONPATH"] = SRC
    for patch, p, count in cases:
        code = "\n".join([
            "from toyshtlab import cli, toysht",
            patch,
            f"r = cli.run(cli.CheckSpec('dichotomy', {{'p': {p}, 'e': 1, 'm': 2, 'N': 3}}))",
            "print(r.verdict, len(r.counters['witnesses']))",
        ])
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["fail", count], patch


def test_replays_do_not_read_point_sets(monkeypatch):
    # a defect of the point-set kernel fails the checks, but its witnesses do
    # not replay: the replays decide by rank
    monkeypatch.setattr(toysht, "dichotomy_check",
                        edited(toysht, "dichotomy_check", QUOTIENT_TEST, "False"))
    monkeypatch.setattr(charts, "_toy_matrices", lambda F, N, n, chart: set())
    for spec in (CheckSpec("dichotomy", {**F4P, "N": 3}),
                 CheckSpec("chart_equivalence", {**F4P, "N": 3, "n": 2})):
        r = run(spec)
        assert r.verdict == "fail"
        assert not any(replay_witness(w) for w in r.counters["witnesses"])


def test_pullback_probe_invariant_failure_is_a_report(monkeypatch):
    # with a broken pairing the base point seems off the component; the probe
    # raises NotOnVarietyError, which the suite reports and replays
    monkeypatch.delenv("TOYSHT_BUDGET", raising=False)
    monkeypatch.setattr(charts, "pairing", lambda field, a, b: 1)
    spec = CheckSpec("pullback_multiplicity", {**F4P, "N": 3, "n": 1, "type": "J"})
    (r,), code = run_suite([spec])
    assert r.verdict == "fail" and code == 1
    (w,) = r.counters["witnesses"]
    assert (w["kind"], w["type"]) == ("exception", "NotOnVarietyError")
    assert w["message"] == "base point is off the component"
    assert replay_witness(w)
    monkeypatch.undo()
    assert not replay_witness(w)


@pytest.mark.parametrize(
    "name,params",
    [
        ("trivial_locus_count", {"N": 3, "n": 1}),
        ("chart_equivalence", {"N": 4, "n": 2}),
        ("schubert_decomposition", {"N": 3, "n": 1}),
        ("partial_frobenius_composition", {"N": 3}),
        ("pullback_multiplicity", {"N": 3, "n": 1, "type": "J"}),
        ("selftest_negated", {"N": 3}),
    ],
)
def test_budget_bounds_locus_checks(name, params):
    spec = CheckSpec(name, {"p": 2, "e": 1, "m": 2, **params, "budget": 10})
    r = run(spec)
    assert r.verdict == "fail"
    (w,) = r.counters["witnesses"]
    assert w["kind"] == "budget_exceeded"
    assert replay_witness(w)
    # negated: under a budget that covers the check there is no overrun
    assert not replay_witness({**w, "params": {**w["params"], "budget": 1 << 20}})


@pytest.mark.parametrize(
    "name,params",
    [
        # 35 centers fit the budget; the 4^4 matrices per center do not
        ("chart_equivalence", {"N": 4, "n": 2}),
        ("transversality_locus", {"s": 2, "t": 2}),
    ],
)
def test_budget_bounds_matrix_sweeps(name, params):
    r = run(CheckSpec(name, {"p": 2, "e": 1, "m": 2, **params, "budget": 100}))
    assert r.verdict == "fail"
    (w,) = r.counters["witnesses"]
    assert w["kind"] == "budget_exceeded" and w["params"]["budget"] == 100
    assert replay_witness(w)
    assert not replay_witness({**w, "params": {**w["params"], "budget": 1 << 20}})


def test_chart_sweep_gates_the_toy_locus_it_reads():
    # F_4, N = 4, n = 2: 256 matrices per chart fit a budget of 300, the 357
    # subspaces of the toy-locus index the predicate reads do not
    r = run(CheckSpec("chart_equivalence", {**F4P, "N": 4, "n": 2, "budget": 300}))
    (w,) = r.counters["witnesses"]
    assert w["kind"] == "budget_exceeded" and "357 subspaces" in w["message"]
    assert replay_witness(w)
    # at n = 1 every graph is toy and no index is read: 16 matrices per
    # chart fit, though the 21 lines of F_4^3 would not
    r = run(CheckSpec("chart_equivalence", {**F4P, "N": 3, "n": 1, "budget": 16}))
    assert r.verdict == "pass" and r.counters["matrices"] == 7 * 16


@pytest.mark.parametrize(
    "name,params",
    [
        # q**D model vectors: 32 and 81; radon_duality: 121 rational lines
        ("radon_fourier_square", {"p": 2, "D": 5, "c": -2, "trials": 5}),
        ("gamma_identity", {"p": 3, "D": 4, "c": -2, "trials": 5}),
        ("picard_relation", {"p": 3, "D": 4, "c": -2}),
        ("canonical_preimage", {"p": 3, "D": 4, "c": -2}),
        ("radon_duality", {"p": 3, "N": 5, "n": 2, "trials": 5}),
    ],
)
def test_budget_bounds_tate_checks(name, params):
    r = run(CheckSpec(name, {"e": 1, **params, "budget": 10}))
    assert r.verdict == "fail"
    (w,) = r.counters["witnesses"]
    assert w["kind"] == "budget_exceeded" and w["params"]["budget"] == 10
    assert replay_witness(w)
    assert not replay_witness({**w, "params": {**w["params"], "budget": 1 << 20}})


@pytest.mark.parametrize("name", [
    "radon_fourier_square", "picard_relation", "gamma_identity", "canonical_preimage"])
def test_a_negative_tate_dimension_is_refused_by_name(name):
    r = run(CheckSpec(name, {"p": 2, "e": 1, "D": -1, "c": 0}))
    (w,) = r.counters["witnesses"]
    assert r.verdict == "fail" and w["kind"] == "exception"
    assert (w["type"], w["message"]) == ("DimensionMismatchError", "the Tate model needs D >= 0, got D=-1")
    assert replay_witness(w)
    assert not replay_witness({**w, "params": {**w["params"], "D": 2}})


def test_check_exceptions_become_reports():
    specs = [
        CheckSpec("radon_fourier_square", {"p": 2, "e": 1, "D": 3, "c": 0}),
        CheckSpec("chart_equivalence", {"p": 2, "e": 1, "m": 2, "N": 3}),
        # an unparsable budget cannot be pinned, so the witness keeps it as given
        CheckSpec("grassmannian_count", {"p": 2, "N": 3, "n": 1, "budget": "lots"}),
        CheckSpec("picard_relation", {"p": 2, "e": 1, "D": 4, "c": -2}),
    ]
    reports, code = run_suite(specs)
    assert [r.verdict for r in reports] == ["fail", "fail", "fail", "pass"] and code == 1
    types = []
    for r in reports[:3]:
        (w,) = r.counters["witnesses"]
        assert w["kind"] == "exception" and w["check"] == r.name
        types.append(w["type"])
        assert replay_witness(w)
        assert not replay_witness({**w, "type": "ZeroDivisionError"})
    assert types == ["NotAdmissibleError", "KeyError", "ValueError"]
    # negated: with the missing parameter supplied the check no longer raises
    w = reports[1].counters["witnesses"][0]
    assert not replay_witness({**w, "params": {**w["params"], "n": 1}})
    w = reports[2].counters["witnesses"][0]
    assert w["params"]["budget"] == "lots"
    assert not replay_witness({**w, "params": {**w["params"], "budget": 100}})


@pytest.mark.parametrize("n", [4, -1])
def test_chart_equivalence_names_a_level_out_of_range(n):
    # checked before the matrix gate, which a negative level would pass as a float
    r = run(CheckSpec("chart_equivalence", {"p": 2, "e": 1, "m": 2, "N": 3, "n": n}))
    assert r.verdict == "fail"
    (w,) = r.counters["witnesses"]
    assert (w["kind"], w["type"]) == ("exception", "DimensionMismatchError")
    assert f"n={n}" in w["message"] and "N=3" in w["message"]
    assert replay_witness(w)
    assert not replay_witness({**w, "params": {**w["params"], "n": 1}})


@pytest.mark.parametrize("s,t", [(-1, -1), (-1, 2), (2, -1), (3, -1)])
def test_transversality_locus_rejects_a_negative_shape(s, t):
    # refused by name before the gate, which (-1, -1) would pass on 2 ** 1
    # matrices
    r = run(CheckSpec("transversality_locus", {"p": 2, "e": 1, "s": s, "t": t}))
    assert r.verdict == "fail"
    (w,) = r.counters["witnesses"]
    assert (w["kind"], w["type"]) == ("exception", "DimensionMismatchError")
    assert w["message"] == f"need s, t >= 0, got s={s}, t={t}"
    assert replay_witness(w)
    assert not replay_witness({**w, "params": {**w["params"], "s": 1, "t": 1}})


@pytest.mark.parametrize(
    "name,params",
    [
        ("radon_duality", {"p": 2, "e": 1, "N": 3, "n": 1}),
        ("radon_fourier_square", {"p": 2, "e": 1, "D": 5, "c": -2}),
        ("gamma_identity", {"p": 2, "e": 1, "D": 4, "c": -2}),
    ],
)
def test_sampled_tate_checks_reject_a_negative_trial_count(name, params):
    # a negative count ran no trial and reported a pass over it
    r = run(CheckSpec(name, {**params, "trials": -4}))
    assert r.verdict == "fail"
    (w,) = r.counters["witnesses"]
    assert (w["kind"], w["type"]) == ("exception", "ValueError")
    assert "-4" in w["message"]
    assert replay_witness(w)
    assert not replay_witness({**w, "params": {**w["params"], "trials": 0}})
    # no trial at all is a count, not an error
    r = run(CheckSpec(name, {**params, "trials": 0}))
    assert r.verdict == "pass" and r.counters["trials"] == 0


@pytest.mark.parametrize("dims", [{"outer_dim": 9}, {"outer_dim": 6}, {"inner_dim": -1},
                                  {"inner_dim": 6, "outer_dim": 5}])
def test_radon_fourier_square_names_a_lattice_dimension_out_of_range(dims):
    # at D = 5 a dimension outside 0..5 was clamped to it, and outer_dim 9
    # passed its trials on the pair (0, 5)
    params = {"p": 2, "e": 1, "D": 5, "c": -2, "trials": 3, **dims}
    r = run(CheckSpec("radon_fourier_square", params))
    assert r.verdict == "fail"
    (w,) = r.counters["witnesses"]
    assert (w["kind"], w["type"]) == ("exception", "DimensionMismatchError")
    assert "D=5" in w["message"]
    assert replay_witness(w)
    assert not replay_witness({**w, "params": {**w["params"], "inner_dim": 0, "outer_dim": 5}})
    # the chain of the Picard checks still names its own error
    r = run(CheckSpec("picard_relation", {"p": 2, "e": 1, "D": 4, "c": 2}))
    assert r.counters["witnesses"][0]["type"] == "WrongChainError"


@pytest.mark.parametrize(
    "name,params",
    [
        ("radon_duality", {"p": 3, "e": 1, "N": 5, "n": 2, "trials": 5}),
        ("radon_fourier_square", {"p": 3, "e": 1, "D": 5, "c": -2, "trials": 5}),
        ("gamma_identity", {"p": 3, "e": 1, "D": 4, "c": -2, "trials": 5}),
    ],
)
def test_sampled_tate_checks_build_few_scalars(name, params, monkeypatch):
    # families are integer numerators over one exponent, and a value leaves
    # one as a Fraction only through divisors.fraction; with one scalar per
    # entry a warm run built 1,815, 1,830 and 8,087
    assert run(CheckSpec(name, dict(params))).verdict == "pass"
    made = []
    fraction = divisors.fraction

    def counted(*args):
        made.append(args)
        return fraction(*args)

    for module in (divisors, tate):
        monkeypatch.setattr(module, "fraction", counted)
    assert run(CheckSpec(name, dict(params))).verdict == "pass"
    assert len(made) < 50


def test_pullback_multiplicity_names_the_callers_top_level():
    # right flags at n = N have no cover; the report names n = N = 3
    r = run(CheckSpec("pullback_multiplicity", {"p": 2, "e": 1, "m": 2, "N": 3, "n": 3}))
    (w,) = r.counters["witnesses"]
    assert (w["kind"], w["type"]) == ("exception", "DimensionMismatchError")
    assert w["message"] == "right flags need 0 <= n < N, got n=3, N=3"


@pytest.mark.parametrize("bad", ["X", "h"])
def test_pullback_multiplicity_rejects_an_unknown_type(bad):
    spec = CheckSpec("pullback_multiplicity", {"p": 2, "e": 1, "m": 2, "N": 3, "n": 1, "type": bad})
    r = run(spec)
    assert r.verdict == "fail"
    (w,) = r.counters["witnesses"]
    assert (w["kind"], w["type"]) == ("exception", "ValueError")
    assert replay_witness(w)
    # a set witness with the same bad type does not replay as either type
    f = next(iter(toysht.enumerate_flags(F4, 3, 1, "right")))
    sound = {"kind": "pullback_set", "check": spec.name, "seed": 0,
             "params": {**w["params"], "type": "J"},
             "small": f.small.basis, "big": f.big.basis, "marker": f.small.basis}
    assert replay_witness(sound) is False
    with pytest.raises(ValueError, match="divisor type"):
        replay_witness({**sound, "params": w["params"]})


def schubert_witness(kind, N, W_rows, L_rows):
    """A stamped witness as it reads back from a JSON report."""
    W, L = echelonize(F4, W_rows, N), echelonize(F4, L_rows, N)
    return json.loads(json.dumps(
        {"kind": kind, "check": "schubert_decomposition",
         "params": {"p": 2, "e": 1, "m": 2, "N": N, "n": L.dim, "budget": 1 << 20}, "seed": 0,
         "W": W.basis, "L": L.basis}
    ))


def test_schubert_set_replay_is_independent_of_the_index(monkeypatch):
    # a broken incidence query reports counterexamples that the direct
    # loops refute
    for name in ("rational_over", "rational_under"):
        monkeypatch.setattr(divisors, name, lambda X, d: 0)
    r = run(CheckSpec("schubert_decomposition", {"p": 2, "e": 1, "m": 2, "N": 3, "n": 1}))
    assert r.verdict == "fail"
    kinds = {w["kind"] for w in r.counters["witnesses"]}
    assert kinds == {"schubert_set"}
    assert not any(replay_witness(w) for w in r.counters["witnesses"])


def test_schubert_set_replay():
    g = F4.generator
    L = [(1, 1, g)]
    # a line inside an irrational center lies on no rational piece of it
    assert replay_witness(schubert_witness("schubert_set", 3, [(1, 0, 0), (0, 1, g)], L))
    # negated: inside a rational center the plane itself is the piece
    assert not replay_witness(
        schubert_witness("schubert_set", 3, [(1, 0, 0), (0, 1, 0)], [(1, g, 0)])
    )
    # negated: a rational L is not a point of the nontrivial locus
    assert not replay_witness(
        schubert_witness("schubert_set", 3, [(1, 0, 0), (0, 1, g)], [(1, 1, 1)])
    )


def test_schubert_codim2_replay():
    g = F4.generator
    L = [(1, g, 0, 0, 0), (0, 0, 1, 0, 0)]
    assert replay_witness(
        schubert_witness("schubert_codim2", 5, L + [(0, 0, 0, 1, g)], L)
    )
    # negated: a rational center containing L is itself the deep piece
    assert not replay_witness(
        schubert_witness("schubert_codim2", 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
                                                (0, 0, 1, 0, 0)], L)
    )
    # negated: L meets this center in a line only
    assert not replay_witness(
        schubert_witness("schubert_codim2", 5, [(1, g, 0, 0, 0), (0, 0, 0, 1, 0),
                                                (0, 0, 0, 0, 1)], L)
    )
    pt = next(pt for pt in enumerate_toysht(F4, 4, 2) if not pt.L.is_rational())
    assert replay_witness(schubert_witness("schubert_codim2", 4, pt.L.basis, pt.L.basis))


# a witness over F_4, N = 3 whose rows do not fit, and what its replay raises
F4N3 = {"p": 2, "e": 1, "m": 2, "N": 3}
CHART_W = [[1, 0, 0], [0, 1, 0]]
# a well-formed transversality witness at F_2, s = t = 2
TRANSVERSAL = {"kind": "transversality", "params": {"p": 2, "e": 1, "s": 2, "t": 2},
               "a": 0, "b": 0, "A": [[0, 1], [0, 0]]}
MALFORMED_ROWS = {
    "dichotomy_entry": ({"kind": "dichotomy", "params": F4N3,
                         "L": [[1, 99, 0]], "W": [[1, 0, 0]]}, ValueError),
    "dichotomy_row_length": ({"kind": "dichotomy", "params": F4N3,
                              "L": [[1, 0]], "W": [[1, 0, 0]]}, DimensionMismatchError),
    "trivial_locus_entry": ({"kind": "trivial_locus", "params": {**F4N3, "n": 1},
                             "rows": [[1, 7, 0]]}, ValueError),
    "trivial_locus_line": ({"kind": "trivial_locus", "params": {**F4N3, "n": 2},
                            "rows": [[1, 0, 0]]}, DimensionMismatchError),
    "trivial_locus_space": ({"kind": "trivial_locus", "params": {**F4N3, "n": 2},
                             "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                            DimensionMismatchError),
    # a nontrivial plane, where the check runs at level 1
    "negated_trivial_plane": ({"kind": "negated_trivial", "params": F4N3,
                               "rows": [[1, 2, 0], [0, 0, 1]]}, DimensionMismatchError),
    "chart_mismatch_entry": ({"kind": "chart_mismatch", "params": {**F4N3, "n": 1},
                              "W": CHART_W, "A": [[9, 0]]}, ValueError),
    "chart_mismatch_float": ({"kind": "chart_mismatch", "params": {**F4N3, "n": 1},
                              "W": CHART_W, "A": [[1, 2.0]]}, ValueError),
    "dichotomy_float": ({"kind": "dichotomy", "params": F4N3,
                         "L": [[1, 2.0, 0]], "W": [[1, 0, 0]]}, ValueError),
    "chart_mismatch_wide": ({"kind": "chart_mismatch", "params": {**F4N3, "n": 1},
                             "W": CHART_W, "A": [[1, 2, 3]]}, DimensionMismatchError),
    "chart_mismatch_tall": ({"kind": "chart_mismatch", "params": {**F4N3, "n": 1},
                             "W": CHART_W, "A": [[1, 2], [0, 0]]}, DimensionMismatchError),
    "transversality_entry": ({**TRANSVERSAL, "A": [[0, 9], [0, 0]]}, ValueError),
    "transversality_float": ({**TRANSVERSAL, "A": [[0, 1.0], [0, 0]]}, ValueError),
    "transversality_row_length": ({**TRANSVERSAL, "A": [[0], [0, 0]]}, DimensionMismatchError),
    "transversality_rows": ({**TRANSVERSAL, "A": [[0, 0]]}, DimensionMismatchError),
    "transversality_index": ({**TRANSVERSAL, "a": 5}, ValueError),
    "transversality_float_index": ({**TRANSVERSAL, "b": 1.0}, ValueError),
    # a JSON true is not the int 1
    "dichotomy_bool": ({"kind": "dichotomy", "params": F4N3,
                        "L": [[1, True, 0]], "W": [[1, 0, 0]]}, ValueError),
    "transversality_bool_index": ({**TRANSVERSAL, "a": True}, ValueError),
    "radon_roundtrip_bool": ({"kind": "radon_roundtrip", "params": {"p": 2, "e": 1, "N": 3, "n": 1},
                              "denom": 0, "vals": [True, -1, 0, 0, 0, 0, 0]}, ValueError),
    "gamma_bool": ({"kind": "gamma", "params": {"p": 3, "e": 1, "D": 4, "c": -2},
                    "origin": True, "lines": [[0, 0]] * 40}, ValueError),
    "rerun_bool_seed": ({"kind": "grass_count", "check": "grassmannian_count",
                         "params": {"p": 2, "N": 3, "n": 1}, "seed": True}, ValueError),
    # a value where a list or an object belongs
    "dichotomy_rows_int": ({"kind": "dichotomy", "params": F4N3,
                            "L": 5, "W": [[1, 0, 0]]}, ValueError),
    "dichotomy_row_int": ({"kind": "dichotomy", "params": F4N3,
                           "L": [5], "W": [[1, 0, 0]]}, ValueError),
    "radon_roundtrip_vals_int": ({"kind": "radon_roundtrip",
                                  "params": {"p": 2, "e": 1, "N": 3, "n": 1},
                                  "denom": 0, "vals": 5}, ValueError),
    "gamma_line_int": ({"kind": "gamma", "params": {"p": 3, "e": 1, "D": 4, "c": -2},
                        "origin": 0, "lines": [0, 1]}, ValueError),
    "params_int": ({"kind": "dichotomy", "params": 5,
                    "L": [[1, 0, 0]], "W": [[1, 0, 0]]}, ValueError),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_replay_rejects_malformed_rows(case):
    witness, error = MALFORMED_ROWS[case]
    with pytest.raises(error):
        replay_witness(witness)


# kind -> (params, the witness's value list, its length at those params)
MALFORMED = {
    "gamma": ({"p": 3, "e": 1, "D": 4, "c": -2}, "lines", 40),
    "radon_roundtrip": ({"p": 2, "e": 1, "N": 3, "n": 1}, "vals", 7),
    "radon_fourier": ({"p": 2, "e": 1, "D": 5, "c": -2}, "vals", 31),
}


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_replay_rejects_a_witness_of_the_wrong_length(kind, delta):
    params, name, size = MALFORMED[kind]
    entry = [0, 0] if kind == "gamma" else 0
    witness = {"kind": kind, "params": params, "origin": 0, "denom": 0}
    # all zeros at the right length is no failure
    assert not replay_witness({**witness, name: [entry] * size})
    with pytest.raises(DimensionMismatchError, match=f"expected {size} .*, got {size + delta}"):
        replay_witness({**witness, name: [entry] * (size + delta)})


# kind -> a witness with a value that is not an int, which no check emits
NOT_INTS = {
    "radon_roundtrip": {"params": MALFORMED["radon_roundtrip"][0], "denom": 0,
                        "vals": [0.5, -0.5, 0, 0, 0, 0, 0]},
    "radon_fourier": {"params": MALFORMED["radon_fourier"][0], "denom": 0.0,
                      "vals": [0] * 31},
    "gamma": {"params": MALFORMED["gamma"][0], "origin": 0.5, "lines": [[0, 0]] * 40},
}


@pytest.mark.parametrize("kind", sorted(NOT_INTS))
def test_replay_rejects_values_that_are_not_ints(kind):
    with pytest.raises(ValueError, match="is not an int"):
        replay_witness({"kind": kind, **NOT_INTS[kind]})


def test_replay_accepts_a_well_formed_transversality_witness():
    assert not replay_witness(TRANSVERSAL)


@pytest.mark.parametrize("kind", ["budget_exceeded", "exception", "picard"])
def test_rerun_replay_rejects_a_check_that_is_not_registered(kind):
    # the lookup of the name is no failure of the check that reproduces
    w = {"kind": kind, "check": "no_such_check", "params": {}, "seed": 0,
         "type": "KeyError", "message": "'no_such_check'"}
    with pytest.raises(UnknownCheckError, match="no_such_check"):
        replay_witness(w)


# (check, params with values that are not ints, the same params with ints)
NOT_INT_PARAMS = [
    ("dichotomy", {**F4N3, "N": None}, {"N": 2}),
    ("dichotomy", {**F4N3, "N": [2]}, {"N": 2}),
    ("dichotomy", {**F4N3, "N": {"N": 2}}, {"N": 2}),
    ("grassmannian_count", {"p": 2, "N": 4.9, "n": True}, {"N": 4, "n": 1}),
    ("grassmannian_count", {"p": 2, "N": "4", "n": 1}, {"N": 4}),
    ("grassmannian_count", {"p": 2, "N": 3, "n": 1, "budget": True}, {"budget": 100}),
    ("radon_fourier_square", {"p": 2, "D": 5, "c": -2, "trials": 2.0}, {"trials": 2}),
    ("transversality_locus", {"p": 2, "s": True, "t": 2}, {"s": 1}),
]


@pytest.mark.parametrize("name,params,ints", NOT_INT_PARAMS)
def test_a_param_that_is_not_an_int_is_a_report(tmp_path, name, params, ints):
    # every integer parameter is an int that is not a bool, as a seed is;
    # anything else fails its check alone, and the suite goes on
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps([{"name": name, "params": params}, GOOD_ENTRY]))
    out = tmp_path / "r.json"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    first, second = json.loads(out.read_text())["reports"]
    (w,) = first["counters"]["witnesses"]
    assert (w["kind"], w["type"]) == ("exception", "ValueError") and "is not an int" in w["message"]
    assert first["params"] == params and second["verdict"] == "pass"
    assert replay_witness(w)
    assert not replay_witness({**w, "params": {**w["params"], **ints}})


# (field params that name no field, the error type, the same params naming F_4)
BAD_DEGREES = [
    ({"p": 2, "e": -1, "m": 2}, "ValueError", {"e": 1}),
    ({"p": 2, "e": 1, "m": 0}, "ValueError", {"m": 2}),
    ({"p": 0, "e": -1, "m": 2}, "NonPrimeError", {"p": 2, "e": 1}),
    ({"p": 0, "e": -1, "m": 2, "budget": 3}, "NonPrimeError", {"p": 2, "e": 1, "budget": 100}),
]


@pytest.mark.parametrize("field,error,good", BAD_DEGREES)
def test_a_degree_below_one_is_a_report(tmp_path, field, error, good):
    # a negative exponent sizes nothing, so the gate passes it on and the
    # field refuses it; the suite goes on
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps([{"name": "dichotomy", "params": {**F4N3, **field}}, GOOD_ENTRY]))
    out = tmp_path / "r.json"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    first, second = json.loads(out.read_text())["reports"]
    (w,) = first["counters"]["witnesses"]
    assert (w["kind"], w["type"]) == ("exception", error) and second["verdict"] == "pass"
    assert replay_witness(w)
    assert not replay_witness({**w, "params": {**w["params"], **good}})


def _bounded_product(bound):
    """itertools.product that refuses to list more than bound tuples."""
    def bounded(*iterables, repeat=1):
        pools = [tuple(x) for x in iterables] * repeat
        assert math.prod(map(len, pools)) <= bound, "an enumeration no gate bounds"
        return itertools.product(*pools)
    return bounded


@pytest.mark.parametrize("name,params", [
    # budget 144 admits the 12 x 12 chart of the chart sweep, which its own gate bounds
    ("chart_equivalence", {**F4N3, "N": 12, "n": 0, "budget": 144}),
    ("chart_equivalence", {**F4N3, "N": 12, "n": 12, "budget": 144}),
    ("transversality_locus", {"p": 2, "e": 1, "m": 2, "s": 0, "t": 12, "budget": 100}),
    ("transversality_locus", {"p": 2, "e": 1, "m": 2, "s": 12, "t": 0, "budget": 100}),
])
def test_an_empty_cone_shape_lists_no_factor_vectors(monkeypatch, name, params):
    # an s x t cone with s or t zero holds one matrix, the empty one, and
    # its ambient gate (order**0 = 1) does not bound the 4**12 factor
    # vectors it would be built from
    monkeypatch.setattr(charts, "product", _bounded_product(4**2))
    r = run(CheckSpec(name, params))
    assert r.verdict == "pass" and r.counters["matrices"] == 1


@pytest.mark.parametrize(
    "mode,witnesses,verdict",
    [
        ("vacuous", [], "vacuous"),
        ("vacuous", [{"kind": "picard"}], "fail"),
        ("probabilistic", [], "pass"),
        ("probabilistic", [{"kind": "picard"}], "fail"),
    ],
)
def test_run_derives_the_verdict_from_witnesses(monkeypatch, mode, witnesses, verdict):
    monkeypatch.delenv("TOYSHT_BUDGET", raising=False)
    monkeypatch.setitem(REGISTRY, "picard_relation", lambda params, seed: (mode, {}, witnesses))
    r = run(CheckSpec("picard_relation", {"D": 4, "c": -2}, seed=9))
    assert r.verdict == verdict
    assert r.mode == ("exhaustive" if mode == "vacuous" else mode)
    assert [w["kind"] for w in r.counters["witnesses"]] == [w["kind"] for w in witnesses]
    for w in r.counters["witnesses"]:
        assert (w["check"], w["params"], w["seed"]) == (
            "picard_relation", {"D": 4, "c": -2, "budget": 1 << 20}, 9
        )


# --- every witness kind replays ---------------------------------------------

F4P = {"p": 2, "e": 1, "m": 2}
RAISED_KINDS = {"budget_exceeded", "exception"}


def _flat_image(f):
    # a plus partial Frobenius that forgets the small space
    return toysht.FlagPoint(f.big, f.big, "left")


_incidence_lists = divisors.incidence_lists
_transversal_entries = charts.transversal_entries
_gauss_binomial = cli.gauss_binomial

# kind -> (a spec whose report carries the kind, patches (module, name, value)
# that break the library so that it does, and the negation of a witness;
# None negates by replaying against the sound library)
CASES = {
    "chart_mismatch": (
        CheckSpec("chart_equivalence", {**F4P, "N": 3, "n": 1}),
        # a cone that holds only the zero matrix, in the index the check reads
        # and in the rank test its replay computes
        [(charts, "rank_le1_locus", lambda F, s, t: (((0,) * t,) * s,)),
         (charts, "rank_le1", lambda F, A: not any(map(any, A)))], None,
    ),
    "trivial_locus": (
        CheckSpec("trivial_locus_count", {**F4P, "N": 3, "n": 1}),
        [(toysht, "is_trivial", lambda L: True)], None,
    ),
    # trivial and rational loci agree; only their count is off
    "trivial_count": (
        CheckSpec("trivial_locus_count", {**F4P, "N": 3, "n": 1}),
        [(cli, "gauss_binomial", lambda N, n, q: _gauss_binomial(N, n, q) + 1)], None,
    ),
    "grass_count": (
        CheckSpec("grassmannian_count", {"p": 2, "e": 1, "N": 3, "n": 1}),
        [(cli, "gauss_binomial", lambda N, n, q: _gauss_binomial(N, n, q) + 1)], None,
    ),
    "dichotomy": (
        CheckSpec("dichotomy", {**F4P, "N": 2}),
        # every pair violates, in the kernel the check reads and in the
        # per-pair oracle its replay calls
        [(toysht, "dichotomy_check",
          lambda points, centers: [[(False, False)] * len(centers) for _ in points]),
         (toysht, "dichotomy_by_rank", lambda pt, W: (False, False))], None,
    ),
    "composition": (
        CheckSpec("partial_frobenius_composition", {**F4P, "N": 2}),
        [(toysht, "partial_frobenius_minus",
          lambda f: toysht.FlagPoint(f.small, f.big, "right"))], None,
    ),
    "schubert_multiplicity": (
        CheckSpec("schubert_decomposition", {**F4P, "N": 3, "n": 1}, seed=3),
        [(divisors, "schubert_multiplicity_probe", lambda *args: 2)], None,
    ),
    "incidence_count": (
        CheckSpec("radon_duality", {"p": 2, "e": 1, "N": 3, "n": 1, "trials": 0}),
        [(divisors, "incidence_lists",
          lambda F, N: {k: v[1:] for k, v in _incidence_lists(F, N).items()})], None,
    ),
    "radon_roundtrip": (
        CheckSpec("radon_duality", {"p": 2, "e": 1, "N": 3, "n": 1, "trials": 3}),
        [(divisors, "radon_backward", lambda F, lam, n, N: lam)], None,
    ),
    "transversality": (
        CheckSpec("transversality_locus", {"p": 2, "e": 1, "s": 2, "t": 2}),
        # the complement of the transversal set among the zero entries
        [(charts, "transversal_entries", lambda F, s, t, A: {
            (a, b) for a in range(s) for b in range(t) if A[a][b] == 0
        } - _transversal_entries(F, s, t, A))],
        None,
    ),
    "radon_fourier": (
        CheckSpec("radon_fourier_square", {"p": 2, "e": 1, "D": 5, "c": -2, "trials": 3}),
        [(tate, "eps_extend_dual", lambda model, g, inner, outer: tate.TateFn.zero(model, "T*"))],
        None,
    ),
    "picard": (
        CheckSpec("picard_relation", {"p": 2, "e": 1, "D": 4, "c": -2}),
        [(tate, "is_principal", lambda pair: False)], None,
    ),
    "gamma": (
        CheckSpec("gamma_identity", {"p": 2, "e": 1, "D": 4, "c": -2, "trials": 3}),
        [(tate, "is_principal", lambda pair: False)], None,
    ),
    "canonical_preimage": (
        CheckSpec("canonical_preimage", {"p": 2, "e": 1, "D": 4, "c": -2}),
        [(tate, "canonical_preimage_check", lambda model, chain: False)], None,
    ),
    "pullback_multiplicity": (
        CheckSpec("pullback_multiplicity", {**F4P, "N": 3, "n": 1, "type": "J"}, seed=5),
        [(divisors, "jtype_flag_pullback_probe", lambda *args: (2, 4))], None,
    ),
    "pullback_set": (
        CheckSpec("pullback_multiplicity", {**F4P, "N": 3, "n": 1, "type": "J"}),
        [(divisors, "partial_frobenius_plus", _flat_image),
         (toysht, "partial_frobenius_plus", _flat_image)], None,
    ),
    # the kinds below fail against the sound library; a changed input negates
    "negated_trivial": (
        CheckSpec("selftest_negated", {**F4P, "N": 2}), [],
        lambda w: {**w, "rows": [[1, 0]]},
    ),
    "budget_exceeded": (
        CheckSpec("grassmannian_count", {"p": 2, "e": 1, "N": 3, "n": 1, "budget": 4}), [],
        lambda w: {**w, "params": {**w["params"], "budget": 1 << 20}},
    ),
    "exception": (
        CheckSpec("chart_equivalence", {**F4P, "N": 3}), [],
        lambda w: {**w, "params": {**w["params"], "n": 1}},
    ),
}

# their replay is an oracle independent of the check, tested on hand-built
# witnesses in test_schubert_set_replay and test_schubert_codim2_replay
HAND_BUILT = {"schubert_set", "schubert_codim2"}


def test_check_table_declares_every_kind_once():
    kinds = [kind for _, rules in cli.CHECKS.values() for kind in rules]
    assert len(kinds) == len(set(kinds)) and not RAISED_KINDS & set(kinds)
    assert set(REPLAY) == set(kinds) | RAISED_KINDS == set(CASES) | set(HAND_BUILT)
    assert REGISTRY == {name: check for name, (check, _) in cli.CHECKS.items()}
    with pytest.raises(UnknownCheckError):
        replay_witness({"kind": "no_such_kind"})


@pytest.mark.parametrize("kind", sorted(CASES))
def test_witness_kind_replays(kind, monkeypatch):
    spec, patches, negate = CASES[kind]
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    r = run(copy.deepcopy(spec))
    assert r.verdict == "fail"
    # the check emits only kinds it declares, each stamped with its spec
    witnesses = r.counters["witnesses"]
    assert {w["kind"] for w in witnesses} <= set(cli.CHECKS[spec.name][1]) | RAISED_KINDS
    for w in witnesses:
        assert (w["check"], w["seed"]) == (spec.name, spec.seed)
        assert w["params"] == {**spec.params, "budget": w["params"]["budget"]}
    doc = json.loads(cli._to_json([r]))["reports"][0]["counters"]["witnesses"]
    pairs = [(w, read) for w, read in zip(witnesses, doc) if w["kind"] == kind]
    assert pairs
    for w, read in pairs:
        assert replay_witness(w) and replay_witness(read)
    monkeypatch.undo()
    for _, read in pairs:
        assert not replay_witness(negate(read) if negate else read)


def test_canonical_preimage_perturbs_by_an_invariant_line(monkeypatch):
    # at q = 3 a perturbation on one vector is not scalar-invariant, so the
    # negative control would hold for that reason alone: the check perturbs
    # by a whole line, which enters as a Tate function and which the
    # membership criterion rejects
    params = {"p": 3, "e": 1, "D": 4, "c": -2}
    model = cli._tate_model(params)
    # built first, so the only family sum the check makes is g1.f1 + bad
    tate.canonical_generators(model, cli._default_chain(model))
    added, add = [], tate.TateFn.__add__
    monkeypatch.setattr(tate.TateFn, "__add__", lambda f, g: added.append(g) or add(f, g))
    assert cli.check_canonical_preimage(params, 0)[2] == []
    monkeypatch.undo()
    (bad,) = added
    assert bad.side == "T*" and bad == tate.TateFn(model, "T*", bad.values)
    assert sum(map(bool, bad.values)) == model.q - 1
    lines = [model.subspace([k]) for k in model.lines()[1:3]]
    f2 = (tate.TateFn.indicator(model, "T", lines[0])
          - tate.TateFn.indicator(model, "T", lines[1])).punctured()
    pair = tate.TatePair(tate.fourier(f2).punctured(), f2)
    assert tate.is_principal(pair)
    assert not tate.is_principal(pair + tate.TatePair(bad, tate.TateFn.zero(model, "T")))
