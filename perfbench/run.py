"""The toyshtlab benchmark: wall time, CPU time, set-up time and memory of
the registered checks, end to end, plus a traced run per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are defined in
``workloads.py``.  Every repetition is a fresh interpreter (``worker.py``),
one process at a time, with no threads, as the ``toyshtlab`` command runs.

``--trace 0`` repeats the workload as often as fits in ``--seconds``, and at
least MIN_REPS times, then reports the median of each end-to-end metric:

- ``wall_s`` / ``cpu_s``: one pass over the workload's checks, after set-up;
- ``setup_s``: importing toyshtlab plus ``field_make`` for each tower, also
  taken in extra set-up-only interpreters so at least MIN_SETUPS are had;
- ``peak_rss_mb``: peak resident memory of the repetition's process, in MiB.

The three times are rescaled to a reference host speed, because the host
changes speed by up to 1.7x for minutes at a time (``hostspeed.py``); the
times as measured are in the run record.

``--trace 1`` makes one untraced and one traced repetition and reports the
per-layer metrics of the traced one (see ``per_layer``).  Its reports must
equal the untraced ones.  The span table is written to
``perfbench/out/<workload>.spans`` (format in ``tracer.Tracer.write``).

Every report is checked against the fixed-seed reference (``reference.py``);
a check that raises or differs is failed, and ``failed / attempted`` is the
run's failed fraction.  The last line of output is the result object; the
line before it is the run record (interpreter, cores, CPU, commit, seed, the
per-repetition samples).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import reference
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

MIN_REPS = 2
MIN_SETUPS = 5
# a run must end within 180 s; leave room for the interpreter and reporting
RUN_BUDGET_S = 170

CHECKS = (
    "grassmannian_count", "trivial_locus_count", "chart_equivalence", "dichotomy",
    "partial_frobenius_composition", "schubert_decomposition", "radon_duality",
    "transversality_locus", "radon_fourier_square", "picard_relation",
    "gamma_identity", "canonical_preimage", "pullback_multiplicity",
)


class RunError(Exception):
    """The benchmark could not measure: no result is printed."""


def run_worker(workload: str, seed: int, timeout: float, *, trace=False, setup_only=False):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT_DIR, f"{workload}.spans")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as ex:
        raise RunError(f"repetition of {workload} exceeded {timeout:.0f} s") from ex
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as ex:
        raise RunError(f"worker printed no result: {proc.stdout[-500:]!r}") from ex


def _commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def per_layer(traced: dict, untraced: dict) -> dict:
    """The per-layer metrics of one traced repetition, as (value, unit).
    Span times are rescaled by the factor of the traced pass as a whole."""
    spans, calls, yielded = traced["spans"], traced["calls"], traced["yielded"]
    raised = {(name, exc): n for name, exc, n in traced["raised"]}
    scale = traced["wall_s"] / traced["raw_wall_s"]

    def span(name, key):
        return scale * spans.get(name, {}).get(key, 0.0)

    out = {}

    def put(metric, value, unit):
        out[metric] = (value, unit)

    def layer(name, *fields):
        for f in fields:
            if f == "calls":
                put(f"{name}.calls", calls.get(name, 0), "count")
            elif f == "yielded":
                put(f"{name}.yielded", yielded.get(name, 0), "count")
            else:
                put(f"{name}.{f}", span(name, f), "s")

    layer("gf.field_make", "calls", "s")
    for op, ns in traced["gf_ns"].items():
        put(f"gf.{op}_ns", ns, "ns")
    layer("linalg.rref", "calls", "self_s")
    for name in ("linalg.echelonize", "linalg.intersect", "linalg.perp"):
        layer(name, "calls")
    layer("linalg.enumerate_grassmannian", "calls", "yielded", "self_s")
    layer("toysht.enumerate_toysht", "calls", "yielded", "self_s")
    layer("toysht.is_toy_shtuka", "calls", "s")
    layer("toysht.dichotomy_check", "calls", "s")
    loci = traced["loci"]
    put("toysht.loci_per_enumeration",
        loci["distinct"] / loci["enumerations"] if loci["enumerations"] else 0.0, "ratio")
    layer("charts.schubert_multiplicity_probe", "calls", "s")
    layer("charts.jtype_flag_pullback_probe", "calls", "s")
    layer("charts.rank1_curve", "calls")
    layer("charts.chart_equivalence_check", "s")
    layer("charts.rank_le1", "calls")
    probe = "charts.schubert_multiplicity_probe"
    returned = calls.get(probe, 0) - sum(n for (name, _), n in raised.items() if name == probe)
    curves = calls.get("charts.rank1_curve", 0)
    put("charts.probe_accept_ratio", returned / curves if curves else 0.0, "ratio")
    put("charts.truncation_doublings",
        raised.get(("charts.valuation_probe", "TruncationTooShortError"), 0), "count")
    layer("divisors.schubert_decomposition_check", "self_s")
    layer("divisors.partial_frobenius_divisor_pullback_check", "s")
    layer("divisors.radon_forward", "calls", "s")
    layer("divisors.radon_backward", "s")
    layer("divisors.incidence_lists", "calls")
    layer("tate.fourier", "calls", "s")
    layer("tate.radon_finite", "calls", "s")
    for name in ("tate.eps_extend", "tate.eps_extend_dual", "tate.gamma_identity_check",
                 "tate.pair_zero_table"):
        layer(name, "s")
    layer("cli.run", "calls", "self_s")
    for check in CHECKS:
        layer(f"cli.check.{check}", "s")
    put("trace.overhead_s", traced["wall_s"] - untraced["wall_s"], "s")
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool):
    ref = reference.load(workload)
    start = time.monotonic()

    def left():
        remaining = RUN_BUDGET_S - (time.monotonic() - start)
        if remaining <= 0:
            raise RunError(f"{workload} did not finish within {RUN_BUDGET_S} s")
        return remaining

    # compile bytecode and warm the file cache before anything is timed
    run_worker(workload, seed, left(), setup_only=True)

    reps = []
    attempted = failed = 0
    failures = []

    def check(out):
        nonlocal attempted, failed
        bad = reference.mismatches(out["reports"], ref, seed)
        attempted += len(ref)
        failed += len(bad)
        failures.extend(f"{ref[i]['name']} {ref[i]['params']}" for i in bad[:5])
        failures.extend(out["errors"][:5])

    if trace:
        untraced = run_worker(workload, seed, left())
        traced = run_worker(workload, seed, left(), trace=True)
        for out in (untraced, traced):
            check(out)
        if not reference.same_reports(untraced["reports"], traced["reports"]):
            failed += 1
            failures.append("traced reports differ from untraced reports")
        metrics = per_layer(traced, untraced)
        reps = [untraced, traced]
    else:
        # start another repetition only if it should end within --seconds
        first = time.monotonic()
        while True:
            out = run_worker(workload, seed, left())
            check(out)
            reps.append(out)
            now = time.monotonic()
            per_rep = (now - first) / len(reps)
            if len(reps) >= MIN_REPS and now + per_rep - start > seconds:
                break
        setups = [r["setup_s"] for r in reps]
        while len(setups) < MIN_SETUPS:
            setups.append(run_worker(workload, seed, left(), setup_only=True)["setup_s"])
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MiB"),
        }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "towers": reps[0]["towers"],
        "checks": [[s["name"], s["params"], s["seed"]] for s in reps[0]["reports"] if s],
        "samples": [
            {k: r[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "raw_wall_s",
                               "raw_cpu_s", "raw_setup_s", "probes")}
            for r in reps
        ],
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "elapsed_s": time.monotonic() - start,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=reference.REFERENCE_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "toyshtlab", "cli.py")):
        print("run.py: no src/toyshtlab here; run it from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as ex:
        print(f"run.py: {ex}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
