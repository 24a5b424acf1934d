"""One timed repetition of a workload, in a fresh interpreter.

    python perfbench/worker.py --workload NAME --seed N [--setup-only] [--spans PATH]

``run.py`` starts this script once per repetition with ``src`` on the path,
so no cache or field table survives from one repetition to the next, as with
the ``toyshtlab`` command.  It prints one JSON object:

- ``setup_s``: importing ``toyshtlab`` plus ``field_make`` for every distinct
  tower of the workload.
- ``wall_s``, ``cpu_s``, ``peak_rss_mb``: one pass over the workload's checks
  through ``toyshtlab.cli.run``.
- ``raw_setup_s``, ``raw_wall_s``, ``raw_cpu_s``: the same, as measured;
  the three above are rescaled to the reference host speed (``hostspeed.py``).
- ``reports``: one per check, as the CLI serializes them, or ``None`` when the
  check raised (``errors`` then holds the exception).

With ``--spans`` the pass runs under the tracer, which writes its span table
to PATH, and the object also holds the span summary, the tracer's counters and
the ``gf`` micro-kernel timings, which are taken after the pass and so never
enter ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import time
from dataclasses import asdict

import workloads
from hostspeed import HostSpeed

# operand pairs per tower, and timed passes over them, for the gf kernel
GF_PAIRS = 20000
GF_REPEATS = 5


def _reports_json(reports):
    return json.loads(json.dumps([asdict(r) if r else None for r in reports], default=str))


def gf_kernel(gf, towers, seed: int, speed: HostSpeed) -> dict:
    """ns per add/mul/neg/inv over a seeded list of operand pairs per tower:
    the median of GF_REPEATS timed passes, each rescaled to the reference
    host speed, summed over towers, divided by the number of operations."""
    totals = {"add": 0.0, "mul": 0.0, "neg": 0.0, "inv": 0.0}
    ops = 0
    for tower in towers:
        F = gf.field_make(*tower)
        rng = random.Random(f"{seed}:{tower}")
        pairs = [(rng.randrange(F.order), rng.randrange(1, F.order)) for _ in range(GF_PAIRS)]
        kernels = {
            "add": lambda add=F.add: [add(a, b) for a, b in pairs],
            "mul": lambda mul=F.mul: [mul(a, b) for a, b in pairs],
            "neg": lambda neg=F.neg: [neg(a) for a, _ in pairs],
            "inv": lambda inv=F.inv: [inv(b) for _, b in pairs],
        }
        for op, kernel in kernels.items():
            times = []
            for _ in range(GF_REPEATS):
                before, mark = speed.burst(), speed.mark()
                t = time.perf_counter()
                kernel()
                dt = time.perf_counter() - t
                until = speed.mark()
                times.append(speed.rescale(dt, mark, until, before + speed.burst()))
            totals[op] += statistics.median(times)
        ops += GF_PAIRS
    return {op: 1e9 * t / ops for op, t in totals.items()}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", metavar="PATH")
    args = ap.parse_args()

    speed = HostSpeed()
    speed.start()
    before, mark = speed.burst(), speed.mark()
    t = time.perf_counter()
    import toyshtlab.cli as cli
    from toyshtlab import gf

    specs = workloads.specs(cli, args.workload, args.seed)
    towers = workloads.towers(specs)
    # one tower at a time, as the checks hold them, so set-up does not set
    # the peak memory
    for tower in towers:
        gf.field_make(*tower)
    raw_setup_s = time.perf_counter() - t
    setup_s = speed.rescale(raw_setup_s, mark, speed.mark(), before + speed.burst())
    out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "towers": towers}
    if args.setup_only:
        speed.stop()
        print(json.dumps(out))
        return

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    reports, errors = [], []
    before, mark = speed.burst(), speed.mark()
    w0, c0 = time.perf_counter(), time.process_time()
    for spec in specs:
        try:
            reports.append(cli.run(spec))
        except Exception as ex:  # a crashing check is a failed check, not a lost run
            reports.append(None)
            errors.append(f"{spec.name} {spec.params} seed={spec.seed}: {ex!r}")
    raw_wall_s = time.perf_counter() - w0
    raw_cpu_s = time.process_time() - c0
    until = speed.mark()
    around = before + speed.burst()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    out.update(wall_s=speed.rescale(raw_wall_s, mark, until, around),
               cpu_s=speed.rescale(raw_cpu_s, mark, until, around),
               raw_wall_s=raw_wall_s, raw_cpu_s=raw_cpu_s, probes=until - mark,
               peak_rss_mb=peak_rss_mb, reports=_reports_json(reports), errors=errors)
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["calls"] = dict(tracer.calls)
        out["yielded"] = dict(tracer.yielded)
        out["raised"] = [[k[0], k[1], v] for k, v in tracer.raised.items()]
        out["loci"] = {"distinct": len(set(tracer.loci)), "enumerations": len(tracer.loci)}
        out["gf_ns"] = gf_kernel(gf, towers, args.seed, speed)
        tracer.write(args.spans)
    speed.stop()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
