"""The fixed-seed correctness gate.

``reference/<workload>.json`` holds every report of the workload at workload
seed 0, as ``toyshtlab.cli`` serializes it, minus ``elapsed_ms``.  At seed 0
a report must equal its reference exactly.  At any other seed the rng draws
differ, so only the verdict, the mode and the counters that do not depend on
the seed are compared.  A check that raises, or whose report differs, fails.

A speedup that changes a fixed-seed report is a regression, so the reference
files are written once from a known-good commit and not regenerated to make
a change pass.  To write them:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

REFERENCE_SEED = 0

# counters that count the swept locus or the trials asked for, never rng draws
SEED_FREE_COUNTERS = (
    "points", "pairs", "matrices", "flags", "trials", "count", "expected",
    "centers", "charts", "trivial",
)


def _path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load(workload: str) -> list:
    with open(_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["reports"]


def _view(report: dict, full: bool) -> dict:
    if full:
        return {k: v for k, v in report.items() if k != "elapsed_ms"}
    counters = report["counters"]
    return {
        "name": report["name"],
        "params": report["params"],
        "verdict": report["verdict"],
        "mode": report["mode"],
        "counters": {k: counters[k] for k in SEED_FREE_COUNTERS if k in counters},
    }


def mismatches(reports: list, reference: list, seed: int) -> list:
    """Indices of the checks whose report is missing or differs from the
    reference, as far as the seed allows a comparison."""
    full = seed == REFERENCE_SEED
    if len(reports) != len(reference):
        return list(range(len(reference)))
    return [
        i for i, (got, ref) in enumerate(zip(reports, reference))
        if got is None or _view(got, full) != _view(ref, full)
    ]


def same_reports(a: list, b: list) -> bool:
    """Equality of two runs' reports, apart from elapsed_ms."""
    return len(a) == len(b) and all(
        x is not None and y is not None and _view(x, True) == _view(y, True)
        for x, y in zip(a, b)
    )


def main() -> None:
    from run import WORKLOADS, run_worker

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in WORKLOADS:
        out = run_worker(workload, REFERENCE_SEED, timeout=900)
        if out["errors"]:
            raise SystemExit(f"{workload}: checks raised: {out['errors']}")
        reports = [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in out["reports"]]
        with open(_path(workload), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": REFERENCE_SEED, "reports": reports},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(workload, len(reports), "reports,", sorted({r["verdict"] for r in reports}))


if __name__ == "__main__":
    main()
