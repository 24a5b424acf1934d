"""Every fixed-seed report of the four benchmark workloads, against the
references the benchmark gates on.

The workload specs and the reference files are read, never written, from
perfbench/, loaded by path as tests/test_traced_names.py loads the tracer.
At the reference seed a report, serialized as the benchmark's worker does
and less elapsed_ms, must equal its reference exactly, so a change that
moves a verdict, a counter, a witness or an rng draw fails here."""

import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

import pytest

import toyshtlab.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
reference = _load("reference")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_reports_match_the_reference(workload, monkeypatch):
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    seed = reference.REFERENCE_SEED
    reports = json.loads(json.dumps(
        [asdict(cli.run(spec)) for spec in workloads.specs(cli, workload, seed)], default=str))
    assert reference.mismatches(reports, reference.load(workload), seed) == []
