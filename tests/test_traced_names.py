"""The benchmark's tracer rebinds library functions by name; every name it
lists must exist, so a rename fails here and not only in a traced run.  It
times checks by rebinding the entries of cli.REGISTRY, so run must call
through them."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import toyshtlab.cli as cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modname, attr, is_gen in tracer.TRACED:
        obj = importlib.import_module(f"toyshtlab.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (modname, attr)
        assert inspect.isgeneratorfunction(obj) == is_gen, (modname, attr)


def test_run_calls_the_rebound_registry_entry(monkeypatch):
    check = cli.REGISTRY["grassmannian_count"]
    calls = []

    def traced(params, seed):
        calls.append(seed)
        return check(params, seed)

    monkeypatch.setitem(cli.REGISTRY, "grassmannian_count", traced)
    r = cli.run(cli.CheckSpec("grassmannian_count", {"p": 2, "N": 3, "n": 1}, seed=7))
    assert calls == [7] and r.verdict == "pass" and r.counters["count"] == 7
