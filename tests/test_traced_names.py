"""The benchmark's tracer rebinds library functions by name; every name it
lists must exist, so a rename fails here and not only in a traced run.  It
times checks by rebinding the entries of cli.REGISTRY, so run must call
through them, and uninstalling it must put every binding back."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import toyshtlab.cli as cli
import toyshtlab.tate as tate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    tracer = _load_tracer()
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


def _bindings() -> dict:
    """Every name bound in a toyshtlab module namespace, every attribute of
    FiniteTateModel and every cli.REGISTRY entry, with the object bound."""
    out = {("registry", k): v for k, v in cli.REGISTRY.items()}
    out.update((("model", k), v) for k, v in vars(tate.FiniteTateModel).items())
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("toyshtlab"):
            out.update(((modname, k), v) for k, v in vars(mod).items())
    return out


def test_uninstall_restores_every_binding():
    tracer = _load_tracer().Tracer()
    before = _bindings()
    tracer.install()
    try:
        during = _bindings()
        assert during["model", "pair_zero_table"] is not before["model", "pair_zero_table"]
        assert during["registry", "dichotomy"] is not before["registry", "dichotomy"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
