"""The benchmark's tracer rebinds library functions by name; every name it
lists must exist, so a rename fails here and not only in a traced run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
