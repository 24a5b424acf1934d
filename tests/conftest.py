import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

# allow running the suite from a fresh checkout without installing
src = str(Path(__file__).resolve().parents[1] / "src")
if src not in sys.path:
    sys.path.insert(0, src)

import toyshtlab  # noqa: E402


def package_caches():
    """Every functools.cache a toyshtlab module defines at module level or
    on a class it defines; a cache or class imported into another module is
    listed once, under the module that defines it."""
    out = []
    for info in pkgutil.iter_modules(toyshtlab.__path__, "toyshtlab."):
        module = importlib.import_module(info.name)
        mine = [obj for obj in vars(module).values()
                if getattr(obj, "__module__", None) == module.__name__]
        mine += [attr for cls in mine if isinstance(cls, type) for attr in vars(cls).values()]
        out += [obj for obj in mine if hasattr(obj, "cache_clear")]
    return out


PACKAGE_CACHES = package_caches()


@pytest.fixture(autouse=True)
def empty_counted_caches():
    """Start each test with every package cache empty (the toy and flag
    indexes, canonical charts, packings, J-type probe bases, the Tate-model
    tables, ...), so a test that counts enumerations, eliminations, spans or
    builds counts the same alone and in any order of the suite."""
    for clear in PACKAGE_CACHES:
        clear.cache_clear()
