import sys
from pathlib import Path

import pytest

# allow running the suite from a fresh checkout without installing
src = str(Path(__file__).resolve().parents[1] / "src")
if src not in sys.path:
    sys.path.insert(0, src)

from toyshtlab import charts, linalg, toysht  # noqa: E402


@pytest.fixture(autouse=True)
def empty_counted_caches():
    """Start each test with no toy or flag index, canonical chart or packing
    (and so no packed toy verdict) cached, so a test that counts
    enumerations, eliminations or spans counts the same alone and in any
    order of the suite."""
    toysht._toy_points.cache_clear()
    toysht._flags.cache_clear()
    charts.canonical_chart.cache_clear()
    linalg.packing.cache_clear()
