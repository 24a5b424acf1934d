"""Pinned random draws of the two multiplicity probes.

For three seeds, three consecutive probes share one generator; each call's
order and a digest of rng.getstate() after it were recorded from the probes
as first written, each with its own retry loop.  A change in how many draws
an attempt makes, or in their order, moves the digests even where the orders
stay one.
"""

import hashlib
import random

import pytest

from toyshtlab.charts import (
    SchubertCenters,
    jtype_flag_pullback_probe,
    schubert_multiplicity_probe,
)
from toyshtlab.divisors import schubert_pass
from toyshtlab.gf import field_make
from toyshtlab.linalg import echelonize, rational_subspaces
from toyshtlab.toysht import enumerate_flags

from helpers import nontrivial_subspaces

F4 = field_make(2, 1, 2)


def _digest(rng) -> str:
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:16]


SCHUBERT_PINS = {
    "H": [
        [(1, "7795b91bf9170512"), (1, "8c74c5a2e123431b"), (1, "f66883fa3280feb8")],
        [(1, "1b93a42e8e83c799"), (1, "8442bac855398cc7"), (1, "096667dfee4262d8")],
        [(1, "e69b75cc1e7fbebd"), (1, "0ae71a6582506f59"), (1, "461f874db9981eeb")],
    ],
    "J": [
        [(1, "9834e2ca18b6a175"), (1, "7795b91bf9170512"), (1, "364752090e0454ba")],
        [(1, "20e6cd45bf03c71f"), (1, "72b280b8e5b96aa4"), (1, "1b93a42e8e83c799")],
        [(1, "0ae71a6582506f59"), (1, "587a52aeb9b706b3"), (1, "1b99e6d2aa6f9a96")],
    ],
}

JTYPE_PINS = [
    [((1, 2), "192ac143c9e50443"), ((1, 2), "8c74c5a2e123431b"), ((1, 2), "40e07966825f4c9a")],
    [((1, 2), "e56148a58739178e"), ((1, 2), "3d8fa05130895d0c"), ((1, 2), "5241374dd341cc28")],
    [((1, 2), "e292e95ac0e0e2d3"), ((1, 2), "882738cf48f3e532"), ((1, 2), "9ceb4677ee0adf48")],
]


@pytest.mark.parametrize("kind", ["H", "J"])
def test_schubert_probe_draws_pinned(kind):
    # the first rational W at F_4, N = 4, n = 2, and its first component of
    # the given kind that carries points clean of the other components
    N, n = 4, 2
    W = rational_subspaces(F4, N, N - n)[0]
    comps = [("H", H) for H in rational_subspaces(F4, N, N - 1)
             if H.contains(W)]
    comps += [("J", J) for J in rational_subspaces(F4, N, 1)
              if W.contains(J)]
    clean = schubert_pass(F4, N, n, W, nontrivial_subspaces(F4, N, n))[2]
    assert list(clean) == comps
    comp = next(c for c in comps if c[0] == kind and clean[c])
    for seed, pins in enumerate(SCHUBERT_PINS[kind]):
        rng = random.Random(seed)
        centers = SchubertCenters(F4, N, n, W)
        got = []
        for L0 in clean[comp][:3]:
            order = schubert_multiplicity_probe(centers, L0, comp, rng)
            got.append((order, _digest(rng)))
        assert got == pins, (kind, seed)


def test_jtype_probe_draws_pinned():
    J = echelonize(F4, [(1, 0, 0)], 3)
    flags = [f for f in enumerate_flags(F4, 3, 1, "right")
             if f.small.contains(J) and f.big.contains(J)]
    for seed, pins in enumerate(JTYPE_PINS):
        rng = random.Random(seed)
        got = []
        for f in flags[:3]:
            got.append((jtype_flag_pullback_probe(F4, 3, 1, J, f, rng), _digest(rng)))
        assert got == pins, seed
