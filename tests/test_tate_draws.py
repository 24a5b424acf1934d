"""Pinned random draws of the sampled Tate-side checks.

Every one of these checks passes, so its report cannot show a changed draw.
For seeds 0 and 3, a digest of the inputs each check evaluates, in order,
was recorded while families were still lists of one scalar object per
entry: the (vals, denom) sequence of radon_duality and radon_fourier_square,
and the (origin, lines) sequence of gamma_identity.  A change in how many
draws a trial makes, or in their order, moves the digest.
"""

import hashlib

import pytest

from toyshtlab import cli, tate
from toyshtlab.cli import CheckSpec, run

# the sampled Tate checks of the benchmark's tate workload, then those of
# the default suite
SPECS = [
    ("radon_duality", {"p": 3, "e": 1, "N": 5, "n": 2}),
    ("radon_duality", {"p": 2, "e": 1, "N": 6, "n": 3}),
    ("radon_duality", {"p": 2, "e": 1, "N": 3, "n": 1, "trials": 100}),
    ("radon_fourier_square", {"p": 3, "e": 1, "D": 5, "c": -2, "trials": 100}),
    ("radon_fourier_square", {"p": 2, "e": 1, "D": 6, "c": -3, "inner_dim": 1, "trials": 100}),
    ("radon_fourier_square", {"p": 2, "e": 1, "D": 5, "c": -2, "trials": 50}),
    ("gamma_identity", {"p": 3, "e": 1, "D": 4, "c": -2}),
    ("gamma_identity", {"p": 2, "e": 1, "D": 4, "c": -2, "trials": 20}),
]

# (trials, digest) per spec, at seeds 0 and 3
PINS = {
    0: [(200, "f4993a842c420002"), (200, "c87a59eb2b74d8de"), (100, "d5b5162e04561cb3"),
        (100, "23ed9f92d83dfa0f"), (100, "1f6ac5440fe4e051"), (50, "8924ad4563058a81"),
        (50, "2e465869e30c037b"), (20, "80ebb5e2e7de4c00")],
    3: [(200, "f80035535eb5b4f3"), (200, "22dfead8e0dd4404"), (100, "5956d54f1a6acc21"),
        (100, "1f5c72a71be27fbe"), (100, "8d063805fa708420"), (50, "71dc2990d7bb712c"),
        (50, "44ed58905cbe001a"), (20, "3c2247d9a4e0afc6")],
}


def _recording(monkeypatch, module, name: str, seen: list, draw):
    """Rebind module.name to record draw(*args) of each call before making it."""
    original = getattr(module, name)

    def recorded(*args):
        seen.append(draw(*args))
        return original(*args)

    monkeypatch.setattr(module, name, recorded)


def _inputs(monkeypatch, name: str, params: dict, seed: int) -> list:
    seen = []
    if name == "radon_duality":
        _recording(monkeypatch, cli, "_radon_round_trips", seen,
                   lambda F, N, n, vals, denom: (list(vals), denom))
    elif name == "radon_fourier_square":
        _recording(monkeypatch, tate, "radon_fourier_commutes", seen,
                   lambda model, inner, outer, vals, denom: (list(vals), denom))
    else:
        _recording(monkeypatch, cli, "_invariant_fn", seen,
                   lambda model, origin, lines: (origin, [list(x) for x in lines]))
    assert run(CheckSpec(name, dict(params), seed)).verdict == "pass"
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("seed", sorted(PINS))
def test_tate_check_draws_pinned(seed, monkeypatch):
    got = []
    for name, params in SPECS:
        seen = _inputs(monkeypatch, name, params, seed)
        got.append((len(seen), hashlib.sha256(repr(seen).encode()).hexdigest()[:16]))
    assert got == PINS[seed]
