"""The four benchmark workloads: which registered checks each runs, with
which parameters, and why the workload exists.

A workload is a list of ``(check name, params)`` pairs plus a rule that maps
the benchmark's workload seed to each check's seed.  Checks are driven
through the public ``toyshtlab.cli.run``, so a workload measures exactly what
a user of the ``toyshtlab`` command pays for.
"""

from __future__ import annotations

# F_4 over F_2 and F_9 over F_3, the two towers of the toy-locus checks
F4 = {"p": 2, "e": 1, "m": 2}
F9 = {"p": 3, "e": 1, "m": 2}

# at workload seed S the default suite runs once per check seed 16*S .. 16*S+15,
# so seed 0 gives the check seeds 0..15
DEFAULT_SUITE_SEEDS = 16

WORKLOADS = {
    "default_suite": {
        "why": (
            "what `toyshtlab` runs with no arguments: many small checks, so "
            "per-check fixed cost, set-up and cache reuse show"
        ),
        # filled from cli.DEFAULT_SUITE at run time, so the workload follows
        # the command's own default suite
        "checks": None,
    },
    "locus": {
        "why": (
            "F_4, N=4 toy-locus enumeration and chart probes on the p=2 xor "
            "path; target of enumerate-once and the rank-form predicate"
        ),
        "checks": [
            ("schubert_decomposition", {**F4, "N": 4, "n": 2}),
            ("dichotomy", {**F4, "N": 4}),
            ("chart_equivalence", {**F4, "N": 4, "n": 2}),
            ("pullback_multiplicity", {**F4, "N": 4, "n": 1, "type": "J"}),
            ("pullback_multiplicity", {**F4, "N": 4, "n": 2, "type": "H"}),
        ],
    },
    "tate": {
        "why": (
            "transform kernels, Z[1/p] arithmetic and odd-p table adds with no "
            "toy-locus enumeration; target of one incidence kernel"
        ),
        "checks": [
            ("radon_fourier_square", {"p": 3, "e": 1, "D": 5, "c": -2, "trials": 100}),
            ("radon_fourier_square",
             {"p": 2, "e": 1, "D": 6, "c": -3, "inner_dim": 1, "trials": 100}),
            ("radon_duality", {"p": 3, "e": 1, "N": 5, "n": 2}),
            ("radon_duality", {"p": 2, "e": 1, "N": 6, "n": 3}),
            ("gamma_identity", {"p": 3, "e": 1, "D": 4, "c": -2}),
            ("canonical_preimage", {"p": 3, "e": 1, "D": 4, "c": -2}),
            ("picard_relation", {"p": 3, "e": 1, "D": 4, "c": -2}),
        ],
    },
    "odd_fields": {
        "why": (
            "odd-characteristic towers up to order 2187, where add tables and "
            "the per-digit fallback cost; target of Zech-logarithm arithmetic"
        ),
        "checks": [
            ("trivial_locus_count", {**F9, "N": 4, "n": 2}),
            ("dichotomy", {**F9, "N": 3}),
            ("schubert_decomposition", {**F9, "N": 3, "n": 1}),
            ("transversality_locus", {"p": 3, "e": 1, "s": 3, "t": 3}),
            ("grassmannian_count", {"p": 5, "e": 1, "m": 4, "N": 2, "n": 1}),
            ("grassmannian_count", {"p": 3, "e": 1, "m": 6, "N": 2, "n": 1}),
            ("grassmannian_count", {"p": 3, "e": 2, "m": 3, "N": 2, "n": 1}),
            ("grassmannian_count", {"p": 7, "e": 1, "m": 3, "N": 2, "n": 1}),
            ("grassmannian_count", {"p": 3, "e": 1, "m": 7, "N": 2, "n": 1}),
        ],
    },
}


def specs(cli, name: str, seed: int):
    """The workload's CheckSpecs at workload seed ``seed``."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if name == "default_suite":
        return [
            cli.CheckSpec(s.name, dict(s.params), DEFAULT_SUITE_SEEDS * seed + k)
            for k in range(DEFAULT_SUITE_SEEDS)
            for s in cli.DEFAULT_SUITE
        ]
    return [cli.CheckSpec(c, dict(params), seed) for c, params in WORKLOADS[name]["checks"]]


def towers(specs_):
    """The distinct (p, e, m) towers the specs build, in first-use order.

    Every spec over an extension names its m, here and in cli.DEFAULT_SUITE,
    so a missing m is 1."""
    out = []
    for s in specs_:
        p = s.params
        t = (int(p.get("p", 2)), int(p.get("e", 1)), int(p.get("m", 1)))
        if t not in out:
            out.append(t)
    return out
