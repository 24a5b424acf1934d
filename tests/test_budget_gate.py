"""The one budget gate, gf.gate: every size a check or a library index
meets is compared with the budget there, before it is built, so an overrun
of any size comes back as a budget_exceeded report in no time, while a size
at the budget is still admitted."""

import ast
import time
from pathlib import Path

import pytest

from toyshtlab.cli import CheckSpec, replay_witness, run
from toyshtlab.errors import BudgetExceededError, NonPrimeError
from toyshtlab.gf import field_make, gate

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toyshtlab"
F4 = {"p": 2, "e": 1, "m": 2}

# specs whose sizes run to 3**(10**12): each must be refused from its bound
OVERRUNS = [
    ("grassmannian_count", {"p": 3, "N": 10**6, "n": 3}),
    ("grassmannian_count", {"p": 3, "m": 10**12, "N": 2, "n": 1}),
    ("picard_relation", {"p": 3, "D": 10**12, "c": -2}),
    ("transversality_locus", {"p": 2, "s": 10**6, "t": 10**6}),
    ("chart_equivalence", {**F4, "N": 10**6, "n": 10**5}),
    ("radon_duality", {"p": 3, "N": 10**12, "n": 1}),
    ("dichotomy", {**F4, "N": 10**6}),
    ("partial_frobenius_composition", {**F4, "N": 10**6}),
    ("pullback_multiplicity", {**F4, "N": 10**6, "n": 1}),
    ("schubert_decomposition", {**F4, "N": 10**6, "n": 1}),
    ("trivial_locus_count", {**F4, "N": 10**6, "n": 1}),
]


@pytest.mark.parametrize("name,params", OVERRUNS, ids=[name for name, _ in OVERRUNS])
def test_an_overrun_of_any_size_is_a_budget_report(name, params):
    start = time.perf_counter()
    r = run(CheckSpec(name, params))
    assert time.perf_counter() - start < 0.5
    (w,) = r.counters["witnesses"]
    assert w["kind"] == "budget_exceeded", w
    assert w["message"].startswith("at least ")
    assert replay_witness(w)


def test_a_basis_beyond_the_budget_is_a_budget_report():
    # one subspace whose basis alone has n * N = 4 * 10**6 entries; counting
    # it builds that basis, 0.36 s and growing with N**2
    start = time.perf_counter()
    r = run(CheckSpec("grassmannian_count", {"p": 2, "N": 2000, "n": 2000}))
    assert time.perf_counter() - start < 0.5
    (w,) = r.counters["witnesses"]
    assert w["kind"] == "budget_exceeded", w
    assert w["message"] == f"{4 * 10**6} basis entries exceeds budget {1 << 20}"
    assert replay_witness(w)


# (check, params, the least budget that admits it, what the gate that binds counts)
CAPS = [
    ("grassmannian_count", {"p": 2, "m": 4, "N": 1, "n": 1}, 16, "field elements"),
    ("grassmannian_count", {"p": 2, "N": 4, "n": 2}, 35, "subspaces"),
    ("picard_relation", {"p": 2, "D": 4, "c": -2}, 16, "vectors"),
    ("chart_equivalence", {**F4, "N": 3, "n": 1}, 16, "matrices per chart"),
    ("radon_duality", {"p": 2, "N": 3, "n": 1, "trials": 5}, 7, "rational lines"),
    ("transversality_locus", {"p": 2, "s": 2, "t": 2}, 16, "matrices"),
    ("grassmannian_count", {"p": 2, "N": 4, "n": 4}, 16, "basis entries"),
]


@pytest.mark.parametrize("name,params,cap,what", CAPS, ids=[c[3] for c in CAPS])
def test_every_gate_admits_its_cap_and_names_one_more(name, params, cap, what):
    assert run(CheckSpec(name, {**params, "budget": cap})).verdict == "pass"
    r = run(CheckSpec(name, {**params, "budget": cap - 1}))
    (w,) = r.counters["witnesses"]
    assert w["kind"] == "budget_exceeded"
    assert w["message"] == f"{cap} {what} exceeds budget {cap - 1}"


@pytest.mark.parametrize("base,n,N,size", [
    (2, 10, None, 1 << 10), (3, 4, None, 81), (4, 2, 4, 357), (2, 1, 21, (1 << 21) - 1),
    (3, 0, None, 1), (3, 0, 10**6, 1), (3, 10**6, 10**6, 1),
])
def test_gate_admits_a_size_at_the_budget(base, n, N, size):
    gate(size, "things", base, n, N)
    with pytest.raises(BudgetExceededError, match=f"^{size} things exceeds budget {size - 1}$"):
        gate(size - 1, "things", base, n, N)


def test_gate_names_an_overrun_by_its_bound():
    with pytest.raises(BudgetExceededError, match=r"^at least 3\*\*2999991 subspaces exceeds"):
        gate(1 << 20, "subspaces", 3, 3, 10**6)
    with pytest.raises(BudgetExceededError, match=r"^at least 2\*\*1000000000000 matrices"):
        gate(1 << 20, "matrices", 2, 10**12)


@pytest.mark.parametrize("budget", [-5, 0, 3, 1 << 20])
def test_gate_passes_a_negative_exponent_on_to_its_caller(budget):
    # base**-1 and n > N count nothing for the gate to refuse; the caller
    # refuses the exponent as out of range
    for base in (0, 2, 3):
        gate(budget, "things", base, -1)
        gate(budget, "things", base, 5, 3)
    with pytest.raises(ValueError, match="extension degrees"):
        field_make(2, -1, 1, budget=budget)
    with pytest.raises(NonPrimeError):
        field_make(0, -1, 1, budget=budget)


def constructions(tree):
    """(enclosing function, line) of every call BudgetExceededError(...)."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", getattr(child.func, "attr", None))
                    == "BudgetExceededError"):
                yield where, child.lineno
            yield from walk(child, inner)
    yield from walk(tree, None)


def test_budget_exceeded_error_is_built_only_in_the_gate():
    built = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        built |= {(path.name, where) for where, _ in constructions(tree)}
    assert built == {("gf.py", "gate")}


def test_the_guard_sees_a_construction():
    tree = ast.parse("def f():\n    raise errors.BudgetExceededError('x')\n"
                     "class C:\n    def g(self):\n        return BudgetExceededError()\n")
    assert list(constructions(tree)) == [("f", 2), ("g", 5)]
