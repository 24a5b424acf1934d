"""Reference constructions that only the tests use: field element digits and
powers from the field's public arithmetic, the zero and full subspaces, the
image of a subspace under a quotient map, the nontrivial toy subspaces, the line/hyperplane incidence
paired out entry by entry, a library function recompiled with one edit, a
library function or method rebound everywhere, and a call counter on one."""

import inspect
import sys

import toyshtlab
from toyshtlab.linalg import Subspace, echelonize, rational_subspaces
from toyshtlab.toysht import toy_points


def coeffs(F, x):
    """Coefficient vector of x over F_p, padded to the full degree."""
    out = []
    for _ in range(F.degree):
        x, d = divmod(x, F.p)
        out.append(d)
    return tuple(out)


def field_pow(F, a, k):
    """a**k for k >= 0, by repeated squaring with F.mul."""
    out = 1
    while k:
        if k & 1:
            out = F.mul(out, a)
        a = F.mul(a, a)
        k >>= 1
    return out


def zero_subspace(F, N):
    return Subspace(F, N, (), ())


def full_space(F, N):
    rows = tuple(tuple(1 if i == j else 0 for j in range(N)) for i in range(N))
    return Subspace(F, N, rows, tuple(range(N)))


def nontrivial_subspaces(F, N, n):
    """The nontrivial toy points of dimension n, as subspaces in toy_points
    order: the points a Schubert decomposition sweep passes to each center."""
    return [pt.L for pt in toy_points(F, N, n) if not pt.L.is_rational()]


def image_subspace(qm, sub):
    """The image of sub in the quotient coordinates of the QuotientMap qm."""
    return echelonize(sub.field, [qm.apply(r) for r in sub.basis], qm.dim)


def brute_force_incidence(F, N):
    """For each line key of P^(N-1), in rational_subspaces order, the line
    keys perpendicular to it, each pair summed with F.add and F.mul alone."""
    keys = [L.basis[0] for L in rational_subspaces(F, N, 1)]

    def pairing(a, b):
        acc = 0
        for x, y in zip(a, b):
            acc = F.add(acc, F.mul(x, y))
        return acc

    return {hk: [jk for jk in keys if pairing(hk, jk) == 0] for hk in keys}


def edited(module, name: str, old: str, new: str):
    """module.name recompiled from its source with its one occurrence of old
    replaced by new, in a copy of the module's namespace: a defect to inject
    with monkeypatch for a negative control."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


def rebind(monkeypatch, original, replacement) -> None:
    """Replace a library function under every name a toyshtlab module binds
    it to, or a method on its class, until the test ends: a defect to inject
    for a negative control, as the benchmark's tracer rebinds what it times."""
    owner, _, name = original.__qualname__.rpartition(".")
    if owner:
        monkeypatch.setattr(getattr(sys.modules[original.__module__], owner), name, replacement)
        return
    for module in vars(toyshtlab).values():
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def count_calls(monkeypatch, original) -> list:
    """Count calls of a library function under every name a toyshtlab module
    binds it to, or of a method on its class: the returned list gets the
    arguments of each call (for a method, self first)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    rebind(monkeypatch, original, counted)
    return calls
