"""Reference constructions that only the tests use: field element digits and
powers from the field's public arithmetic, the zero and full subspaces, the
image of a subspace under a quotient map, and the line/hyperplane incidence
paired out entry by entry."""

from toyshtlab.linalg import Subspace, echelonize, rational_subspaces


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
