"""Horospherical divisor coefficient calculus on lines and hyperplanes, the
finite Radon transform with its q-power normalization, the principal-divisor
criterion, and the Schubert decomposition checks.

Coefficients live in Z[1/p]: a family is integer numerators over one power
of p (Family), a scalar an int or a Fraction.  A value enters a family through
Family.numerators or scale, where its denominator is checked to be a power of
p, and leaves it as a Fraction.  Hyperplanes are indexed by their
perpendicular lines, so both sides of a divisor share one list of lines.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import product
from operator import add, itemgetter, neg
from typing import NamedTuple

from .charts import SchubertCenters, jtype_flag_pullback_probe, schubert_multiplicity_probe
from .errors import DimensionMismatchError, SumNotZeroError
from .gf import DEFAULT_BUDGET, Field, randbelow
from .linalg import Subspace, intersection_dim, perp, rational_subspaces
from .toysht import (
    FlagPoint,
    flags,
    horospherical_membership,
    partial_frobenius_plus,
    toy_points,
)

# multiplicity probes drawn per Schubert component and per pullback marker
PROBE_REPEATS = 5

# the fewest lines at which incidence_sums correlates in Singer order rather
# than gathering per key; timed per call, the gather is faster at 21 lines
# (F_4, N = 3) and fewer, the correlation at 31 (F_2, N = 5; F_5, N = 3) and
# from 14 lines on where N = 2
SINGER_MIN_LINES = 22

# (slot bits, array typecode of that width) for the packed correlation
_SLOTS = sorted((array(code).itemsize * 8, code) for code in "HIQ")
_BIG_ENDIAN = sys.byteorder == "big"


def fraction(p: int, num: int, exp: int) -> Fraction:
    """The value num / p**exp as a Fraction; exp may be negative."""
    return Fraction(num, p**exp) if exp >= 0 else Fraction(num * p**-exp)


def _p_exponent(p: int, c) -> int:
    """k with c.denominator == p**k, for c an int or a Fraction; else ValueError."""
    d, k = c.denominator, 0
    while d % p == 0:
        d, k = d // p, k + 1
    if d != 1:
        raise ValueError(f"{c} is not in Z[1/{p}]")
    return k


class Family:
    """Z[1/p] values as integer numerators over one shared exponent: value i
    is nums[i] / p**exp.  Immutable.  A subclass names the space of its values
    (_space) and builds on it (_like); families on one space combine, compare
    by value (aligning exponents) and hash by their values' canonical forms."""

    __slots__ = ("p", "nums", "exp")

    def __init__(self, p: int, nums, exp: int = 0):
        self.p, self.nums, self.exp = p, tuple(nums), exp

    @staticmethod
    def numerators(p: int, values: list):
        """Int or Fraction values as integer numerators and their shared
        exponent; a denominator that is not a power of p raises ValueError."""
        exps = [_p_exponent(p, v) for v in values]
        k = max(exps, default=0)
        return [v.numerator * p ** (k - e) for v, e in zip(values, exps)], k

    def _align(self, other):
        """Both numerator tuples over the larger exponent, and that exponent."""
        if type(other) is not type(self) or other._space() != self._space():
            raise ValueError(f"cannot combine families on {self._space()} and {other._space()}")
        k = max(self.exp, other.exp)
        a, b = (f.nums if f.exp == k else tuple(x * f.p ** (k - f.exp) for x in f.nums)
                for f in (self, other))
        return a, b, k

    def rationals(self) -> tuple:
        return tuple(fraction(self.p, x, self.exp) for x in self.nums)

    def __add__(self, other):
        a, b, k = self._align(other)
        return self._like(map(add, a, b), k)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._like(map(neg, self.nums), self.exp)

    def scale(self, c):
        """The family times c, an int or a Fraction in Z[1/p]."""
        num, exp = c.numerator, self.exp + _p_exponent(self.p, c)
        return self._like([num * x for x in self.nums], exp)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self) or other._space() != self._space():
            return False
        a, b, _ = self._align(other)
        return a == b

    def __hash__(self):
        return hash((self._space(), self.rationals()))


class LineFamily(Family, Mapping):
    """A Family on the rational lines, read as a mapping from the keys in
    order to Fraction values; it equals any mapping with the same items
    and, like a dict, has no hash."""

    __slots__ = ("order", "_pos")

    def __init__(self, p: int, order: tuple, nums, exp: int = 0):
        super().__init__(p, nums, exp)
        self.order, self._pos = order, None
        if len(order) != len(self.nums):
            raise DimensionMismatchError(f"expected {len(order)} values, got {len(self.nums)}")

    def _space(self):
        return (self.p, self.order)

    def _like(self, nums, exp: int):
        return LineFamily(self.p, self.order, nums, exp)

    def __getitem__(self, key) -> Fraction:
        if self._pos is None:
            self._pos = {k: i for i, k in enumerate(self.order)}
        return fraction(self.p, self.nums[self._pos[key]], self.exp)

    def __iter__(self):
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __eq__(self, other) -> bool:
        if isinstance(other, LineFamily) and other.order == self.order:
            return Family.__eq__(self, other)
        return Mapping.__eq__(self, other)

    __hash__ = None


class HoroDivisor:
    """Coefficient data of a horospherical divisor at level n: one Z[1/p]
    value per rational hyperplane (indexed by its perp line) and one per
    rational line, each a LineFamily in line-key order."""

    __slots__ = ("field", "N", "n", "lam", "mu")

    def __init__(self, field: Field, N: int, n: int, lam, mu):
        self.field, self.N, self.n = field, N, n
        self.lam, self.mu = line_family(field, N, lam), line_family(field, N, mu)

    def __eq__(self, other) -> bool:
        return isinstance(other, HoroDivisor) and (self.n, self.lam, self.mu) == (
            other.n, other.lam, other.mu)

    def __add__(self, other: "HoroDivisor") -> "HoroDivisor":
        return HoroDivisor(self.field, self.N, self.n, self.lam + other.lam, self.mu + other.mu)

    def __neg__(self) -> "HoroDivisor":
        return HoroDivisor(self.field, self.N, self.n, -self.lam, -self.mu)


def line_keys(field: Field, N: int):
    """Canonical keys for the rational lines: their echelon generator rows."""
    return list(singer_table(field, N).keys)


def zero_sum_draw(rng, count: int):
    """A random zero-sum family on count keys: numerators from -9..9, the
    last one set so they sum to zero, then a denominator exponent from 0..2."""
    vals = [randbelow(rng, 19) - 9 for _ in range(count)]
    vals[-1] -= sum(vals)
    return vals, randbelow(rng, 3)


def line_values(field: Field, N: int, vals, denom: int) -> LineFamily:
    """The family vals / p**denom on the line keys of P^(N-1), in key order."""
    return LineFamily(field.p, singer_table(field, N).keys, vals, denom)


def line_family(field: Field, N: int, values) -> LineFamily:
    """A family on the line keys of P^(N-1) (a LineFamily, or any mapping to
    Z[1/p] values) as a LineFamily in line-key order; a mapping keyed by
    anything else raises DimensionMismatchError."""
    keys = singer_table(field, N).keys
    if isinstance(values, LineFamily) and values.order == keys:
        return values
    if len(values) != len(keys) or not all(k in values for k in keys):
        raise DimensionMismatchError(f"a family on P^{N - 1} must be keyed by its line keys")
    return LineFamily(field.p, keys, *Family.numerators(field.p, [values[k] for k in keys]))


def _gather(positions):
    """itemgetter of the positions, taking a tuple to a tuple also for one
    position or none (a slice, where the positions return a bare item or
    are refused)."""
    positions = tuple(positions)
    if len(positions) > 1:
        return itemgetter(*positions)
    i = positions[0] if positions else 0
    return itemgetter(slice(i, i + len(positions)))


def incidence_lists(field: Field, N: int) -> dict:
    """The line/hyperplane incidence of the rational projective space: for
    each line key, in rational_subspaces order, the line keys perpendicular
    to it under the standard pairing.  Read as hyperplane key (a perp line)
    to the lines inside it, or, the pairing being symmetric, as line key to
    the hyperplanes through it.

    The incidence of singer_table, so equal fields built separately share
    one dict.
    """
    return singer_table(field, N).incidence


def _line_key(field: Field, v) -> tuple:
    """The key of the line through a nonzero vector: the vector with its
    first nonzero coordinate scaled to 1, as in line_keys."""
    inv = field.inv(next(x for x in v if x != 0))
    return tuple(field.mul(inv, x) for x in v)


class SingerTable(NamedTuple):
    """The line keys of P^(N-1), in rational_subspaces order (pos maps each
    to its index), and the lines along a Singer cycle S, a collineation
    whose powers carry <e_0> through all n of them: line J_k is S^k <e_0>
    and hyperplane H_j is S^j H_0, with H_0 = e_0^perp.

    lines[k] and normals[j] are the key indices of J_k and of the normal
    line of H_j; diffs is the difference set D = {d : J_d in H_0}, so that
    J_k lies in H_j iff (k - j) mod n is in D.  incidence maps each key to
    the keys perpendicular to it, in key order, and getters[i] gathers a
    family in key order over the row of keys[i].  to_singer gathers a
    family in key order into line order, and to_keys one in hyperplane
    order into key order.  words holds, per slot width w, (w, typecode, R_w)
    with R_w = sum over d in D of 2**(w * (-d mod n))."""

    keys: tuple
    pos: dict
    lines: tuple
    normals: tuple
    diffs: tuple
    incidence: dict
    getters: tuple
    to_singer: itemgetter
    to_keys: itemgetter
    words: tuple


def _orbit(field: Field, pos: dict, step, N: int) -> list:
    """The key indices of <e_0>, step(<e_0>), ... up to the first return."""
    v = e0 = (1,) + (0,) * (N - 1)
    walk = [pos[e0]]
    while (k := pos[_line_key(field, v := step(v))]) != walk[0]:
        walk.append(k)
    return walk


def singer_words(diffs, n: int) -> tuple:
    """Per slot width w, (w, typecode, R_w) for the difference set diffs of
    a cycle of n lines."""
    return tuple((w, code, sum(1 << w * (-d % n) for d in diffs)) for w, code in _SLOTS)


@cache
def singer_table(field: Field, N: int) -> SingerTable:
    """The SingerTable of P^(N-1), cached by the field's value and N: the
    one incidence structure, which the line families, incidence_lists and
    both paths of incidence_sums read.  The keys come first, so an N < 1
    raises DimensionMismatchError.

    By Singer's theorem (J. Singer, Trans. AMS 43, 1938) a cyclic group
    acts regularly on the points and on the hyperplanes of PG(N-1, q), so
    the point-hyperplane incidence matrix is circulant in its order.  S is
    the companion matrix of the first monic degree-N polynomial over F_q,
    in product(field.subfield, ...) order with a nonzero constant term,
    whose walk from <e_0> visits all n lines before it returns (a primitive
    polynomial's does, so one is found); the walk is the certificate, so no
    primitivity test is made.  The normal line of H_j is (S^T)^(-j) <e_0>,
    read off the walk of S^T; a walk that misses a line raises ValueError.
    H_j holds J_(j+d) for d in D, so the rows are read off D in O(n |D|).
    """
    keys = tuple(L.basis[0] for L in rational_subspaces(field, N, 1))
    pos = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    for c in product(field.subfield, repeat=N):
        if not c[0]:
            continue
        nc = [field.neg(x) for x in c]
        # S e_i = e_(i+1) for i < N - 1 and S e_(N-1) = -sum c_i e_i
        lines = _orbit(field, pos, lambda v: field.axpy(v[-1], nc, (0, *v[:-1]))
                       if v[-1] else (0, *v[:-1]), N)
        if len(lines) == n:
            break
    # S^T v = (v_1, ..., v_(N-1), -sum c_i v_i)
    dual = _orbit(field, pos, lambda v: (*v[1:], field.dot(nc, v)), N)
    if len(lines) != n or len(dual) != n:
        raise ValueError(f"the walks of S and S^T visit {len(lines)} and {len(dual)} of {n} lines")
    normals = tuple(dual[-j % n] for j in range(n))
    diffs = tuple(d for d, k in enumerate(lines) if not keys[k][0])
    # J_k lies in H_(k-d) for d in D; taken in key order, they fill each row in it
    rows = [[] for _ in keys]
    for i, k in enumerate(sorted(range(n), key=lines.__getitem__)):
        for d in diffs:
            rows[normals[(k - d) % n]].append(i)
    return SingerTable(keys, pos, tuple(lines), normals, diffs,
                       {h: [keys[i] for i in row] for h, row in zip(keys, rows)},
                       tuple(map(_gather, rows)), _gather(lines),
                       _gather(sorted(range(n), key=normals.__getitem__)),
                       singer_words(diffs, n))


def _fold(x: int, bits: int) -> int:
    """The low bits of x plus its high part: a product of two numbers of
    bits bits folded once, so that slot t + n adds to slot t."""
    return (x & ((1 << bits) - 1)) + (x >> bits)


def singer_sums(table: SingerTable, nums) -> tuple | None:
    """incidence_sums through the table as one cyclic correlation: the
    numerators, less their minimum, are packed into w-bit slots of one int
    in line order and multiplied by R_w, and the product folded once gives
    every hyperplane's sum in its slot, with no carry between slots since
    |D| * (max - min) < 2**w.  None where no slot width holds the range."""
    lo = min(nums)
    spread = len(table.diffs) * (max(nums) - lo)
    for w, code, word in table.words:
        if spread >> w == 0:
            break
    else:
        return None
    slots = array(code, [x - lo for x in table.to_singer(nums)])
    if _BIG_ENDIAN:
        slots.byteswap()
    bits = w * len(slots)
    out = array(code, _fold(int.from_bytes(slots, "little") * word, bits)
                .to_bytes(bits // 8, "little"))
    if _BIG_ENDIAN:
        out.byteswap()
    sums = table.to_keys(out)
    shift = len(table.diffs) * lo
    return tuple([x + shift for x in sums]) if shift else sums


def incidence_sums(field: Field, N: int, nums) -> tuple:
    """For numerators in line-key order, each key's sum over the lines
    perpendicular to it, in line-key order: the one incidence kernel behind
    every Radon and Fourier transform.

    From SINGER_MIN_LINES lines on, a range that fits 64-bit slots goes
    through singer_sums; fewer lines, or a wider range (Z[1/p] numerators
    are unbounded), through the per-key getters of the same singer_table."""
    table = singer_table(field, N)
    if len(table.keys) >= SINGER_MIN_LINES:
        sums = singer_sums(table, nums)
        if sums is not None:
            return sums
    return tuple([sum(g(nums)) for g in table.getters])


def _incidence_sums(field: Field, d: int, values, power: int) -> LineFamily:
    """q^power times the sum of a zero-sum coefficient family over each
    incidence list of P^(d-1), in line-key order, through incidence_sums."""
    family = line_family(field, d, values)
    if sum(family.nums):
        raise SumNotZeroError("coefficients must sum to zero")
    # the factor q^power = p^(e * power) goes into the shared exponent
    return LineFamily(field.p, family.order, incidence_sums(field, d, family.nums),
                      family.exp - field.e * power)


def radon_forward(field: Field, mu, n: int, N: int) -> LineFamily:
    """lambda_H = q^(n-(N-1)) * sum of mu over lines inside H; linear over
    Z[1/p]: T(x*a + y) = T(x)*a + T(y)."""
    return _incidence_sums(field, N, mu, n - (N - 1))


def radon_backward(field: Field, lam, n: int, N: int) -> LineFamily:
    """mu_J = q^(1-n) * sum of lambda over hyperplanes through J; linear
    over Z[1/p]."""
    return _incidence_sums(field, N, lam, 1 - n)


def is_principal_pair(d: HoroDivisor) -> bool:
    """Membership test for divisors of rational functions: mu sums to zero
    and lambda is its Radon transform."""
    return not sum(d.mu.nums) and radon_forward(d.field, d.mu, d.n, d.N) == d.lam


def schubert_deficit(L: Subspace, W: Subspace) -> int:
    """dim(L cap W), from point sets or one rank (linalg.intersection_dim)."""
    if W.dim != L.ambient_dim - L.dim:
        raise DimensionMismatchError("W must have codimension dim L")
    return intersection_dim(L, W)


def toy_locus(field: Field, N: int, n: int, budget: int = DEFAULT_BUDGET) -> list:
    """The nontrivial toy points of dimension n in enumeration order, read
    from toy_points, each as (point, rational hyperplanes containing L,
    rational lines inside L)."""
    return [
        (pt, *horospherical_membership(pt))
        for pt in toy_points(field, N, n, budget)
        if not pt.L.is_rational()
    ]


def schubert_decomposition_check(
    field: Field, N: int, n: int, W: Subspace, locus: list, rng
) -> dict:
    """Set-level equality of the Schubert locus with the union of
    horospherical pieces for W, the codimension-two bound on the deeper
    degeneracy locus, and sampled multiplicity-one probes.

    locus is toy_locus(field, N, n); a sweep of several centers passes one
    locus to every call.
    """
    hyperplanes = [H for H in rational_subspaces(field, N, N - 1) if H.contains(W)]
    lines = [J for J in rational_subspaces(field, N, 1) if W.contains(J)]
    hyper_set, line_set = set(hyperplanes), set(lines)
    report = {
        "points": 0,
        "counterexamples": [],
        "codim2_failures": [],
        "probes": {},
        "vacuous": True,
    }
    for pt, H_set, J_set in locus:
        report["vacuous"] = False
        report["points"] += 1
        deficit = schubert_deficit(pt.L, W)
        horo = not hyper_set.isdisjoint(H_set) or not line_set.isdisjoint(J_set)
        if (deficit > 0) != horo:
            report["counterexamples"].append(pt.L.basis)
        if deficit >= 2:
            deep = any(
                W.contains(P) and pt.L.contains(P) for P in rational_subspaces(field, N, 2)
            ) or any(
                H.contains(W) and H.contains(pt.L) for H in rational_subspaces(field, N, N - 2)
            )
            if not deep:
                report["codim2_failures"].append(pt.L.basis)
    if not report["vacuous"]:
        report["probes"] = _sampled_multiplicity_probes(
            field, N, n, W, hyperplanes, lines, rng, locus
        )
    return report


def _component_points(components, locus) -> dict:
    """For each component, the points of the locus on it and on no other
    component, in locus order."""
    out = {c: [] for c in components}
    for pt, H_set, J_set in locus:
        on = [c for c in components if c[1] in (H_set if c[0] == "H" else J_set)]
        if len(on) == 1:
            out[on[0]].append(pt.L)
    return out


def _sampled_multiplicity_probes(field, N, n, W, hyperplanes, lines, rng, locus):
    """Probe every component of the Schubert divisor that carries points
    clean of the other components, all through one SchubertCenters of W."""
    components = [("H", H) for H in hyperplanes if n < N - 1]
    components += [("J", J) for J in lines if n > 1]
    clean = _component_points(components, locus)
    centers = SchubertCenters(field, N, n, W)
    out = {}
    for component in components:
        kind, sub = component
        pts = clean[component]
        if not pts:
            continue
        orders = []
        for _ in range(PROBE_REPEATS):
            L0 = pts[randbelow(rng, len(pts))]
            orders.append(schubert_multiplicity_probe(centers, L0, component, rng))
        out[(kind, sub.basis)] = orders
    return out


def _check_divisor_type(divisor_type: str) -> None:
    if divisor_type not in ("H", "J"):
        raise ValueError(f"divisor type must be 'H' or 'J', got {divisor_type!r}")


def on_component(f: FlagPoint, marker: Subspace, divisor_type: str) -> bool:
    """Whether the flag lies on the marker's horospherical component: inside
    the hyperplane for divisor_type "H", through the line for "J"."""
    _check_divisor_type(divisor_type)
    if divisor_type == "H":
        return marker.contains(f.big) and marker.contains(f.small)
    return f.small.contains(marker) and f.big.contains(marker)


def _pullback_components(flags, markers, divisor_type: str):
    """The set-level pullback claim on right flags: the (small, big, marker)
    bases where a flag and its plus partial Frobenius image disagree about
    on_component, in flag-then-marker order; and per marker the flags on
    its component, in flag order.

    The markers a subspace lies in ("H") or under ("J") are found once per
    subspace value, so a flag is on the components on(small) & on(big).
    """
    @cache
    def on(X: Subspace) -> frozenset:
        return frozenset(k for k, mk in enumerate(markers)
                         if (mk.contains(X) if divisor_type == "H" else X.contains(mk)))

    failures, comps = [], [[] for _ in markers]
    for f in flags:
        image = partial_frobenius_plus(f)
        here = on(f.small) & on(f.big)
        for k in sorted(here ^ (on(image.small) & on(image.big))):
            failures.append((f.small.basis, f.big.basis, markers[k].basis))
        for k in here:
            comps[k].append(f)
    return failures, comps


def partial_frobenius_divisor_pullback_check(field: Field, N: int, n: int, divisor_type: str,
                                             rng, budget: int = DEFAULT_BUDGET) -> dict:
    """Set-level identification of the preimage of a horospherical component
    under the plus partial Frobenius, with sampled multiplicity probes
    through the Frobenius factorization.

    divisor_type "H" compares the preimage of the hyperplane component one
    level up with the same component on flags; "J" compares the line
    component against the shift by one.  The H case is probed on the dual
    model, where perpendicularity turns it into a J case.
    """
    _check_divisor_type(divisor_type)
    rights = flags(field, N, n, "right", budget)
    marker_dim = N - 1 if divisor_type == "H" else 1
    markers = rational_subspaces(field, N, marker_dim, budget)
    set_failures, comps = _pullback_components(rights, markers, divisor_type)
    report = {"flags": len(rights), "set_failures": set_failures, "probes": {},
              "mode": "exhaustive"}
    if 1 <= n <= N - 2:
        report["mode"] = "probabilistic"
        for mk, comp in zip(markers, comps):
            if not comp:
                continue
            if divisor_type == "H":
                level, line, key = N - n - 1, perp(mk), ("H-dual", mk.basis)
            else:
                level, line, key = n, mk, ("J", mk.basis)
            orders = []
            for _ in range(PROBE_REPEATS):
                f = comp[randbelow(rng, len(comp))]
                if divisor_type == "H":
                    # dual model: the hyperplane component of right flags
                    # becomes the line component of right flags at the
                    # mirrored level; only the drawn flag is mapped
                    f = FlagPoint(perp(f.big), perp(f.small), "right")
                    f.validate()
                orders.append(jtype_flag_pullback_probe(field, N, level, line, f, rng))
            report["probes"][key] = orders
    return report
