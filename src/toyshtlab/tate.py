"""A finite truncation of Tate-space analysis: a finite F_q-space carrying a
dimension-theory offset, exact Z[1/p]-valued Fourier transform without any
complex arithmetic, extension maps from finite projective quotients, the
finite Radon transform in the lattice normalization, and the divisor-pair
calculus of the principal criterion, Schubert pairs and the canonical Picard
relations.

Every identity works with scalar-orbit sums: for a nontrivial additive
character psi of F_q the inner sum over c in F_q^x of psi(c t) is q-1 when
t = 0 and -1 otherwise, so transforms of scalar-invariant functions never
leave Z[1/p] and are independent of the character.  Values and scalars are
ints or Fractions; a function holds its values as a divisors.Family.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product

from .errors import (
    DimensionMismatchError,
    LatticeNotNestedError,
    NotAdmissibleError,
    NotInvariantError,
    WrongChainError,
    WrongIndexError,
)
from .divisors import (Family, LineFamily, _gather, _incidence_sums, _line_key, fraction,
                       incidence_sums, line_family, line_keys, line_values, singer_table,
                       zero_sum_draw)
from .gf import Field
from .linalg import Subspace, combine, echelonize, extend, pairing, perp


class FiniteTateModel:
    """A finite F_q-space of dimension D whose subspaces play the role of
    lattices, with dimension theory n(Lambda) = dim Lambda + c.

    The dual model carries the offset -c-D, so perpendicularity negates the
    dimension theory and double duality restores it.  Models compare by
    value: the field's value, D and c; so equal models share every table
    cached by model.
    """

    def __init__(self, field: Field, D: int, c: int):
        if field.m != 1:
            raise ValueError("the Tate model works over F_q itself (m = 1)")
        if D < 0:
            raise DimensionMismatchError(f"the Tate model needs D >= 0, got D={D}")
        self.field = field
        self.q = field.q
        self.D = D
        self.c = c
        self.c_star = -c - D
        self._key = (field, D, c)
        self._hash = hash(self._key)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteTateModel) and self._key == other._key

    def __hash__(self):
        return self._hash

    def n(self, lattice: Subspace) -> int:
        return lattice.dim + self.c

    def offset(self, side: str) -> int:
        return self.c if side == "T" else self.c_star

    @cache
    def vectors(self):
        """All vectors, listed so that position agrees with index()."""
        return tuple(tuple(reversed(v)) for v in product(self.field.elements(), repeat=self.D))

    def index(self, v) -> int:
        return sum(x * self.q**i for i, x in enumerate(v))

    @cache
    def line_index(self):
        """For each vector index, the normalized representative of the
        vector's line (first nonzero coordinate 1); None at 0."""
        return (None, *(_line_key(self.field, v) for v in self.vectors()[1:]))

    def lines(self):
        """Normalized representatives of the scalar orbits of nonzero
        vectors: the line keys of F_q^D, in key order (singer_table)."""
        return singer_table(self.field, self.D).keys

    @cache
    def pair_zero_table(self):
        """The gathers where a TateFn enters and leaves per vector: at_keys
        takes a family on vectors to the line keys of F_q^D, and per_vector
        one on the line keys to the nonzero vectors."""
        table = singer_table(self.field, self.D)
        return (_gather(self.index(k) for k in table.keys),
                _gather(table.pos[k] for k in self.line_index()[1:]))

    def check_lattices(self, *lattices) -> None:
        """Raise unless each lattice is a subspace of this model's F_q^D."""
        for L in lattices:
            if L.field != self.field:
                raise ValueError(f"a lattice over a field other than the model's F_{self.q}")
            if L.ambient_dim != self.D:
                raise DimensionMismatchError(f"a lattice in F_q^{L.ambient_dim}, not F_q^{self.D}")

    def subspace(self, rows) -> Subspace:
        return echelonize(self.field, rows, self.D)


class TateFn(Family):
    """A Z[1/p]-valued scalar-invariant function on the model space or its
    dual: a Family of its values at 0 and on each line of model.lines().
    Immutable; built from one int or Fraction in Z[1/p] per vector, in
    index() order, constant on each line; values reads it back so."""

    __slots__ = ("model", "side")

    def __init__(self, model: FiniteTateModel, side: str, values):
        values = tuple(values)
        if len(values) != (size := model.q**model.D):
            raise DimensionMismatchError(f"expected {size} values, got {len(values)}")
        at_keys, per_vector = model.pair_zero_table()
        at = at_keys(values)
        if per_vector(at) != values[1:]:
            raise NotInvariantError("a Tate function must be scalar-invariant")
        self._init(model, side, *Family.numerators(model.field.p, [values[0], *at]))

    @classmethod
    def from_nums(cls, model: FiniteTateModel, side: str, nums, exp: int = 0) -> "TateFn":
        """The function with values nums / p**exp at 0, then on model.lines()."""
        out = cls.__new__(cls)
        out._init(model, side, nums, exp)
        return out

    def _init(self, model: FiniteTateModel, side: str, nums, exp: int) -> None:
        if side not in ("T", "T*"):
            raise ValueError("side must be 'T' or 'T*'")
        Family.__init__(self, model.field.p, nums, exp)
        self.model, self.side = model, side
        if len(self.nums) != (size := 1 + len(model.lines())):
            raise DimensionMismatchError(f"expected {size} numerators, got {len(self.nums)}")

    def _space(self):
        return (self.model, self.side)

    def _like(self, nums, exp: int) -> "TateFn":
        return TateFn.from_nums(self.model, self.side, nums, exp)

    @property
    def values(self) -> tuple:
        zero, *at = self.rationals()
        return (zero, *self.model.pair_zero_table()[1](at))

    @classmethod
    def zero(cls, model: FiniteTateModel, side: str) -> "TateFn":
        return cls.from_nums(model, side, [0] * (1 + len(model.lines())))

    @classmethod
    def indicator(cls, model: FiniteTateModel, side: str, S: Subspace) -> "TateFn":
        model.check_lattices(S)
        return cls.from_nums(model, side, [1, *(int(S.contains_vector(k)) for k in model.lines())])

    def at_zero(self) -> Fraction:
        return fraction(self.p, self.nums[0], self.exp)

    def punctured(self) -> "TateFn":
        """The function with the value at 0 forced to zero."""
        return self._like((0, *self.nums[1:]), self.exp)


def integrate(f: TateFn) -> Fraction:
    """Total mass, with a point weighing q to the side's offset."""
    return fraction(f.p, f.nums[0] + (f.model.q - 1) * sum(f.nums[1:]),
                    f.exp - f.model.field.e * f.model.offset(f.side))


def fourier(f: TateFn) -> TateFn:
    """Exact orbit-sum Fourier transform of a scalar-invariant function;
    linear over Z[1/p]: T(x*a + y) = T(x)*a + T(y).

    The output side is the opposite of the input side; no character enters
    the computation, only the collapsed orbit sums q-1 and -1.  The sums
    over perpendicular lines are those of the Radon transform, one call of
    divisors.incidence_sums.
    """
    model, q = f.model, f.model.q
    zero, at = f.nums[0], f.nums[1:]
    # the orbit sum over c != 0 of psi(c <v, w>) is q-1 when v is
    # perpendicular to w and -1 otherwise, so the value on a line l' is
    # f(0) + q * (sum of f over lines perpendicular to l') - (sum over all)
    total = sum(at)
    per_line = [zero - total + q * s for s in incidence_sums(model.field, model.D, at)]
    # the factor q^offset goes into the shared exponent
    return TateFn.from_nums(model, "T*" if f.side == "T" else "T",
                            (zero + (q - 1) * total, *per_line),
                            f.exp - model.field.e * model.offset(f.side))


@cache
def _extension_gathers(model: FiniteTateModel, inner: Subspace, outer: Subspace):
    """Per side ("T", then "T*"), the gather taking (0, *family) on the line
    keys of outer/inner to the TateFn numerators of its extension by zero.

    Both sides take quotient coordinates against one set of rows of outer
    completing inner, so two quotient keys pair to zero iff the model lines
    over them do.  Cached by the value of (model, inner, outer)."""
    if not outer.contains(inner):
        raise LatticeNotNestedError("inner lattice must sit inside the outer one")
    f, D = model.field, model.D
    rows = extend(inner, outer.basis)
    quotient, table = singer_table(f, len(rows)), singer_table(f, D)
    # outer is {sum a_i rows_i + u : u in inner}; each line of the shell has
    # one vector whose quotient coordinates a are a line key
    primal = [0] * len(table.keys)
    inner_vectors = list(inner.vectors())
    for i, a in enumerate(quotient.keys, 1):
        base = combine(f, a, rows, D)
        for u in inner_vectors:
            primal[table.pos[_line_key(f, f.axpy(1, u, base))]] = i
    # a line w of perp(inner) induces a -> sum a_i <w, rows_i>, zero iff w is in perp(outer)
    dual = []
    for w in table.keys:
        form = [pairing(f, w, row) for row in rows]
        on_shell = any(form) and not any(pairing(f, w, u) for u in inner.basis)
        dual.append(quotient.pos[_line_key(f, form)] + 1 if on_shell else 0)
    return _gather([0, *primal]), _gather([0, *dual])


def _extended(model: FiniteTateModel, g, inner: Subspace, outer: Subspace, side: str) -> TateFn:
    """g, a family on the line keys of outer/inner, pulled back to the shell on
    the side's space and extended by zero."""
    model.check_lattices(inner, outer)
    gather = _extension_gathers(model, inner, outer)[side == "T*"]
    g = line_family(model.field, outer.dim - inner.dim, g)
    return TateFn.from_nums(model, side, gather((0, *g.nums)), g.exp)


def eps_extend(model: FiniteTateModel, g, inner: Subspace, outer: Subspace) -> TateFn:
    """Pull a function on the projective quotient back to the shell between
    the lattices and extend by zero; linear over Z[1/p]."""
    return _extended(model, g, inner, outer, "T")


def eps_extend_dual(model: FiniteTateModel, gstar, inner: Subspace, outer: Subspace) -> TateFn:
    """Dual version, supported on the perp shell of the dual space; the
    hyperplane of the quotient seen by a functional is keyed by the
    normalized vector of its induced form.  Linear over Z[1/p]."""
    return _extended(model, gstar, inner, outer, "T*")


def is_admissible(model: FiniteTateModel, inner: Subspace, outer: Subspace) -> bool:
    model.check_lattices(inner, outer)
    return outer.contains(inner) and model.n(inner) <= -2 and model.n(outer) >= 2


def radon_finite(model: FiniteTateModel, g, inner: Subspace, outer: Subspace) -> LineFamily:
    """The Radon transform on the projective quotient, normalized by
    q^(n(inner)+1); takes zero-sum input on lines to zero-sum output on
    hyperplanes keyed by their normal lines, linearly over Z[1/p]."""
    if not is_admissible(model, inner, outer):
        raise NotAdmissibleError("lattice pair violates the admissibility bounds")
    # quotient line representatives are the kernel's line keys; the kernel
    # raises SumNotZeroError on input that does not sum to zero
    return _incidence_sums(model.field, outer.dim - inner.dim, g, model.n(inner) + 1)


def radon_fourier_commutes(
    model: FiniteTateModel, inner: Subspace, outer: Subspace, vals, denom: int
) -> bool:
    """Whether transform-then-extend equals extend-then-transform at the
    input vals / p**denom on the line keys of the projective quotient."""
    g = line_values(model.field, outer.dim - inner.dim, vals, denom)
    lhs = fourier(eps_extend(model, g, inner, outer))
    return lhs == eps_extend_dual(model, radon_finite(model, g, inner, outer), inner, outer)


def radon_fourier_commutativity_check(
    model: FiniteTateModel, inner: Subspace, outer: Subspace, trials: int, rng
) -> dict:
    """Exact equality of transform-then-extend against extend-then-transform
    for random zero-sum inputs on the projective quotient; each input that
    fails is kept as its integer numerators and common denominator exponent."""
    if not is_admissible(model, inner, outer):
        raise NotAdmissibleError("lattice pair violates the admissibility bounds")
    count = len(line_keys(model.field, outer.dim - inner.dim))
    draws = [zero_sum_draw(rng, count) for _ in range(trials)]
    counterexamples = [(v, d) for v, d in draws
                       if not radon_fourier_commutes(model, inner, outer, v, d)]
    return {"trials": trials, "failures": len(counterexamples),
            "counterexamples": counterexamples}


class TatePair:
    """A divisor pair: a function on the dual space and one on the space,
    both of one model."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1: TateFn, f2: TateFn):
        if f1.side != "T*" or f2.side != "T":
            raise ValueError("a pair is a function on T* and one on T, in that order")
        if f1.model != f2.model:
            raise ValueError("the two slots of a pair must sit on one model")
        self.f1, self.f2 = f1, f2

    def punctured(self) -> "TatePair":
        return TatePair(self.f1.punctured(), self.f2.punctured())

    def __add__(self, other: "TatePair") -> "TatePair":
        return TatePair(self.f1 + other.f1, self.f2 + other.f2)

    def __sub__(self, other: "TatePair") -> "TatePair":
        return TatePair(self.f1 - other.f1, self.f2 - other.f2)

    def __neg__(self) -> "TatePair":
        return TatePair(-self.f1, -self.f2)

    def scale(self, c) -> "TatePair":
        return TatePair(self.f1.scale(c), self.f2.scale(c))

    def __eq__(self, other) -> bool:
        return isinstance(other, TatePair) and self.f1 == other.f1 and self.f2 == other.f2


def is_principal(pair: TatePair) -> bool:
    """The membership criterion for divisors of rational functions: the
    second slot integrates to zero once extended by zero through the origin,
    and the first slot is its Fourier transform away from the origin."""
    # the transform at 0 is q^offset times the integral: one test checks both
    return fourier(pair.f2.punctured()) == pair.f1.punctured()


def schubert_pair(model: FiniteTateModel, W: Subspace) -> TatePair:
    """The divisor pair of the degeneracy locus of a lattice at index zero."""
    model.check_lattices(W)
    if model.n(W) != 0:
        raise WrongIndexError("the lattice must sit at dimension-theory value 0")
    return TatePair(
        TateFn.indicator(model, "T*", perp(W)), TateFn.indicator(model, "T", W)
    ).punctured()


def line_bundle_pairs(model: FiniteTateModel, chain):
    """Divisor pairs of the two tautological quotient bundles and of the
    relative determinant, for a chain at indices -1, 0, 1: the canonical
    generators g2, g3 and -g1, punctured (-g1 punctured is the negated
    Schubert pair of the middle lattice)."""
    g1, g2, g3 = canonical_generators(model, chain)
    return g2.punctured(), g3.punctured(), -g1.punctured()


def picard_relation_check(model: FiniteTateModel, chain) -> bool:
    """Whether the b-bundle differs from the a-bundle by q-1 copies of the
    determinant class, as divisor pairs modulo principal ones."""
    ell_a, ell_b, ell_det = line_bundle_pairs(model, chain)
    return is_principal(ell_b - ell_a - ell_det.scale(model.q - 1))


def gamma_identity_check(model: FiniteTateModel, f: TateFn, chain) -> bool:
    """The two-generator expression of the divisor class of (Four f, f):
    q-1 copies of it match the mass of f against the a-bundle minus the
    value at the origin against the b-bundle, modulo principal pairs."""
    ell_a, ell_b, _ = line_bundle_pairs(model, chain)
    pair = TatePair(fourier(f).punctured(), f.punctured())
    return is_principal(pair.scale(model.q - 1) - ell_a.scale(integrate(f))
                        + ell_b.scale(f.at_zero()))


def partial_frobenius_pullback(pair: TatePair, direction: str) -> TatePair:
    """Divisor pullback along a partial Frobenius: minus scales the dual
    slot by q, plus scales the space slot by q."""
    qv = pair.f2.model.q
    if direction == "minus":
        return TatePair(pair.f1.scale(qv), pair.f2)
    if direction == "plus":
        return TatePair(pair.f1, pair.f2.scale(qv))
    raise ValueError("direction must be 'minus' or 'plus'")


def canonical_generators(model: FiniteTateModel, chain):
    """The three full-function pairs spanning the preimage of the canonical
    Picard subgroup: value slots at the origin included.  Cached by the
    value of the model and the chain."""
    model.check_lattices(*chain)
    return _generators(model, tuple(chain))


@cache
def _generators(model: FiniteTateModel, chain):
    Wm1, W0, W1 = chain
    if not (W0.contains(Wm1) and W1.contains(W0)):
        raise WrongChainError("chain must be nested")
    if model.n(Wm1) != -1 or model.n(W0) != 0 or model.n(W1) != 1:
        raise WrongChainError("chain must sit at dimension-theory values -1, 0, 1")
    ind = lambda side, S: TateFn.indicator(model, side, S)
    g1 = TatePair(ind("T*", perp(W0)), ind("T", W0))
    g2 = TatePair(
        ind("T*", perp(W1)).scale(model.q) - ind("T*", perp(W0)),
        ind("T", W1) - ind("T", W0),
    )
    g3 = TatePair(
        -(ind("T*", perp(Wm1)) - ind("T*", perp(W0))),
        ind("T", W0) - ind("T", Wm1).scale(model.q),
    )
    return g1, g2, g3


def canonical_preimage_check(model: FiniteTateModel, chain) -> bool:
    """Each canonical generator satisfies the full-function membership
    condition: the dual slot is the Fourier transform of the space slot."""
    return all(fourier(g.f2) == g.f1 for g in canonical_generators(model, chain))
