"""Exact arithmetic in the tower F_p < F_q < F_{q^m}, with the q-power Frobenius.

A field element is an integer in ``range(p**(e*m))`` whose base-p digits are
the coefficients of a residue polynomial modulo a fixed monic irreducible
polynomial of degree e*m over F_p.  The modulus and a multiplicative
generator are found by a seeded deterministic search, so encodings are
reproducible run to run.  Multiplication, inversion and the relative
Frobenius x -> x^q go through precomputed exp/log tables.  In characteristic
2 addition is xor; in odd characteristic it goes through Zech logarithms,
g^i + g^j = g^(i + Z(j - i)) with Z(d) = log(1 + g^d), and -1 = g^((order-1)/2).
Every table has O(order) entries, each filled in one step.  The row kernels
axpy (v + c*row), axmy (v - c*row, with -c read on the log table) and dot read
them inside their loops, with no method call per entry; randbelow draws as
rng.randrange(n) does, without its argument checks.
"""

from __future__ import annotations

from functools import cache

from .errors import BudgetExceededError, NonPrimeError, ReducibleModulusError

# the one default size budget of field orders, enumerations and the command line
DEFAULT_BUDGET = 1 << 20


def gauss_binomial(N: int, n: int, q: int) -> int:
    """Number of n-subspaces of an N-dimensional space over F_q, from min(n, N - n) factors."""
    if n < 0 or n > N:
        return 0
    num = den = 1
    for i in range(min(n, N - n)):
        num *= q ** (N - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def gate(budget: int, what: str, base: int, n: int, N: int | None = None) -> None:
    """Refuse a size above budget: base**n, or given N the n-subspaces of F_base^N.  It lies in
    [2**(b(k - 1)), 2**(bk + 2)), b = n or n(N - n), k = bit_length(base); built only if need be,
    so a b <= 1 (a product of sizes the caller gated) is named exactly.  A b < 0 sizes nothing
    and passes, for the caller to refuse as out of range."""
    b, k, room = (n if N is None else n * (N - n)), base.bit_length(), budget.bit_length()
    if b < 0 or b * k + 2 < room and budget > 0:
        return
    if b > 1 and b * (k - 1) > room:
        raise BudgetExceededError(f"at least {base}**{b} {what} exceeds budget {budget}")
    size = base**n if N is None else gauss_binomial(N, n, base)
    if size > budget:
        raise BudgetExceededError(f"{size} {what} exceeds budget {budget}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# Polynomials over F_p are coefficient tuples, index = degree, no trailing zeros.


def _ptrim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmulmod(a, b, mod, p):
    deg = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce modulo the monic modulus
    for i in range(len(out) - 1, deg - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(deg):
                out[i - deg + j] = (out[i - deg + j] - c * mod[j]) % p
    return _ptrim(out[:deg] if len(out) > deg else out)


def _ppowmod(a, k, mod, p):
    result = (1,)
    base = a
    while k:
        if k & 1:
            result = _pmulmod(result, base, mod, p)
        base = _pmulmod(base, base, mod, p)
        k >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b != [] and b != [0]:
        # a mod b with b made monic on the fly
        blead = b[-1]
        binv = pow(blead, p - 2, p)
        bd = len(b) - 1
        r = a[:]
        while len(r) - 1 >= bd and r:
            c = (r[-1] * binv) % p
            shift = len(r) - 1 - bd
            for j in range(len(b)):
                r[shift + j] = (r[shift + j] - c * b[j]) % p
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    return _ptrim(a)


def _is_irreducible(f, p) -> bool:
    d = len(f) - 1
    if d < 1:
        return False
    x = _pmulmod((0, 1), (1,), f, p)  # X reduced mod f
    # x^(p^d) == x mod f, and x^(p^(d/l)) - x coprime to f for prime l | d
    xp = _ppowmod(x, p**d, f, p)
    if xp != x:
        return False
    for ell in _prime_factors(d):
        xe = _ppowmod(x, p ** (d // ell), f, p)
        diff = list(xe) + [0] * max(0, len(x) - len(xe))
        for i, xi in enumerate(x):
            if i < len(diff):
                diff[i] = (diff[i] - xi) % p
        g = _pgcd(f, _ptrim(diff), p)
        if len(g) - 1 >= 1:
            return False
    return True


class Field:
    """The field F_{q^m} with q = p^e, presented over its subfield F_q.

    Immutable after construction; safe to share between workers; field_make gates its order.
    """

    def __init__(self, p: int, e: int, m: int, seed: int = 0):
        if not is_prime(p):
            raise NonPrimeError(f"p={p} is not prime")
        if e < 1 or m < 1:
            raise ValueError("extension degrees must be >= 1")
        order = p ** (e * m)
        self.p = p
        self.e = e
        self.m = m
        self.q = p**e
        self.order = order
        self.degree = e * m
        self.seed = seed
        self.modulus = self._find_modulus(seed)
        self._init_tables()
        # F_q, the fixed points of the Frobenius, in increasing order
        self.subfield = tuple(x for x in range(order) if self._frob[x] == x)
        assert len(self.subfield) == self.q, "Frobenius fixed field has wrong size"
        self._hash = hash(self.key)

    @property
    def key(self) -> tuple:
        """The field's value (p, e, m, modulus): fields compare and hash by
        it, so every per-value cache keyed by a field is keyed by its value."""
        return (self.p, self.e, self.m, self.modulus)

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, Field) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def _find_modulus(self, seed: int) -> tuple[int, ...]:
        p, d = self.p, self.degree
        total = p**d
        for k in range(total):
            enc = (seed + k) % total
            coeffs = []
            t = enc
            for _ in range(d):
                coeffs.append(t % p)
                t //= p
            f = tuple(coeffs) + (1,)
            if _is_irreducible(f, p):
                return f
        raise ReducibleModulusError(f"no irreducible polynomial of degree {d} over F_{p}")

    def _init_tables(self) -> None:
        p, order = self.p, self.order
        mod = self.modulus

        # find a multiplicative generator, seed-rotated deterministic order
        n1 = order - 1
        factors = _prime_factors(n1) if n1 > 1 else []
        gen = 1
        for k in range(1, order):
            g = 1 + (self.seed + k - 1) % n1 if n1 > 0 else 1
            gp = self._int_to_poly(g)
            if all(_ppowmod(gp, n1 // ell, mod, p) != (1,) for ell in factors):
                gen = g
                break
        self.generator = gen

        exp = [1] * (2 * max(n1, 1))
        log = [0] * order
        gp, v = self._int_to_poly(gen), (1,)
        for i in range(n1):
            x = self._poly_to_int(v)
            exp[i] = x
            log[x] = i
            v = _pmulmod(v, gp, mod, p)
        for i in range(n1, len(exp)):
            exp[i] = exp[i - n1] if n1 else 1
        self._exp = exp
        self._log = log

        # q-power Frobenius on every element
        frob = [0] * order
        for x in range(1, order):
            frob[x] = exp[(log[x] * self.q) % n1] if n1 else x
        self._frob = frob

        self._half = n1 // 2 if p != 2 else 0  # -1 = g^half, and 1 for p = 2
        if p != 2:
            # zech[d] = log(1 + g^d), or -1 where 1 + g^d = 0 (d = half);
            # adding 1 changes only the constant digit
            zech = [-1] * n1
            for d in range(n1):
                x = exp[d]
                s = x - x % p + (x + 1) % p
                if s:
                    zech[d] = log[s]
            self._zech = zech

    def _int_to_poly(self, x: int) -> tuple[int, ...]:
        p = self.p
        c = []
        while x:
            c.append(x % p)
            x //= p
        return tuple(c)

    def _poly_to_int(self, c) -> int:
        p = self.p
        out = 0
        for d in reversed(c):
            out = out * p + d
        return out

    # arithmetic

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        # a negative index wraps mod order - 1, as log b - log a must
        z = self._zech[self._log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.p == 2 or not a:
            return a
        return self._exp[self._log[a] + self._half]

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        n1 = self.order - 1
        return self._exp[(n1 - self._log[a]) % n1]

    def axpy(self, c: int, row, v) -> list:
        """v + c * row, entrywise, for c nonzero.  In odd characteristic
        c * y = g^m with m reduced below order - 1, then added by Zech."""
        exp, log, lc = self._exp, self._log, self._log[c]
        if self.p == 2:
            return [x ^ exp[lc + log[y]] if y else x for x, y in zip(v, row)]
        zech, n1, out = self._zech, self.order - 1, []
        for x, y in zip(v, row):
            if y:
                m = (lc + log[y]) % n1
                # x + g^m = g^(m + Z(log x - m)); a negative index wraps, as in add
                z = zech[log[x] - m] if x else 0
                x = exp[m + z] if z >= 0 else 0
            out.append(x)
        return out

    def axmy(self, c: int, row, v) -> list:
        """v - c * row, for c nonzero: axpy by -c, read as g^(log c + half)."""
        return self.axpy(self._exp[self._log[c] + self._half], row, v)

    def dot(self, a, b) -> int:
        """The standard bilinear pairing sum_i a_i b_i, added as in axpy."""
        exp, log, acc = self._exp, self._log, 0
        if self.p == 2:
            for x, y in zip(a, b):
                if x and y:
                    acc ^= exp[log[x] + log[y]]
            return acc
        zech, n1 = self._zech, self.order - 1
        for x, y in zip(a, b):
            if x and y:
                m = (log[x] + log[y]) % n1
                z = zech[log[acc] - m] if acc else 0
                acc = exp[m + z] if z >= 0 else 0
        return acc

    def frobenius(self, x: int) -> int:
        """The relative Frobenius x -> x^q."""
        return self._frob[x]

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        return f"Field(p={self.p}, e={self.e}, m={self.m})"


def randbelow(rng, n: int) -> int:
    """rng.randrange(n) for a random.Random: the same value, leaving rng in the
    same state, by the same getrandbits rejection loop; n < 1 raises."""
    if n < 1:
        raise ValueError(f"empty range for randbelow({n})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def field_make(p: int, e: int, m: int, seed: int = 0, budget: int = DEFAULT_BUDGET) -> Field:
    """F_{q^m} with q = p^e, rejecting orders beyond the budget.

    One Field per value (p, e, m, seed): it is built on first use and shared
    after, as it is immutable; the budget is checked on every call."""
    gate(budget, "field elements", p, e * m)
    return _field(p, e, m, seed)


@cache
def _field(p: int, e: int, m: int, seed: int) -> Field:
    return Field(p, e, m, seed=seed)
