"""Exact scalar arithmetic: Q, prime-power finite fields, and polynomial rings.

Every value is immutable after construction and all arithmetic is exact;
no floating point enters anywhere.  Rational numbers are represented by
``fractions.Fraction`` (always reduced, positive denominator), finite
fields by coefficient vectors modulo a fixed irreducible polynomial.
Polynomials in one variable (k[T], and k[D^1] in X1) are dense
little-endian coefficient tuples: ints mod p over F_p, integer numerators
over one shared denominator over Q, and field elements over F_{p^e};
``Poly.addmul`` fuses a + x * f on that form, convolving by index into
its coefficients, and is its only sum of two: ``+`` is ``addmul`` by one.
Polynomials in zero or several variables map exponent vectors to nonzero
coefficients.  Every ring map is a ``RingMap`` (values, and a memo of
monomial images built from their power ladders) that ``Poly.substitute``
applies to either form as stored, in one loop per target form;
``Poly.evaluate`` reads coefficients directly only at T = 0 and T = 1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm


# ---------------------------------------------------------------------------
# Q
# ---------------------------------------------------------------------------

class RationalField:
    """The rationals.  Elements are plain ``fractions.Fraction`` values."""

    is_field = True
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise ValueError(f"cannot coerce {x!r} into Q")

    def is_unit(self, x) -> bool:
        return self(x) != 0

    def invert(self, x) -> Fraction:
        x = self(x)
        if x == 0:
            raise ZeroDivisionError("0 is not invertible in Q")
        return 1 / x

    def descriptor(self) -> str:
        return "Q"

    def __repr__(self):
        return "Q"


QQ = RationalField()


# ---------------------------------------------------------------------------
# F_q
# ---------------------------------------------------------------------------

# Conway polynomials for the prime powers with e >= 2 that the oracles use,
# little-endian coefficient tuples including the leading 1.
_FIELD_POLYNOMIALS = {
    4: (1, 1, 1),          # x^2 + x + 1
    8: (1, 1, 0, 1),       # x^3 + x + 1
    9: (2, 2, 1),          # x^2 + 2x + 2
    16: (1, 1, 0, 0, 1),   # x^4 + x + 1
}


# Miller-Rabin with the first 13 prime bases is exact below psi_13
# (Sorenson and Webster, Math. Comp. 86, 2017).  The first 12 bases are
# not enough: psi_12 = 318665857834031151167461 is composite and passes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_TEST = 3317044064679887385961981   # psi_13


def is_prime(n: int) -> bool:
    """Deterministic primality for n < MAX_PRIME_TEST; refuses larger n."""
    if n >= MAX_PRIME_TEST:
        raise ValueError(
            f"{n} is too large for the deterministic primality test "
            f"(MAX_PRIME_TEST = {MAX_PRIME_TEST})")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, e: int) -> int:
    """floor(n ** (1/e)) for n >= 1, by bisection on integers."""
    lo, hi = 1, 1 << (n.bit_length() // e + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** e <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    # the largest e with an exact e-th root leaves a base that is no
    # perfect power, so q is a prime power exactly when that base is prime
    for e in range(q.bit_length(), 0, -1):
        p = _iroot(q, e)
        if p > 1 and p ** e == q:
            if not is_prime(p):
                raise ValueError(f"{q} is not a prime power")
            return p, e


class FqElement:
    """Element of F_{p^e}: coefficient vector of length e, entries in [0, p)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FiniteField", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other):
        if isinstance(other, int):
            return self.field(other)
        if isinstance(other, FqElement):
            if other.field is not self.field:
                raise ValueError(
                    f"mixed fields: {self.field!r} and {other.field!r}")
            return other
        return None

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FqElement(self.field, tuple(
            (a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FqElement(self.field, tuple(
            (a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FqElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        f = self.field
        if f.e == 1:
            return FqElement(f, ((self.coeffs[0] * o.coeffs[0]) % f.p,))
        return FqElement(f, f._reduce_product(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self.inverse() if k < 0 else self
        k = abs(k)
        acc = self.field.one
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def inverse(self) -> "FqElement":
        f = self.field
        if not any(self.coeffs):
            raise ZeroDivisionError(f"0 is not invertible in {f!r}")
        if f.e == 1:
            return FqElement(f, (pow(self.coeffs[0], -1, f.p),))
        # Fermat: x^(q-1) = 1 on the units
        return self ** (f.q - 2)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.field(other)
        if isinstance(other, FqElement):
            return self.field is other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __str__(self):
        if self.field.e == 1:
            return str(self.coeffs[0])
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{k}" if c != 1 else f"x^{k}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"GF({self.field.q})({list(self.coeffs)})"


class FiniteField:
    """F_{p^e}, one object per q, so fields compare by identity.  For
    e >= 2 the modulus comes from a fixed table (q <= 16)."""

    is_field = True
    _fields: dict = {}

    def __new__(cls, q: int):
        self = cls._fields.get(q)
        if self is not None:
            return self
        p, e = _prime_power(q)
        if e > 1 and q not in _FIELD_POLYNOMIALS:
            raise ValueError(
                f"F_{q}: no field polynomial on record; prime powers with "
                f"e >= 2 are supported only for q <= 16")
        self = cls._fields[q] = object.__new__(cls)
        self.q, self.p, self.e = q, p, e
        self.modulus = _FIELD_POLYNOMIALS.get(q)
        self.zero = FqElement(self, (0,) * e)
        self.one = FqElement(self, (1,) + (0,) * (e - 1))
        return self

    @property
    def characteristic(self) -> int:
        return self.p

    def _reduce_product(self, a, b):
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        # x^e = -(lower part of the modulus), which is monic
        low = self.modulus[:-1]
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i] % p
            if c:
                for k, mk in enumerate(low):
                    prod[i - e + k] -= c * mk
            prod[i] = 0
        return tuple(c % p for c in prod[:e])

    def __call__(self, x) -> FqElement:
        if isinstance(x, FqElement):
            if x.field is not self:
                raise ValueError(f"element of {x.field!r} is not in {self!r}")
            return x
        if isinstance(x, int):
            return FqElement(self, (x % self.p,) + (0,) * (self.e - 1))
        if isinstance(x, (list, tuple)):
            if len(x) > self.e:
                raise ValueError(
                    f"coefficient vector longer than {self.e} for {self!r}")
            cs = tuple(int(c) % self.p for c in x) + (0,) * (self.e - len(x))
            return FqElement(self, cs)
        raise ValueError(f"cannot coerce {x!r} into {self!r}")

    def is_unit(self, x) -> bool:
        return bool(self(x))

    def invert(self, x) -> FqElement:
        return self(x).inverse()

    def elements(self):
        for cs in itertools.product(range(self.p), repeat=self.e):
            yield FqElement(self, cs)

    def units(self) -> list[FqElement]:
        return [x for x in self.elements() if x]

    def gen(self) -> FqElement:
        if self.e == 1:
            raise ValueError("prime fields have no distinguished generator")
        return FqElement(self, (0, 1) + (0,) * (self.e - 2))

    def descriptor(self) -> str:
        return f"Fq:{self.p}^{self.e}"

    def __repr__(self):
        return f"GF({self.q})"


GF = FiniteField


# ---------------------------------------------------------------------------
# polynomial rings
# ---------------------------------------------------------------------------

class PolyRing:
    """Polynomial ring over Q or F_q in named variables (possibly none).

    A one-variable ring stores each element densely: a little-endian
    coefficient tuple with no trailing zeros.  Over F_p the entries are
    ints in [0, p); over Q they are integer numerators over one shared
    positive denominator d with gcd(d, *numerators) == 1; over F_{p^e}
    with e >= 2 they are ``FqElement`` values.  Any other ring keys its
    nonzero coefficients by exponent vectors aligned with the declared
    variable list.  Both forms are canonical, so element equality is
    structural.  There is one ring object per (base, variables), so rings
    compare by identity.
    """

    _rings: dict = {}

    def __new__(cls, base, variables):
        if not (base is QQ or isinstance(base, FiniteField)):
            raise ValueError(f"unsupported coefficient ring {base!r}")
        variables = tuple(variables)
        self = cls._rings.get((base, variables))
        if self is not None:
            return self
        if len(set(variables)) != len(variables):
            raise ValueError(f"repeated variable names in {variables}")
        self = cls._rings[base, variables] = object.__new__(cls)
        self.base = base
        self.variables = variables
        # storage kind: "Q", "p" (F_p) or "q" (F_{p^e}, e >= 2) for the
        # dense one-variable form, None for the term dict
        if len(variables) != 1:
            kind = None
        elif base is QQ:
            kind = "Q"
        else:
            kind = "p" if base.e == 1 else "q"
        self._kind = kind
        self._p = base.p if kind == "p" else None
        # stored zero coefficient of the dense form
        self._zero_c = base.zero if kind == "q" else 0
        if kind is None:
            self.zero = _poly(self, {})
            self.one = _poly(self, {(0,) * len(variables): base.one})
        else:
            self.zero = _poly(self, ())
            self.one = _poly(self, (base.one if kind == "q" else 1,))
        return self

    is_field = False

    @property
    def univariate(self) -> bool:
        return len(self.variables) == 1

    def gen(self, name: str) -> "Poly":
        i = self.variables.index(name)
        if self._kind is not None:
            return _poly(self, (self._zero_c,) + self.one._c)
        exp = tuple(1 if k == i else 0 for k in range(len(self.variables)))
        return _poly(self, {exp: self.base.one})

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.gen(v) for v in self.variables)

    def __call__(self, x) -> "Poly":
        if isinstance(x, Poly):
            if x.ring is not self:
                raise ValueError(f"polynomial of {x.ring!r} is not in {self!r}")
            return x
        c = self.base(x)
        if not c:
            return self.zero
        kind = self._kind
        if kind == "Q":
            return _poly(self, (c.numerator,), c.denominator)
        if kind == "p":
            return _poly(self, c.coeffs)
        if kind == "q":
            return _poly(self, (c,))
        return _poly(self, {(0,) * len(self.variables): c})

    def from_ints(self, c: list, d: int = 1) -> "Poly":
        """The element of a one-variable ring over Q or F_p with
        little-endian integer coefficients ``c`` over the positive
        denominator ``d``; over F_p, ``c`` lies in [0, p) and ``d`` is 1."""
        if self._kind == "p":
            return _poly(self, _trim(c))
        return _q_poly(self, c, d)

    def is_unit(self, x) -> bool:
        x = self(x)
        return x.is_constant() and not x.is_zero()

    def invert(self, x) -> "Poly":
        x = self(x)
        if not x.is_constant():
            raise ZeroDivisionError(f"{x} is not a unit of {self!r}")
        return self(self.base.invert(x.constant_value()))

    def descriptor(self) -> str:
        return f"poly:{self.base.descriptor()}:{','.join(self.variables)}"

    def _endpoint(self, t):
        """For a base-field scalar t: False at t = 0, True at t = 1, None
        otherwise.  A Fraction against an int takes its int fast path; over
        F_q the coefficient vectors are compared directly."""
        if self._kind == "Q":
            zero, one = 0, 1
        else:
            base = self.base
            t, zero, one = t.coeffs, base.zero.coeffs, base.one.coeffs
        if t == zero:
            return False
        if t == one:
            return True
        return None

    def __repr__(self):
        vs = ",".join(self.variables) if self.variables else ""
        return f"{self.base!r}[{vs}]"


def _trim(c) -> tuple:
    """Drop trailing zeros (ints or FqElements) from a coefficient list."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _q_poly(ring: PolyRing, c, d: int) -> "Poly":
    """Q[T] element from integer numerators over a positive denominator."""
    c = _trim(c)
    if not c:
        return ring.zero
    if d != 1:
        g = gcd(d, *c)
        if g != 1:
            c = tuple([x // g for x in c])
            d //= g
    return _poly(ring, c, d)


def _convolve(a, b, zero, acc=()):
    """Coefficients of ``acc`` plus the product of two dense polynomials,
    unreduced."""
    if len(a) < len(b):
        a, b = b, a
    la = len(a)
    out = list(acc)
    short = la + len(b) - 1 - len(out)
    if short > 0:
        out += [zero] * short
    for j, y in enumerate(b):
        if y:
            for k, x in enumerate(a, j):
                out[k] += x * y
    return out


class Poly:
    """Element of a :class:`PolyRing` in canonical form (no zero terms).

    For a one-variable ring ``_c`` is the dense coefficient tuple and
    ``_d`` the shared denominator (1 except over Q); for any other ring
    ``_c`` is the term dict and ``_d`` is 1.  ``terms`` reads both as a
    dict from exponent vectors to nonzero base-field coefficients.
    """

    __slots__ = ("ring", "_c", "_d", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        base = ring.base
        self.ring = ring
        self._hash = None
        self._d = 1
        nvars, multi = len(ring.variables), ring._kind is None
        out = {}
        for e, c in terms.items():
            if not (isinstance(e, tuple) and len(e) == nvars
                    and all(k.__class__ is int and k >= 0 for k in e)):
                raise ValueError(f"bad exponent vector {e!r} for {ring!r}")
            c = base(c)
            if c:
                out[e if multi else e[0]] = c
        if multi:
            self._c = out
            return
        c = [ring._zero_c] * (max(out) + 1 if out else 0)
        if ring._kind == "Q" and out:
            # over the lcm of reduced denominators the numerators are
            # already coprime to it
            self._d = lcm(*(x.denominator for x in out.values()))
            for k, x in out.items():
                c[k] = x.numerator * (self._d // x.denominator)
        else:
            for k, x in out.items():
                c[k] = x.coeffs[0] if ring._kind == "p" else x
        self._c = tuple(c)

    @property
    def terms(self) -> dict:
        if self.ring._kind is None:
            return self._c
        return {(k,): self._scalar(x) for k, x in enumerate(self._c) if x}

    def _scalar(self, x):
        """A stored dense coefficient, or a sum of them, as a base-field
        element."""
        kind = self.ring._kind
        if kind == "Q":
            return Fraction(x, self._d)
        if kind == "p":
            return FqElement(self.ring.base, (x % self.ring._p,))
        return x

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring:
                raise ValueError(
                    f"mixed rings: {self.ring!r} and {other.ring!r}")
            return other
        return self.ring(other)

    def __add__(self, other):
        ring = self.ring
        o = other if (other.__class__ is Poly and other.ring is ring) \
            else self._coerce(other)
        a = self._c
        if ring._kind is None:
            out = dict(a)
            zero = ring.base.zero
            for e, c in o._c.items():
                s = out.get(e, zero) + c
                if s == zero:
                    out.pop(e, None)
                else:
                    out[e] = s
            return _poly(ring, out)
        if not a:
            return o
        # o is coerced, so addmul runs its dense kernel, never its
        # self + x * f fallback
        return self.addmul(ring.one, o)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __neg__(self):
        kind = self.ring._kind
        a = self._c
        if kind is None:
            return _poly(self.ring, {e: -c for e, c in a.items()})
        if not a:
            return self
        if kind == "p":
            p = self.ring._p
            return _poly(self.ring, tuple([(-x) % p for x in a]))
        return _poly(self.ring, tuple([-x for x in a]), self._d)

    def __mul__(self, other):
        ring = self.ring
        o = other if (other.__class__ is Poly and other.ring is ring) \
            else self._coerce(other)
        kind = ring._kind
        a, b = self._c, o._c
        if not a or not b:
            return ring.zero
        if kind is None:
            return self._mul_terms(o)
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            y = b[0]
            c = [x * y for x in a]
        else:
            c = _convolve(a, b, ring._zero_c)
        if kind == "Q":
            # the top coefficient is a product of nonzero integers
            return _q_poly(ring, c, self._d * o._d)
        if kind == "p":
            p = ring._p
            return _poly(ring, tuple([x % p for x in c]))
        return _poly(ring, tuple(c))

    __rmul__ = __mul__

    def addmul(self, x, f) -> "Poly":
        """self + x * f with one convolution onto self's coefficients.

        In the dense one-variable form the denominators over Q are aligned
        once and the sum is normalized once; over F_p one mod pass reduces
        it.  Term-dict or mixed-ring operands go through ``self + x * f``,
        with its errors.
        """
        ring = self.ring
        kind = ring._kind
        if (kind is None or x.__class__ is not Poly or f.__class__ is not Poly
                or x.ring is not ring or f.ring is not ring):
            return self + x * f
        b, c = x._c, f._c
        if not b or not c:
            return self
        a = self._c
        if kind == "Q":
            d, dp = self._d, x._d * f._d
            if d != dp:
                g = gcd(d, dp)
                ma, mp = dp // g, d // g
                if ma != 1:
                    a = [v * ma for v in a]
                if len(b) > len(c):
                    b, c = c, b
                b = [v * mp for v in b]
                d *= ma
            return _q_poly(ring, _convolve(b, c, 0, a), d)
        out = _convolve(b, c, ring._zero_c, a)
        if kind == "p":
            p = ring._p
            out = [v % p for v in out]
        return _poly(ring, _trim(out))

    def _mul_terms(self, o):
        a, b = self._c, o._c
        ring = self.ring
        if len(a) == 1 and len(b) > 1:
            a, b = b, a
        if len(b) == 1:
            (eb, cb), = b.items()
            if not any(eb):
                if cb == ring.base.one:
                    return _poly(ring, a)
                return _poly(ring, {e: c * cb for e, c in a.items()})
            # one-term factors shift exponents without collisions
            return _poly(ring, {tuple(x + y for x, y in zip(e, eb)): c * cb
                                for e, c in a.items()})
        zero = ring.base.zero
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, zero) + ca * cb
                if s == zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return _poly(ring, out)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        acc = self.ring.one
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (other.ring is self.ring and other._c == self._c
                    and other._d == self._d)
        try:
            return self == self.ring(other)
        except (ValueError, ZeroDivisionError):
            return NotImplemented

    def __hash__(self):
        if self._hash is None:
            c = self._c
            if self.ring._kind is None:
                c = tuple(sorted(c.items()))
            self._hash = hash((self.ring, c, self._d))
        return self._hash

    def __bool__(self):
        return bool(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def is_constant(self) -> bool:
        if self.ring._kind is not None:
            return len(self._c) <= 1
        return all(not any(e) for e in self._c)

    def constant_value(self):
        """Value of a constant polynomial as a base-field scalar."""
        if not self._c:
            return self.ring.base.zero
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        if self.ring._kind is not None:
            return self._scalar(self._c[0])
        return next(iter(self._c.values()))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.ring._kind is not None:
            return len(self._c) - 1
        if not self._c:
            return -1
        return max(sum(e) for e in self._c)

    def leading_coefficient(self):
        if self.ring._kind is None:
            raise ValueError("leading coefficient needs a univariate ring")
        if not self._c:
            return self.ring.base.zero
        return self._scalar(self._c[-1])

    def evaluate(self, assignment: dict):
        """Substitute base-ring scalars for variables.

        A full assignment returns a scalar; a partial one returns a Poly
        in the remaining variables.  Substitution is a ring homomorphism.
        In one variable the endpoints are read off the coefficients: the
        constant term at 0 and their sum at 1.
        """
        ring = self.ring
        base = ring.base
        vs = ring.variables
        if ring._kind is not None and vs[0] in assignment:
            end = ring._endpoint(base(assignment[vs[0]]))
            if end is not None:
                return self._at_endpoint(end)
        keep = tuple(v for v in vs if v not in assignment)
        target = PolyRing(base, keep)
        image = self.substitute(RingMap(ring, target, {
            v: target.gen(v) if v in keep else base(assignment[v])
            for v in vs}))
        return image if keep else image.constant_value()

    def _at_endpoint(self, one: bool):
        """The value at T = 1 when ``one``, else at T = 0, of a dense
        one-variable polynomial: the sum of its stored coefficients, or its
        constant term (see ``PolyRing._endpoint``)."""
        c = self._c
        if one:
            return self._scalar(sum(c, self.ring._zero_c))
        return self._scalar(c[0] if c else self.ring._zero_c)

    def substitute(self, phi: "RingMap") -> "Poly":
        """The image under ``phi``, a RingMap from this polynomial's ring.

        Reads the source as stored (the term dict, or dense numerators over
        ``_d`` on Q and ints on F_p); each monomial's image comes from
        ``phi.memo``, emptied when it would pass ``SUBSTITUTE_MEMO_LIMIT``.  A
        term-dict target sums images term by term, then scales a dense
        source's sums by 1/``_d`` or reduces them mod p; a dense target sums
        into one list, over one lcm of denominators on Q, normalized once.
        """
        ring = self.ring
        if phi.source is not ring:
            raise ValueError(f"ring map from {phi.source!r}, not {ring!r}")
        target, memo, kind = phi.target, phi.memo, ring._kind
        items = self._c.items() if kind is None else [
            ((k,), x) for k, x in enumerate(self._c) if x]
        tkind = target._kind
        if tkind is None:
            out: dict = {}
            get = out.get
            for e, c in items:
                img = memo.get(e)
                if img is None:
                    img = phi._miss(e)
                for te, tc in img:
                    # Fraction * int, not int * Fraction: the fast path
                    tc = c if tc is None else tc * c
                    s = get(te)
                    out[te] = tc if s is None else s + tc
            if kind == "Q":
                d = self._d
                out = {te: Fraction(s, d) for te, s in out.items() if s}
            elif kind == "p":
                base = ring.base
                out = {te: v for te, s in out.items() if (v := base(s))}
            else:
                out = {te: tc for te, tc in out.items() if tc}
            return _poly(target, out)
        parts, top = [], 0
        for e, c in items:
            img = memo.get(e)
            if img is None:
                img = phi._miss(e)
            n = len(img._c)
            if n:
                parts.append((c, img))
                if n > top:
                    top = n
        acc = [target._zero_c] * top
        if tkind == "Q":
            # c is an int numerator over self._d, or a Fraction
            den = lcm(*[c.denominator * img._d for c, img in parts])
        for c, img in parts:
            if tkind == "Q":
                c = c.numerator * (den // (c.denominator * img._d))
            elif tkind == "p" and c.__class__ is FqElement:
                c = c.coeffs[0]        # a term-dict source over F_p
            for i, v in enumerate(img._c):
                acc[i] += c * v
        if tkind == "Q":
            return _q_poly(target, acc, den * self._d)
        if tkind == "p":
            acc = [v % target._p for v in acc]
        return _poly(target, _trim(acc))

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for e in sorted(terms, key=lambda t: (sum(t), t), reverse=True):
            c = terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.ring.variables, e) if k)
            if mono:
                cs = str(c)
                if "/" in cs or "+" in cs or " " in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}" if cs != "1" else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


_new = object.__new__


def _poly(ring: PolyRing, c, d: int = 1) -> Poly:
    """Trusted constructor: ``c`` and ``d`` are already canonical."""
    f = _new(Poly)
    f.ring = ring
    f._c = c
    f._d = d
    f._hash = None
    return f


# Most monomial images one ring map memoizes (see Poly.substitute).
SUBSTITUTE_MEMO_LIMIT = 1024


class RingMap:
    """The ring map ``source`` -> ``target`` that ``Poly.substitute``
    applies: each source variable v goes to ``mapping[v]``, a scalar or a
    Poly, coerced into ``target`` once, here.

    ``memo`` maps source exponent vectors to ready-to-add images, built on
    a miss from power ladders of ``values``: over a term-dict target a
    tuple of (exponent vector, coefficient) pairs, the coefficient None
    where it is the base field's one; over a dense target the image Poly.
    """

    __slots__ = ("source", "target", "values", "memo", "_image")

    def __init__(self, source: PolyRing, target: PolyRing, mapping: dict):
        if target.base is not source.base:
            raise ValueError("substitution must preserve the coefficient field")
        for v in source.variables:
            if v not in mapping:
                raise ValueError(f"no value for variable {v}")
        self.source = source
        self.target = target
        self.values = [target(mapping[v]) for v in source.variables]
        self.memo = {}
        self._image = None

    def _miss(self, e):
        """Build, memoize and return the image of the monomial ``e``."""
        if self._image is None:
            self._image = _monomial_images(self.values, self.target)
        memo = self.memo
        if len(memo) >= SUBSTITUTE_MEMO_LIMIT:
            memo.clear()
        img = memo[e] = self._image(e)
        return img


def _monomial_images(values: list, target: PolyRing):
    """The function sending a source exponent vector to the memo image (see
    ``RingMap``) of that monomial when source variable k takes
    ``values[k]`` in ``target``.

    Each value has a lazily grown power ladder [1, v, v^2, ...]; the image
    is the product of the powers the exponent vector picks, starting from
    the first nonzero one.
    """
    ladders = [[target.one, val] for val in values]
    multi = target._kind is None
    one = target.base.one

    def image(e):
        img = None
        for n, ladder in zip(e, ladders):
            if n:
                while len(ladder) <= n:
                    ladder.append(ladder[-1] * ladder[1])
                img = ladder[n] if img is None else img * ladder[n]
        if img is None:
            img = target.one
        if not multi:
            return img
        return tuple([(te, None if tc == one else tc)
                      for te, tc in img._c.items()])
    return image


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Euclidean division in k[T]: f = q*g + r with deg r < deg g or r = 0."""
    if not isinstance(f, Poly) or not isinstance(g, Poly):
        raise ValueError("poly_divmod expects polynomials")
    if f.ring is not g.ring:
        raise ValueError(f"mixed rings: {f.ring!r} and {g.ring!r}")
    ring = f.ring
    if not ring.univariate:
        raise ValueError("poly_divmod needs a univariate ring")
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    a, b = f._c, g._c
    dg = len(b) - 1
    if len(a) <= dg:
        return ring.zero, f
    kind = ring._kind
    rem = list(a)
    quo = [0] * (len(a) - dg)
    if kind != "Q":
        # over a field: the stored ints of F_p are reduced in the quotient
        # and, once at the end, in the remainder
        p = ring._p
        inv = b[-1].inverse() if p is None else pow(b[-1], -1, p)
        for i in range(len(a) - 1, dg - 1, -1):
            c = rem[i] * inv
            if p is not None:
                c %= p
            quo[i - dg] = c
            if c:
                for k in range(dg):
                    rem[i - dg + k] -= c * b[k]
        rem = rem[:dg] if p is None else [x % p for x in rem[:dg]]
        return _poly(ring, _trim(quo)), _poly(ring, _trim(rem))
    # Q: fraction-free division of the numerators.  Each step scales the
    # running remainder and quotient by m so that the leading term divides
    # exactly; s collects the scalings, so s*a = quo*b + rem at the end.
    lead, s = b[-1], 1
    for i in range(len(a) - 1, dg - 1, -1):
        c = rem[i]
        if c:
            h = gcd(c, lead)
            m = lead // h
            if m != 1:
                rem = [x * m for x in rem]
                quo = [x * m for x in quo]
                s *= m
            t = c // h
            quo[i - dg] = t
            for k in range(dg):
                rem[i - dg + k] -= t * b[k]
    # f = a/da and g = b/db, so q = quo*db/(s*da) and r = rem/(s*da)
    den = s * f._d
    if den < 0:
        den = -den
        quo = [-x for x in quo]
        rem = [-x for x in rem]
    return (_q_poly(ring, [x * g._d for x in quo], den),
            _q_poly(ring, rem[:dg], den))
