"""Formal Steinberg words over type A_{n-1} and their kernel elements.

Words are sequences of generators x~_(i,j)(u) kept in canonical form:
parameters of zero are dropped and adjacent letters with equal root are
merged by additivity, x~_a(u) x~_a(v) = x~_a(u + v).  Inverses are folded
into parameters (x~_a(u)^{-1} = x~_a(-u)), so canonical words never carry
explicit inverse letters.  Equality of words means equality of canonical
forms only; the word problem of the full presentation is not decided
here, and commutator relations are never applied automatically.

The rank-1 presentation (n = 2) has different defining relations, so
words over SL_2 carry a caveat flag instead of a faithfulness claim.
"""

from __future__ import annotations

from .chevalley import (_canonical_letters, c_letter_seq, check_root,
                        product_of_elementaries)
from .oracles import prime_factors, tame_symbol
from .rings import QQ

RANK_ONE_CAVEAT = "rank-1: presentation not modeled"


def _signed_letters(ring, n: int, letters):
    """Validate ``(root, param)`` or ``(root, param, sign)`` letters and
    fold each sign into its parameter."""
    for letter in letters:
        if len(letter) == 3:
            root, param, sign = letter
            if sign.__class__ is not int or sign not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {sign}")
        else:
            root, param = letter
            sign = 1
        root = check_root(root, n)
        param = ring(param)
        yield root, (-param if sign < 0 else param)


class SteinbergWord:
    """A canonical word in the generators x~_(i,j)(u) over a declared ring."""

    __slots__ = ("ring", "n", "letters", "_symbols")

    def __init__(self, ring, n: int, letters, _symbols=None):
        if n < 2:
            raise ValueError(f"word size must be at least 2, got {n}")
        self.ring = ring
        self.n = n
        self.letters = tuple(_canonical_letters(
            _signed_letters(ring, n, letters)))
        self._symbols = _symbols

    @classmethod
    def identity(cls, ring, n: int) -> "SteinbergWord":
        return cls(ring, n, [])

    @property
    def reduced_length(self) -> int:
        return len(self.letters)

    @property
    def presentation_caveat(self) -> str | None:
        """Set for SL_2 words, whose presentation has extra relations."""
        return RANK_ONE_CAVEAT if self.n == 2 else None

    def _check(self, other: "SteinbergWord"):
        if not isinstance(other, SteinbergWord):
            raise ValueError("can only multiply Steinberg words")
        if other.ring != self.ring or other.n != self.n:
            raise ValueError("word product needs matching ring and size")

    def __mul__(self, other):
        self._check(other)
        symbols = None
        if self._symbols is not None and other._symbols is not None:
            symbols = self._symbols + other._symbols
        return SteinbergWord(self.ring, self.n,
                             self.letters + other.letters, _symbols=symbols)

    def inverse(self) -> "SteinbergWord":
        symbols = None
        if self._symbols is not None:
            symbols = tuple((u, v, -e) for u, v, e in reversed(self._symbols))
        return SteinbergWord(
            self.ring, self.n,
            [(root, -param) for root, param in reversed(self.letters)],
            _symbols=symbols)

    def project(self):
        """Image in SL_n: the exact product of the letters' matrices."""
        return product_of_elementaries(self.ring, self.n, self.letters)

    def __eq__(self, other):
        if not isinstance(other, SteinbergWord):
            return NotImplemented
        return (self.ring == other.ring and self.n == other.n
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.n, self.letters))

    def __str__(self):
        if not self.letters:
            return "1"
        return " * ".join(f"x[{i},{j}]({param})"
                          for (i, j), param in self.letters)

    def __repr__(self):
        return f"SteinbergWord({self})"


def symbol_word(root, u, v, n: int, ring) -> SteinbergWord:
    """The symbol word c~(u, v) = h~(u) h~(v) h~(uv)^{-1} for units u, v.

    At most 18 letters after reduction; its projection is the identity,
    so every symbol word is a kernel element.
    """
    u = ring(u)
    v = ring(v)
    if not ring.is_unit(u) or not ring.is_unit(v):
        raise ZeroDivisionError("symbol words need invertible u and v")
    return SteinbergWord(ring, n, c_letter_seq(root, u, v, ring),
                         _symbols=((u, v, 1),))


def in_k2(w: SteinbergWord) -> bool:
    """True when the word projects to the identity matrix."""
    return w.project().is_identity()


def tame_invariants(w: SteinbergWord) -> dict[int, int]:
    """Tame-symbol invariants of a product of symbol words over Q.

    The word must have been assembled from :func:`symbol_word` via
    products and inverses; arbitrary kernel words are rejected because
    rewriting them as symbols is not attempted here.  Returns, for each
    prime p dividing a numerator or denominator of any symbol entry, the
    product of tame symbols in F_p^* (as an integer in [1, p)).
    """
    if w._symbols is None:
        raise ValueError("not in symbol form")
    if w.ring is not QQ:
        raise ValueError("tame invariants are defined for symbols over Q")
    primes: set[int] = set()
    for u, v, _ in w._symbols:
        for x in (u, v):
            primes |= prime_factors(x.numerator)
            primes |= prime_factors(x.denominator)
    out: dict[int, int] = {}
    for p in sorted(primes):
        val = 1
        for u, v, e in w._symbols:
            val = (val * pow(tame_symbol(u, v, p), e, p)) % p
        out[p] = val
    return out
