"""``tame_symbol`` against its definition on random arguments.

``tame_symbol`` reads the numerator and denominator of ``int`` and
``Fraction`` arguments directly and sends anything else through
``Fraction``.  Here every argument is drawn with a valuation of -3..3 at
p and passed as an int, a ``Fraction`` or a string, at p = 2, small odd
primes and primes near 10^6, and the result must equal
(-1)^(v(a) v(b)) a^v(b) / b^v(a) reduced mod p, computed in ``Fraction``
arithmetic.
"""

from fractions import Fraction

import pytest

from chevloops import tame_symbol

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings


def _valuation(x: Fraction, p: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _tame_by_definition(a: Fraction, b: Fraction, p: int) -> int:
    # (-1)^(v(a) v(b)) a^v(b) / b^v(a) has valuation 0: reduce it mod p
    va, vb = _valuation(a, p), _valuation(b, p)
    x = Fraction(-1) ** (va * vb) * a ** vb / b ** va
    return x.numerator * pow(x.denominator, -1, p) % p


@st.composite
def _tame_argument(draw, p):
    """A nonzero rational with valuation in -3..3 at p, as an int (when
    integral), a ``Fraction`` or a string."""
    x = Fraction(draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 6)))
    x *= draw(st.sampled_from([1, -1])) * Fraction(p) ** draw(
        st.integers(-3, 3))
    kind = draw(st.sampled_from(["int", "fraction", "str"]))
    if kind == "int" and x.denominator == 1:
        return x, int(x)
    return x, (str(x) if kind == "str" else x)


@st.composite
def _tame_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 999983, 1000003]))
    return p, draw(_tame_argument(p)), draw(_tame_argument(p))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_tame_case())
def test_tame_symbol_matches_the_definition(case):
    p, (a, a_arg), (b, b_arg) = case
    assert tame_symbol(a_arg, b_arg, p) == _tame_by_definition(a, b, p)


@pytest.mark.parametrize("zero", [0, Fraction(0), "0", "0/5", 0.0])
def test_tame_symbol_zero_in_every_form(zero):
    for a, b in ((zero, 3), (3, zero)):
        with pytest.raises(ZeroDivisionError):
            tame_symbol(a, b, 5)
    # the prime is checked first
    with pytest.raises(ValueError):
        tame_symbol(zero, 3, 6)
