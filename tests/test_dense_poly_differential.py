"""Differential tests: dense one-variable polynomials against the term dict.

Every one-variable ring stores its elements densely.  The reference is
the dict form, reached by embedding k[T] into k[T, S] as the S-degree-0
part: a two-variable ring is never dense.  Each operation on k[T] must
agree with the same operation on the embedded images, over Q, F_7 and
F_9.
"""

from fractions import Fraction

import pytest

from chevloops import GF, Poly, PolyRing, QQ, poly_divmod

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

FIELDS = {
    "Q": (QQ, st.fractions(min_value=-20, max_value=20,
                           max_denominator=12)),
    "F7": (GF(7), st.integers(0, 6).map(GF(7))),
    "F9": (GF(9), st.tuples(st.integers(0, 2), st.integers(0, 2)).map(GF(9))),
}
CHECK = settings(max_examples=120, deadline=None, derandomize=True,
                 database=None)


def _rings(name):
    field, scalars = FIELDS[name]
    return field, scalars, PolyRing(field, ("T",)), PolyRing(field, ("T", "S"))


def _pair(dense_ring, dict_ring, coeffs):
    """The same polynomial in k[T] and, embedded, in k[T, S]."""
    f = Poly(dense_ring, {(k,): c for k, c in enumerate(coeffs)})
    ref = Poly(dict_ring, {(k, 0): c for k, c in enumerate(coeffs)})
    return f, ref


def _embed(dict_ring, f):
    return Poly(dict_ring, {(k, 0): c for (k,), c in f.terms.items()})


def _ref_leading(ref):
    return ref.terms[max(ref.terms)] if ref.terms else ref.ring.base.zero


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_ring_operations_match_the_dict_form(name):
    field, scalars, ring, big = _rings(name)
    polys = st.lists(scalars, max_size=7)

    @CHECK
    @given(polys, polys, st.integers(0, 3))
    def check(cf, cg, k):
        f, rf = _pair(ring, big, cf)
        g, rg = _pair(ring, big, cg)
        assert _embed(big, f + g) == rf + rg
        assert _embed(big, f - g) == rf - rg
        assert _embed(big, -f) == -rf
        assert _embed(big, f * g) == rf * rg
        assert _embed(big, f ** k) == rf ** k
        assert (f == g) == (rf == rg)
        if f == g:
            assert hash(f) == hash(g)
        # equal values built along different routes hash alike
        h = (f + g) - g
        assert h == f and hash(h) == hash(f)
        assert Poly(ring, f.terms) == f
        assert f.terms == {(e[0],): c for e, c in rf.terms.items()}
    check()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_scalar_queries_match_the_dict_form(name):
    field, scalars, ring, big = _rings(name)

    @CHECK
    @given(st.lists(scalars, max_size=7), scalars)
    def check(cf, t):
        f, rf = _pair(ring, big, cf)
        for x in (field.zero, field.one, t):
            assert f.evaluate({"T": x}) == rf.evaluate({"T": x, "S": 0})
        assert f.degree() == rf.degree()
        assert f.leading_coefficient() == _ref_leading(rf)
        assert f.is_constant() == rf.is_constant()
        if f.is_constant():
            assert f.constant_value() == rf.constant_value()
        assert f.is_zero() == rf.is_zero()
        assert str(f) == str(rf)
    check()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_evaluate_is_the_definitional_sum(name):
    # T = 0 and T = 1 read coefficients directly; every other value goes
    # through substitute.  Both endpoints are checked on every example.
    field, scalars, ring, _ = _rings(name)

    @CHECK
    @given(st.lists(scalars, max_size=9), scalars)
    def check(cf, t):
        f = Poly(ring, {(k,): c for k, c in enumerate(cf)})
        for x in (field.zero, field.one, t):
            want = field.zero
            for k, c in enumerate(cf):
                want = want + c * x ** k
            assert f.evaluate({"T": x}) == want
    check()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_poly_divmod_is_euclidean_division(name):
    field, scalars, ring, big = _rings(name)

    @CHECK
    @given(st.lists(scalars, max_size=9), st.lists(scalars, max_size=5))
    def check(cf, cg):
        f = Poly(ring, {(k,): c for k, c in enumerate(cf)})
        g = Poly(ring, {(k,): c for k, c in enumerate(cg)})
        if g.is_zero():
            with pytest.raises(ZeroDivisionError):
                poly_divmod(f, g)
            return
        q, r = poly_divmod(f, g)
        assert q * g + r == f
        assert r.degree() < g.degree()
        assert q.degree() == max(f.degree() - g.degree(), -1)
    check()


def test_scalar_evaluation_uses_exact_rationals():
    ring = PolyRing(QQ, ("T",))
    t = ring.gen("T")
    f = (t - Fraction(1, 3)) * (t + 2) * Fraction(3, 4)
    assert f.evaluate({"T": Fraction(1, 3)}) == 0
    assert f.evaluate({"T": Fraction(-5, 7)}) == \
        Fraction(3, 4) * (Fraction(-5, 7) - Fraction(1, 3)) * \
        (Fraction(-5, 7) + 2)
