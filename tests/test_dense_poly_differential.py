"""Differential tests: dense one-variable polynomials against the term dict.

Every one-variable ring stores its elements densely.  The reference is
the dict form, reached by embedding k[T] into k[T, S] as the S-degree-0
part: a two-variable ring is never dense.  Each operation on k[T] must
agree with the same operation on the embedded images, over Q, F_7 and
F_9.
"""

import random
from fractions import Fraction

import pytest

from chevloops import (GF, GroupMatrix, Poly, PolyRing, QQ, eval_matrix,
                       poly_divmod)
from chevloops.rings import _convolve

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
    @given(polys, polys, polys, st.integers(0, 3))
    def check(cf, cg, ch, k):
        f, rf = _pair(ring, big, cf)
        g, rg = _pair(ring, big, cg)
        h, rh = _pair(ring, big, ch)
        # the fused kernel: the same value, and the same stored form, as
        # the two-step sum
        fused = f.addmul(g, h)
        assert _embed(big, fused) == rf + rg * rh
        assert fused == f + g * h and hash(fused) == hash(f + g * h)
        assert f.addmul(-f, ring.one) == ring.zero
        assert f.addmul(ring.zero, h) == f and f.addmul(g, ring.zero) == f
        assert ring.zero.addmul(g, h) == g * h
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


def test_addmul_outside_the_dense_form_is_the_two_step_sum():
    # term-dict operands, scalars and mixed rings take a + x * f, errors
    # included
    ring = PolyRing(QQ, ("T", "S"))
    t, s = ring.gens()
    f, x, g = t * s + 1, t - Fraction(1, 2), s * s + t
    assert f.addmul(x, g) == f + x * g
    assert f.addmul(-f, ring.one) == ring.zero
    assert f.addmul(3, g) == f + 3 * g
    dense = PolyRing(QQ, ("T",))
    assert dense.gen("T").addmul(3, Fraction(1, 2)) == \
        dense.gen("T") + Fraction(3, 2)
    with pytest.raises(ValueError, match="mixed rings"):
        f.addmul(dense.gen("T"), g)
    with pytest.raises(ValueError, match="mixed rings"):
        dense.one.addmul(x, g)
    seven = PolyRing(GF(7), ("T",))
    with pytest.raises(ValueError, match="mixed rings"):
        dense.one.addmul(dense.gen("T"), seven.gen("T"))


def _double_sum(a, b, zero, acc):
    """acc plus a * b by the definition: out[i + j] += a[i] * b[j]."""
    out = list(acc) + [zero] * (len(a) + len(b) - 1 - len(acc))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


# the kernel's stored coefficients: integers (numerators over Q, residues
# not yet reduced over F_p) and field elements over F_{p^e}
CONVOLVE_SCALARS = {
    "int": (0, st.integers(-40, 40)),
    "F9": (GF(9).zero, FIELDS["F9"][1]),
}


@pytest.mark.parametrize("kind", sorted(CONVOLVE_SCALARS))
def test_convolve_is_the_double_sum(kind):
    # accumulators longer and shorter than the product, zero coefficients
    # in either operand, and operands of length 1
    zero, scalars = CONVOLVE_SCALARS[kind]

    @CHECK
    @given(st.lists(scalars, min_size=1, max_size=8),
           st.lists(scalars, min_size=1, max_size=8),
           st.lists(scalars, max_size=16))
    def check(a, b, acc):
        before = list(acc)
        assert _convolve(a, b, zero, acc) == _double_sum(a, b, zero, acc)
        assert _convolve(a, b, zero) == _double_sum(a, b, zero, ())
        assert acc == before
    check()


def test_convolve_on_fixed_shapes():
    nine = GF(9)
    u, v = nine((1, 2)), nine((2, 0))
    cases = [
        ([3], [5], ()), ([3], [5], [1, 1, 1]), ([0], [7, 0, 2], [4]),
        ([2, 0, 0, 1], [0, 3], []), ([1, 2], [3, 4, 5], [9] * 10),
        ([u, nine.zero, v], [v], [u]), ([v, u], [u, nine.zero, v], []),
    ]
    for a, b, acc in cases:
        zero = nine.zero if isinstance(a[0], type(u)) else 0
        assert _convolve(a, b, zero, acc) == _double_sum(a, b, zero, acc)
    rng = random.Random("convolve-long")
    a = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(1000)]
    b = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(10)]
    acc = [rng.randint(-9, 9) for _ in range(400)]
    assert _convolve(a, b, 0, acc) == _double_sum(a, b, 0, acc)
    assert _convolve(b, a, 0) == _double_sum(a, b, 0, ())


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
            # eval_matrix coerces x once and reads endpoints itself
            one_by_one = GroupMatrix(ring, [[f]], _checked=True)
            assert eval_matrix(one_by_one, x).rows == ((want,),)
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
