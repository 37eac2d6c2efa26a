"""Exact arithmetic layer: field axioms, canonical forms, division."""

import random
from fractions import Fraction

import pytest

from chevloops import GF, Poly, PolyRing, QQ, poly_divmod


def _sample(field, rng, count):
    if field is QQ:
        return [Fraction(rng.randint(-30, 30), rng.randint(1, 30))
                for _ in range(count)]
    elems = list(field.elements())
    return [elems[rng.randrange(len(elems))] for _ in range(count)]


@pytest.mark.parametrize("field", [QQ, GF(7), GF(9)])
def test_field_axioms_randomized(field):
    rng = random.Random(f"axioms-{field!r}")
    for _ in range(60):
        a, b, c = _sample(field, rng, 3)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + field.zero == a
        assert a * field.one == a
        if a != field.zero:
            inv = field.invert(a)
            assert a * inv == field.one


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_characteristic_kills_everything(q):
    field = GF(q)
    p = field.characteristic
    for x in field.elements():
        acc = field.zero
        for _ in range(p):
            acc = acc + x
        assert acc == field.zero


def test_fq_canonical_representation():
    f9 = GF(9)
    x = f9.gen()
    # x^2 reduces modulo the field polynomial x^2 + 2x + 2
    assert x * x == f9([1, 1])
    assert len(set(f9.elements())) == 9
    assert all(len(e.coeffs) == 2 for e in f9.elements())


def test_unsupported_prime_powers_error():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(25)   # e >= 2 beyond the table
    GF(101)      # any prime is fine


def test_mixed_fields_error():
    with pytest.raises(ValueError):
        GF(7)(3) + GF(5)(2)


def test_rational_normalization_is_structural():
    assert QQ("2/4") == Fraction(1, 2)
    assert str(QQ("-4/6")) == "-2/3"


def test_poly_divmod_trivial_cases():
    ring = PolyRing(QQ, ("T",))
    t = ring.gen("T")
    q, r = poly_divmod(t ** 2 + 1, t)
    assert q == t and r == ring.one
    f = 3 * t ** 4 - t + 7
    q, r = poly_divmod(f, ring.one)
    assert q == f and r.is_zero()


def test_poly_divmod_over_f5():
    ring = PolyRing(GF(5), ("T",))
    t = ring.gen("T")
    f = 2 * t ** 3 + t
    g = 3 * t + 1
    q, r = poly_divmod(f, g)
    # long division over F_5, frozen: q = 4T^2 + 2T + 3, r = 2
    assert q == 4 * t ** 2 + 2 * t + 3
    assert r == ring(2)
    assert q * g + r == f


def test_poly_divmod_roundtrip_randomized():
    rng = random.Random("divmod")
    for field in (QQ, GF(7)):
        ring = PolyRing(field, ("T",))
        for _ in range(40):
            f = Poly(ring, {(rng.randint(0, 6),): field(rng.randint(-9, 9))
                            for _ in range(rng.randint(1, 4))})
            g = Poly(ring, {(rng.randint(0, 3),): field(rng.randint(-9, 9))
                            for _ in range(rng.randint(1, 3))})
            if g.is_zero():
                continue
            q, r = poly_divmod(f, g)
            assert q * g + r == f
            assert r.is_zero() or r.degree() < g.degree()


def test_poly_divmod_errors():
    ring = PolyRing(QQ, ("T",))
    other = PolyRing(GF(7), ("T",))
    t = ring.gen("T")
    with pytest.raises(ZeroDivisionError):
        poly_divmod(t, ring.zero)
    with pytest.raises(ValueError):
        poly_divmod(t, other.gen("T"))
    multi = PolyRing(QQ, ("X", "Y"))
    with pytest.raises(ValueError):
        poly_divmod(multi.gen("X"), multi.gen("Y"))


def test_poly_eval_examples():
    ring = PolyRing(QQ, ("T",))
    t = ring.gen("T")
    f = t * (1 - t)
    assert f.evaluate({"T": 1}) == 0
    assert f.evaluate({"T": Fraction(1, 2)}) == Fraction(1, 4)


def test_poly_eval_partial_assignment():
    ring = PolyRing(QQ, ("X", "Y"))
    x, y = ring.gens()
    f = x * y + y ** 2
    g = f.evaluate({"X": 2})
    assert g.ring.variables == ("Y",)
    yy = g.ring.gen("Y")
    assert g == 2 * yy + yy ** 2


def test_poly_eval_is_a_homomorphism():
    rng = random.Random("evalhom")
    ring = PolyRing(QQ, ("T",))
    for _ in range(50):
        f = Poly(ring, {(rng.randint(0, 4),): Fraction(rng.randint(-5, 5))
                        for _ in range(3)})
        g = Poly(ring, {(rng.randint(0, 4),): Fraction(rng.randint(-5, 5))
                        for _ in range(3)})
        t0 = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        assert (f * g).evaluate({"T": t0}) == \
            f.evaluate({"T": t0}) * g.evaluate({"T": t0})
        assert (f + g).evaluate({"T": t0}) == \
            f.evaluate({"T": t0}) + g.evaluate({"T": t0})


def test_no_zero_terms_are_stored():
    ring = PolyRing(QQ, ("T",))
    t = ring.gen("T")
    f = (t + 1) * (t - 1) - t * t
    assert f == ring(-1)
    assert len(f.terms) == 1
    assert (t - t).is_zero()


def test_poly_substitute_preserves_products():
    src = PolyRing(QQ, ("X", "Y"))
    dst = PolyRing(QQ, ("T",))
    t = dst.gen("T")
    x, y = src.gens()
    f = x ** 2 + 3 * y
    g = x * y - 1
    mapping = {"X": t + 1, "Y": t * t}
    assert (f * g).substitute(mapping, dst) == \
        f.substitute(mapping, dst) * g.substitute(mapping, dst)


def test_construction_coerces_coefficients_into_the_base_field():
    ring = PolyRing(GF(7), ("T",))
    a = Poly(ring, {(1,): 3})
    b = ring.gen("T") * 3
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert str(a * a) == "2*T^2"
    multi = PolyRing(GF(7), ("X", "Y"))
    assert Poly(multi, {(1, 0): 10}) == 3 * multi.gen("X")


def test_construction_refuses_float_coefficients():
    with pytest.raises(ValueError):
        Poly(PolyRing(QQ, ("T",)), {(1,): 0.5})
    with pytest.raises(ValueError):
        Poly(PolyRing(QQ, ("X", "Y")), {(1, 0): 0.5})


def test_construction_refuses_coefficients_of_another_field():
    with pytest.raises(ValueError):
        Poly(PolyRing(GF(7), ("T",)), {(1,): GF(5)(2)})
    with pytest.raises(ValueError):
        Poly(PolyRing(GF(7), ("X", "Y")), {(0, 1): GF(5)(2)})


def test_construction_refuses_bad_exponents_in_one_variable():
    ring = PolyRing(QQ, ("T",))
    for exp in [(-1,), (1, 0), 2]:
        with pytest.raises(ValueError):
            Poly(ring, {exp: 1})
