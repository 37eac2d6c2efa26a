"""Exact arithmetic layer: field axioms, canonical forms, division."""

import random
from fractions import Fraction

import pytest

from chevloops import GF, Poly, PolyRing, QQ, RingMap, poly_divmod
from chevloops.rings import MAX_PRIME_TEST, _prime_power, is_prime


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
        if x:
            assert x * x.inverse() == field.one


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


def test_rings_are_one_object_per_construction():
    for q in (2, 7, 9, 16, 101):
        assert GF(q) is GF(q)
    for base in (QQ, GF(7), GF(9)):
        for names in ((), ("T",), ("X", "Y")):
            ring = PolyRing(base, names)
            zero, one = ring.zero, ring.one
            assert PolyRing(base, list(names)) is ring
            # a repeated construction does not rebuild the ring's constants
            assert ring.zero is zero and ring.one is one
    assert PolyRing(QQ, ("T",)) is not PolyRing(GF(7), ("T",))
    assert PolyRing(QQ, ("X", "Y")) is not PolyRing(QQ, ("Y", "X"))
    with pytest.raises(ValueError, match="repeated"):
        PolyRing(QQ, ("T", "T"))
    with pytest.raises(ValueError, match="unsupported"):
        PolyRing(PolyRing(QQ, ("T",)), ("S",))


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if _is_prime_by_trial_division(n)]


@pytest.mark.parametrize("n", [
    2047,                          # strong pseudoprime to base 2
    1373653,                       # to bases 2, 3
    25326001,                      # to bases 2, 3, 5
    3215031751,                    # to bases 2, 3, 5, 7
    318665857834031151167461,      # psi_12: to the 12 prime bases up to 37
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large_values_and_limit():
    assert MAX_PRIME_TEST == 3317044064679887385961981   # psi_13
    assert is_prime(10 ** 18 + 3) and is_prime(2 ** 61 - 1)
    assert not is_prime(MAX_PRIME_TEST - 1)
    with pytest.raises(ValueError, match="MAX_PRIME_TEST"):
        is_prime(MAX_PRIME_TEST)


def test_prime_power_decomposition():
    assert _prime_power(7) == (7, 1)
    assert _prime_power(64) == (2, 6)
    assert _prime_power(3 ** 40) == (3, 40)
    assert _prime_power(2 ** 100) == (2, 100)    # beyond the test limit
    assert GF(10 ** 18 + 3).p == 10 ** 18 + 3
    for q in (1, 6, 36, 100, 318665857834031151167461):
        with pytest.raises(ValueError, match="not a prime power"):
            _prime_power(q)


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


@pytest.mark.parametrize("field", [QQ, GF(7), GF(9)])
def test_poly_eval_multivariate_matches_the_term_sum(field):
    rng = random.Random(f"evalxyz-{field!r}")
    vs = ("X", "Y", "Z")
    ring = PolyRing(field, vs)
    for _ in range(25):
        f = Poly(ring, {tuple(rng.randint(0, 3) for _ in vs): c
                        for c in _sample(field, rng, 6)})
        point = dict(zip(vs, _sample(field, rng, 3)))
        for keep in ((), ("X",), ("Y",), ("Z",), ("X", "Z"), ("Y", "Z")):
            assignment = {v: x for v, x in point.items() if v not in keep}
            # sum over the terms, each with its assigned factors multiplied in
            want = {}
            for e, c in f.terms.items():
                for v, k in zip(vs, e):
                    if v not in keep:
                        c = c * assignment[v] ** k
                rest = tuple(k for v, k in zip(vs, e) if v in keep)
                want[rest] = want.get(rest, field.zero) + c
            got = f.evaluate(assignment)
            if keep:
                assert got.ring.variables == keep
                assert got == Poly(PolyRing(field, keep), want)
            else:
                assert type(got) is type(field.one)
                assert got == want.get((), field.zero)


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
    phi = RingMap(src, dst, {"X": t + 1, "Y": t * t})
    assert (f * g).substitute(phi) == f.substitute(phi) * g.substitute(phi)


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


Q_XY = PolyRing(QQ, ("X", "Y"))


@pytest.mark.parametrize("ring, exp", [
    (Q_XY, (-1, 0)), (Q_XY, (1,)), (Q_XY, (True, False)),
    (PolyRing(QQ, ("T",)), (True,)),
], ids=["negative", "short", "bools", "bool-in-one-variable"])
def test_construction_refuses_exponent_vectors_that_are_not_the_variables(
        ring, exp):
    with pytest.raises(ValueError) as err:
        Poly(ring, {exp: 1})
    assert str(err.value) == f"bad exponent vector {exp!r} for {ring!r}"


def _ring_errors():
    q_t = PolyRing(QQ, ("T",))
    t = q_t.gen("T")
    return {
        "divmod-of-scalars": (lambda: poly_divmod(1, t), ValueError,
                              "poly_divmod expects polynomials"),
        "negative-power": (lambda: t ** -1, ValueError,
                           "polynomial powers must be nonnegative integers"),
        "constant-value": (lambda: (t + 1).constant_value(), ValueError,
                           "T + 1 is not constant"),
        "leading-coefficient": (
            lambda: Q_XY.gen("X").leading_coefficient(), ValueError,
            "leading coefficient needs a univariate ring"),
        "invert-non-unit": (lambda: q_t.invert(t), ZeroDivisionError,
                            "T is not a unit of Q[T]"),
        "foreign-polynomial": (
            lambda: q_t(PolyRing(GF(7), ("T",)).gen("T")), ValueError,
            "polynomial of GF(7)[T] is not in Q[T]"),
        "prime-field-gen": (lambda: GF(7).gen(), ValueError,
                            "prime fields have no distinguished generator"),
        # FqElement has no reflected - or /
        "int-minus-fq": (lambda: 3 - GF(7)(2), TypeError,
                         "unsupported operand type(s) for -: 'int' and "
                         "'FqElement'"),
        "int-over-fq": (lambda: 3 / GF(7)(2), TypeError,
                        "unsupported operand type(s) for /: 'int' and "
                        "'FqElement'"),
    }


@pytest.mark.parametrize("case", sorted(_ring_errors()))
def test_ring_refusals_name_the_problem(case):
    call, exc, message = _ring_errors()[case]
    with pytest.raises(exc) as err:
        call()
    assert str(err.value) == message
