"""Elementary factorization and the path <-> word translation."""

import random
from fractions import Fraction

import pytest

from chevloops import (GF, GroupMatrix, PathMatrix, PolyRing, QQ, elem,
                       factor_elementary, in_k2, multiply_factors, path_ring,
                       path_to_steinberg, SteinbergWord, symbol_word,
                       word_to_path, c_loop, x_loop)


def test_already_elementary():
    ring = path_ring(QQ)
    t = ring.gen("T")
    m = elem((1, 2), t, 2, ring)
    factors = factor_elementary(m)
    assert factors == [((1, 2), t)]


def test_diagonal_over_f5_expands_into_six_factors():
    field = GF(5)
    m = GroupMatrix(field, [[field(2), field(0)], [field(0), field(3)]])
    factors = factor_elementary(m)
    assert len(factors) == 6
    assert multiply_factors(field, 2, factors) == m


def test_polynomial_example_with_unit_determinant():
    # det = (1+T)(1-T) + T^2 = 1
    ring = path_ring(QQ)
    t = ring.gen("T")
    m = GroupMatrix(ring, [[1 + t, t], [-t, 1 - t]])
    factors = factor_elementary(m)
    assert multiply_factors(ring, 2, factors) == m


def test_field_case_dense_matrix():
    m = GroupMatrix(QQ, [[Fraction(2), Fraction(3)],
                         [Fraction(3), Fraction(5)]])
    factors = factor_elementary(m)
    assert multiply_factors(QQ, 2, factors) == m


def test_factorization_soundness_randomized():
    rng = random.Random("factor-sound")
    for field in (GF(7), QQ):
        ring = path_ring(field)
        t = ring.gen("T")
        roots = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
        for _ in range(30):
            factors_in = []
            for _ in range(rng.randint(1, 12)):
                root = roots[rng.randrange(len(roots))]
                if field is QQ:
                    coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
                else:
                    coeffs = [field(rng.randint(0, 6)) for _ in range(3)]
                param = sum((c * t ** k for k, c in enumerate(coeffs)),
                            ring.zero)
                factors_in.append((root, param))
            m = multiply_factors(ring, 3, factors_in)
            out = factor_elementary(m)
            assert multiply_factors(ring, 3, out) == m


def test_multivariate_rings_are_rejected():
    ring = PolyRing(QQ, ("X", "Y"))
    m = GroupMatrix.identity(ring, 2)
    with pytest.raises(ValueError):
        factor_elementary(m)


def test_word_to_path_examples():
    u = Fraction(4)
    w = SteinbergWord(QQ, 3, [((1, 2), u)])
    assert word_to_path(w) == x_loop((1, 2), u, 3, QQ)
    empty = SteinbergWord(QQ, 3, [((1, 2), Fraction(0))])
    assert word_to_path(empty).matrix.is_identity()
    sym = symbol_word((1, 2), Fraction(2), Fraction(3), 3, QQ)
    assert word_to_path(sym).is_loop()


def test_path_to_steinberg_examples():
    u = Fraction(3, 2)
    y = x_loop((1, 2), u, 3, QQ)
    w = path_to_steinberg(y)
    assert w.letters == (((1, 2), u),)

    loop = c_loop((1, 2), Fraction(2), Fraction(3), 2, QQ)
    lifted = path_to_steinberg(loop)
    assert in_k2(lifted)

    ring = path_ring(QQ)
    const = PathMatrix(GroupMatrix.identity(ring, 3))
    assert path_to_steinberg(const).reduced_length == 0


def test_path_to_steinberg_projection_contract():
    rng = random.Random("translate")
    field = GF(7)
    ring = path_ring(field)
    t = ring.gen("T")
    roots = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    for _ in range(20):
        factors = [(roots[rng.randrange(len(roots))],
                    t * field(rng.randint(0, 6)))
                   for _ in range(rng.randint(1, 8))]
        y = PathMatrix(multiply_factors(ring, 3, factors))
        w = path_to_steinberg(y)
        assert w.project() == y.at(1)


def test_word_path_word_roundtrip_preserves_projection():
    rng = random.Random("roundtrip")
    field = GF(7)
    roots = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    for _ in range(15):
        letters = [(roots[rng.randrange(len(roots))],
                    field(rng.randint(0, 6)))
                   for _ in range(rng.randint(0, 8))]
        from chevloops import SteinbergWord
        w = SteinbergWord(field, 3, letters)
        back = path_to_steinberg(word_to_path(w))
        assert back.project() == w.project()


def test_path_to_steinberg_requires_based_path():
    ring = path_ring(QQ)
    m = elem((1, 2), ring(Fraction(1)), 2, ring)   # constant, not based
    with pytest.raises(ValueError):
        path_to_steinberg(PathMatrix(m))


def test_a_singular_matrix_is_refused():
    # _checked skips the determinant check that would refuse it sooner
    ring = path_ring(QQ)
    m = GroupMatrix(ring, [[ring.zero] * 2] * 2, _checked=True)
    with pytest.raises(ValueError) as err:
        factor_elementary(m)
    assert str(err.value) == "matrix is singular; determinant cannot be 1"
