"""Group matrices: generators, relations, and exact determinants."""

import random
import time
from fractions import Fraction

import pytest

from chevloops import (GF, GroupMatrix, PolyRing, QQ, commutator, elem,
                       eval_matrix, h_elem, product_of_elementaries, w_elem)


def test_elem_examples():
    assert elem((1, 2), 0, 2, QQ).is_identity()
    m = elem((1, 2), Fraction(5), 3, QQ) * elem((2, 3), Fraction(7), 3, QQ)
    assert m.entry(1, 3) == 35


def test_elem_additivity_randomized():
    rng = random.Random("additivity")
    for field in (QQ, GF(7)):
        for _ in range(25):
            a = field(rng.randint(-20, 20))
            b = field(rng.randint(-20, 20))
            lhs = elem((1, 3), a, 3, field) * elem((1, 3), b, 3, field)
            assert lhs == elem((1, 3), a + b, 3, field)


def test_elem_rejects_bad_roots():
    with pytest.raises(ValueError):
        elem((1, 1), 1, 2, QQ)
    with pytest.raises(ValueError):
        elem((1, 4), 1, 3, QQ)
    with pytest.raises(ValueError):
        elem((0, 1), 1, 2, QQ)


def test_commutator_relations_type_a():
    # [x_ij(a), x_kl(b)] = 1 when j != k and i != l
    # [x_ij(a), x_jl(b)] = x_il(ab) when i != l
    # [x_ij(a), x_ki(b)] = x_kj(-ab) when j != k
    rng = random.Random("chevalley-comm")
    for field in (QQ, GF(7)):
        for _ in range(20):
            a = field(rng.randint(-9, 9))
            b = field(rng.randint(-9, 9))
            x12 = elem((1, 2), a, 4, field)
            x34 = elem((3, 4), b, 4, field)
            assert commutator(x12, x34).is_identity()
            x23 = elem((2, 3), b, 4, field)
            assert commutator(x12, x23) == elem((1, 3), a * b, 4, field)
            x31 = elem((3, 1), b, 4, field)
            assert commutator(x12, x31) == elem((3, 2), -(a * b), 4, field)


def test_w_elem_sl2():
    w = w_elem((1, 2), Fraction(1), 2, QQ)
    assert w.rows == ((Fraction(0), Fraction(1)),
                      (Fraction(-1), Fraction(0)))


def test_w_elem_sl3_block():
    u = Fraction(5)
    w = w_elem((1, 2), u, 3, QQ)
    assert w.entry(1, 2) == u
    assert w.entry(2, 1) == Fraction(-1, 5)
    assert w.entry(1, 1) == 0 and w.entry(2, 2) == 0
    assert w.entry(3, 3) == 1


def test_w_elem_inverse_is_w_of_minus_u():
    rng = random.Random("w-inverse")
    for field in (QQ, GF(11)):
        for _ in range(15):
            u = field(rng.randint(1, 10))
            w = w_elem((1, 2), u, 2, field)
            assert w.inverse() == w_elem((1, 2), -u, 2, field)
            assert (w * w_elem((1, 2), -u, 2, field)).is_identity()


def test_w_elem_needs_a_unit():
    with pytest.raises(ZeroDivisionError):
        w_elem((1, 2), 0, 2, QQ)
    with pytest.raises(ZeroDivisionError):
        w_elem((1, 2), GF(7)(0), 2, GF(7))


def test_h_elem_is_the_expected_diagonal():
    u = Fraction(7, 2)
    h = h_elem((1, 2), u, 3, QQ)
    assert h.entry(1, 1) == u
    assert h.entry(2, 2) == Fraction(2, 7)
    assert h.entry(3, 3) == 1
    assert all(h.entry(i, j) == 0
               for i in range(1, 4) for j in range(1, 4) if i != j)
    assert h_elem((1, 2), 1, 3, QQ).is_identity()


def test_h_elem_multiplicative_over_f11():
    field = GF(11)
    units = field.units()
    rng = random.Random("h-mult")
    for _ in range(30):
        u = units[rng.randrange(len(units))]
        v = units[rng.randrange(len(units))]
        lhs = h_elem((2, 3), u, 3, field) * h_elem((2, 3), v, 3, field)
        assert lhs == h_elem((2, 3), u * v, 3, field)


def test_eval_matrix_examples():
    ring = PolyRing(QQ, ("T",))
    t = ring.gen("T")
    u = Fraction(4)
    m = elem((1, 2), t * u, 2, ring)
    assert eval_matrix(m, 0).is_identity()
    assert eval_matrix(m, 1) == elem((1, 2), u, 2, QQ)


def test_eval_commutes_with_multiplication():
    rng = random.Random("eval-mult")
    ring = PolyRing(GF(7), ("T",))
    t = ring.gen("T")
    field = GF(7)
    for _ in range(20):
        a = elem((1, 2), t * field(rng.randint(0, 6)), 3, ring)
        b = elem((2, 3), t * t * field(rng.randint(0, 6)), 3, ring)
        c = elem((3, 1), t * field(rng.randint(0, 6)), 3, ring)
        prod = a * b * c
        t0 = field(rng.randint(0, 6))
        assert eval_matrix(prod, t0) == \
            eval_matrix(a, t0) * eval_matrix(b, t0) * eval_matrix(c, t0)
        assert eval_matrix(prod, t0).det() == field.one


def test_construction_checks_determinant():
    with pytest.raises(ValueError):
        GroupMatrix(QQ, [[2, 0], [0, 2]])
    GroupMatrix(QQ, [[2, 0], [0, Fraction(1, 2)]])


def test_size_and_ring_mixing_is_an_error():
    a = elem((1, 2), 1, 2, QQ)
    b = elem((1, 2), 1, 3, QQ)
    with pytest.raises(ValueError):
        a * b
    c = elem((1, 2), 1, 2, GF(5))
    with pytest.raises(ValueError):
        a * c


def test_det_preserved_under_random_products():
    rng = random.Random("det-products")
    field = GF(7)
    roots = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    m = GroupMatrix.identity(field, 3)
    for _ in range(40):
        root = roots[rng.randrange(len(roots))]
        m = m * elem(root, field(rng.randint(0, 6)), 3, field)
        assert m.det() == field.one


def test_dense_8x8_inverse_over_q_t_is_fast():
    # x_L * x_U with every letter a + bT: no entry is zero
    ring = PolyRing(QQ, ("T",))
    t = ring.gen("T")
    rng = random.Random("dense-8x8")

    def letters(lower):
        return [((i, j), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 + rng.randint(1, 9) * t)
                for i in range(1, 9) for j in range(1, 9)
                if (i > j if lower else i < j)]

    m = (product_of_elementaries(ring, 8, letters(True))
         * product_of_elementaries(ring, 8, letters(False)))
    assert all(x for row in m.rows for x in row)
    t0 = time.perf_counter()
    inv = m.inverse()
    assert time.perf_counter() - t0 < 1.0
    assert (m * inv).is_identity() and (inv * m).is_identity()
