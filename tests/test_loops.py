"""Loop layer: paths, endpoints, the closed form, and exact identities."""

import random
from fractions import Fraction

import pytest

from chevloops import (GF, PolyRing, QQ, c_loop, h_elem, h_loop,
                       identity_path, path_ring, sl2_closed_form,
                       verify_path_identity, w_loop, x_loop)


def _units(field, rng, count):
    if field is QQ:
        out = []
        while len(out) < count:
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if x != 0:
                out.append(x)
        return out
    us = field.units()
    return [us[rng.randrange(len(us))] for _ in range(count)]


@pytest.mark.parametrize("field", [QQ, GF(7), GF(9)])
def test_path_ring_is_the_one_k_t(field):
    assert path_ring(field) is PolyRing(field, ("T",))
    assert x_loop((1, 2), 1, 2, field).ring is path_ring(field)


def test_x_loop_examples():
    p = x_loop((1, 2), 0, 2, QQ)
    assert p.matrix.is_identity()
    p = x_loop((1, 2), Fraction(3), 2, QQ)
    assert p.is_path()
    assert p.at(1).entry(1, 2) == 3
    assert not p.is_loop()


def test_w_loop_sl2_frozen_entries():
    # expanded by hand: [[1 - T^2, T u (2 - T^2)], [-T/u, 1 - T^2]]
    u = Fraction(3)
    ring = path_ring(QQ)
    t = ring.gen("T")
    w = w_loop((1, 2), u, 2, QQ).matrix
    assert w.entry(1, 1) == 1 - t * t
    assert w.entry(1, 2) == t * u * (2 - t * t)
    assert w.entry(2, 1) == -t * Fraction(1, 3)
    assert w.entry(2, 2) == 1 - t * t
    assert w_loop((1, 2), u, 2, QQ).is_path()


def test_h_loop_contract():
    assert h_loop((1, 2), 1, 2, QQ).matrix.is_identity()
    for field, u in ((QQ, Fraction(5, 3)), (GF(7), GF(7)(3))):
        p = h_loop((1, 2), u, 3, field)
        assert p.is_path()
        assert not p.is_loop()
        assert p.at(1) == h_elem((1, 2), u, 3, field)


def test_c_loop_degenerate_units_give_constant_identity():
    for a, b in ((1, 7), (7, 1)):
        p = c_loop((1, 2), Fraction(a), Fraction(b), 2, QQ)
        assert p.matrix.is_identity()


def test_c_loop_2_3_is_a_loop():
    p = c_loop((1, 2), Fraction(2), Fraction(3), 2, QQ)
    at0, at1 = p.endpoints()
    assert at0.is_identity() and at1.is_identity()
    assert not p.matrix.is_identity()


@pytest.mark.parametrize("field", [QQ, GF(7), GF(9)])
def test_every_c_loop_is_a_loop(field):
    rng = random.Random(f"loops-{field!r}")
    for n in (2, 3, 4):
        roots = [(i, j) for i in range(1, n + 1)
                 for j in range(1, n + 1) if i != j]
        for root in roots:
            a, b = _units(field, rng, 2)
            assert c_loop(root, a, b, n, field).is_loop()


def test_non_units_are_rejected():
    with pytest.raises(ZeroDivisionError):
        w_loop((1, 2), 0, 2, QQ)
    with pytest.raises(ZeroDivisionError):
        c_loop((1, 2), Fraction(0), Fraction(2), 2, QQ)
    with pytest.raises(ZeroDivisionError):
        sl2_closed_form(GF(7)(0), GF(7)(1), GF(7))


def test_closed_form_correction_vanishes_at_0_1_minus1():
    p = sl2_closed_form(Fraction(2), Fraction(3), QQ)
    assert p.at(0).is_identity()
    assert p.at(1).is_identity()
    assert p.at(-1).is_identity()


def test_closed_form_with_u_equal_one_is_constant():
    p = sl2_closed_form(Fraction(1), Fraction(5), QQ)
    assert p.matrix.is_identity()


def test_closed_form_matches_definitional_product():
    # exact entrywise comparison; a failing case would print the difference
    rng = random.Random("closed-form")
    for field in (QQ, GF(101), GF(9)):
        for _ in range(10):
            u, v = _units(field, rng, 2)
            got = sl2_closed_form(u, v, field).matrix
            want = c_loop((1, 2), u, v, 2, field).matrix
            if got != want:
                diff = [[str(got.rows[i][j] - want.rows[i][j])
                         for j in range(2)] for i in range(2)]
                raise AssertionError(f"difference matrix: {diff}")


def test_verify_path_identity_w_cancellation():
    for field in (QQ, GF(7)):
        u = field(3)
        ok, cert = verify_path_identity(
            [w_loop((1, 2), u, 2, field), w_loop((1, 2), -u, 2, field)],
            [identity_path(field, 2)])
        assert ok and cert is None


def test_verify_path_identity_definitional_c():
    a, b = Fraction(2), Fraction(5)
    lhs = [c_loop((1, 2), a, b, 3, QQ)]
    rhs = [h_loop((1, 2), a, 3, QQ), h_loop((1, 2), b, 3, QQ),
           h_loop((1, 2), a * b, 3, QQ).inverse()]
    ok, cert = verify_path_identity(lhs, rhs)
    assert ok and cert is None
    # PathMatrix products multiply the underlying matrices
    assert (rhs[0] * rhs[1] * rhs[2]).matrix == lhs[0].matrix
    with pytest.raises(TypeError):
        lhs[0] * lhs[0].matrix


def test_verify_path_identity_refutes_h_commutation():
    lhs = [h_loop((1, 2), Fraction(2), 2, QQ),
           h_loop((1, 2), Fraction(3), 2, QQ)]
    rhs = [h_loop((1, 2), Fraction(3), 2, QQ),
           h_loop((1, 2), Fraction(2), 2, QQ)]
    ok, cert = verify_path_identity(lhs, rhs)
    assert not ok
    row, col, left, right = cert
    assert (row, col) == (1, 1)
    assert left != right


def test_verify_path_identity_size_mismatch():
    with pytest.raises(ValueError):
        verify_path_identity([identity_path(QQ, 2)], [identity_path(QQ, 3)])
