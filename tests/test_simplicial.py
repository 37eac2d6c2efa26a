"""Simplicial coordinate rings, face/degeneracy maps, Moore-complex checks."""

import random
from fractions import Fraction

import pytest

from chevloops import (GF, GroupMatrix, PathMatrix, QQ, SimplexMatrix,
                       SimplexPoly, c_loop, degeneracy, elem, face,
                       moore_is_loop, path_ring, path_to_simplex,
                       simplex_ring, simplex_to_path, verify_homotopy_witness,
                       x_loop, identity_path)
from chevloops.simplicial import _structure_map


def test_level1_faces_match_endpoint_evaluations():
    # with T = X1: d_1(T) = 0 and d_0(T) = X0 = 1 at level 0
    sp = SimplexPoly(QQ, 1, simplex_ring(QQ, 1).gen("X1"))
    assert face(1, sp).poly == simplex_ring(QQ, 0).zero
    assert face(0, sp).poly == simplex_ring(QQ, 0).one


def test_level1_structure_maps_fill_their_memos():
    # a level-1 source is stored densely and still goes through the
    # per-map monomial memo
    x = simplex_ring(GF(7), 1).gen("X1")
    sp = SimplexPoly(GF(7), 1, 3 * x ** 2 + x + 2)
    for kind, i, apply in (("d", 0, face), ("s", 1, degeneracy)):
        memo = _structure_map(GF(7), 1, i, kind)[2]
        memo.clear()
        apply(i, sp)
        assert set(memo) == set(sp.poly.terms)


def test_face_indices_out_of_range():
    sp = SimplexPoly(QQ, 2, simplex_ring(QQ, 2).gen("X1"))
    with pytest.raises(ValueError):
        face(3, sp)
    with pytest.raises(ValueError):
        face(-1, sp)
    with pytest.raises(ValueError):
        face(0, SimplexPoly(QQ, 0, 1))


def _random_simplex_poly(rng, field, level):
    ring = simplex_ring(field, level)
    nvars = len(ring.variables)
    terms = {tuple(rng.randint(0, 2) for _ in range(nvars)):
             field(rng.randint(-6, 6)) for _ in range(3)}
    from chevloops import Poly
    return SimplexPoly(field, level, Poly(ring, terms))


def test_simplicial_identities_randomized():
    rng = random.Random("simplicial-ids")
    for _ in range(40):
        field = (QQ, GF(7))[rng.randrange(2)]
        level = rng.randint(2, 4)
        sp = _random_simplex_poly(rng, field, level)
        for i in range(level):
            for j in range(i + 1, level + 1):
                assert face(i, face(j, sp)) == face(j - 1, face(i, sp))
        for i in range(level + 1):
            for j in range(i, level + 1):
                assert degeneracy(i, degeneracy(j, sp)) == \
                    degeneracy(j + 1, degeneracy(i, sp))
        for i in range(level + 2):
            for j in range(level + 1):
                lhs = face(i, degeneracy(j, sp))
                if i == j or i == j + 1:
                    assert lhs == sp
                elif i < j:
                    assert lhs == degeneracy(j - 1, face(i, sp))
                else:
                    assert lhs == degeneracy(j, face(i - 1, sp))


def test_s0_then_d0_is_identity_on_level_2():
    rng = random.Random("s0d0")
    for _ in range(10):
        sp = _random_simplex_poly(rng, QQ, 2)
        assert face(0, degeneracy(0, sp)) == sp


def test_faces_are_ring_homomorphisms():
    rng = random.Random("face-hom")
    for _ in range(15):
        level = rng.randint(1, 3)
        a = _random_simplex_poly(rng, QQ, level)
        b = _random_simplex_poly(rng, QQ, level)
        for i in range(level + 1):
            assert face(i, SimplexPoly(QQ, level, a.poly * b.poly)).poly == \
                face(i, a).poly * face(i, b).poly


def test_matrix_faces_commute_with_multiplication():
    field = GF(7)
    ring = simplex_ring(field, 2)
    x1, x2 = ring.gen("X1"), ring.gen("X2")
    a = SimplexMatrix(field, 2, elem((1, 2), x1 * x2, 2, ring))
    b = SimplexMatrix(field, 2, elem((2, 1), x1 + x2, 2, ring))
    prod = SimplexMatrix(field, 2, a.matrix * b.matrix)
    for i in range(3):
        assert face(i, prod).matrix == face(i, a).matrix * face(i, b).matrix
        assert face(i, prod).matrix.det() == simplex_ring(field, 1).one


def test_moore_is_loop_examples():
    ident = path_to_simplex(identity_path(QQ, 2))
    assert moore_is_loop(ident)
    cl = path_to_simplex(c_loop((1, 2), Fraction(2), Fraction(3), 2, QQ))
    assert moore_is_loop(cl)
    xl = path_to_simplex(x_loop((1, 2), Fraction(1), 2, QQ))
    assert not moore_is_loop(xl)


def test_path_simplex_roundtrip():
    p = c_loop((1, 2), Fraction(2), Fraction(5), 3, QQ)
    assert simplex_to_path(path_to_simplex(p)) == p


def test_homotopy_witness_trivial():
    r2 = simplex_ring(QQ, 2)
    sigma = SimplexMatrix(QQ, 2, GroupMatrix.identity(r2, 2))
    ident = path_to_simplex(identity_path(QQ, 2))
    assert verify_homotopy_witness(sigma, ident, ident)


def test_homotopy_witness_certifies_null_homotopy():
    # sigma = e12(X1 X2): d1 = d2 = 1 and d0 = e12(X0 X1) = e12((1-T) T),
    # so the loop e12(T - T^2) is homotopic to the constant loop
    r2 = simplex_ring(QQ, 2)
    sigma = SimplexMatrix(
        QQ, 2, elem((1, 2), r2.gen("X1") * r2.gen("X2"), 2, r2))
    ring = path_ring(QQ)
    t = ring.gen("T")
    the_loop = path_to_simplex(PathMatrix(elem((1, 2), t - t * t, 2, ring)))
    assert moore_is_loop(the_loop)
    const = path_to_simplex(identity_path(QQ, 2))
    assert verify_homotopy_witness(sigma, const, the_loop)
    # and the faces say exactly what they should
    d0 = face(0, sigma)
    assert d0.matrix == the_loop.matrix
    assert face(1, sigma).is_identity()
    assert face(2, sigma).is_identity()


def test_homotopy_witness_rejects_wrong_sigma():
    r2 = simplex_ring(QQ, 2)
    sigma = SimplexMatrix(QQ, 2, elem((1, 2), r2.gen("X1"), 2, r2))
    const = path_to_simplex(identity_path(QQ, 2))
    assert not verify_homotopy_witness(sigma, const, const)
    # e12(X2 X0) and e12(X1 X0) differ from e12(X1 X2) by a multiple of X0,
    # so d0 is still e12(T - T^2); only d1, resp. d2, is not trivial
    x1, x2 = r2.gens()
    t = path_ring(QQ).gen("T")
    the_loop = path_to_simplex(PathMatrix(elem((1, 2), t - t * t, 2,
                                               path_ring(QQ))))
    for param, bad_face in ((x2 - x2 * x2, 1), (x1 - x1 * x1, 2)):
        sigma = SimplexMatrix(QQ, 2, elem((1, 2), param, 2, r2))
        assert face(0, sigma).matrix == the_loop.matrix
        assert not face(bad_face, sigma).is_identity()
        assert face(3 - bad_face, sigma).is_identity()
        assert not verify_homotopy_witness(sigma, const, the_loop)


def test_homotopy_witness_preconditions():
    r2 = simplex_ring(QQ, 2)
    sigma = SimplexMatrix(QQ, 2, GroupMatrix.identity(r2, 2))
    not_loop = path_to_simplex(x_loop((1, 2), Fraction(1), 2, QQ))
    const = path_to_simplex(identity_path(QQ, 2))
    with pytest.raises(ValueError):
        verify_homotopy_witness(sigma, not_loop, const)
    with pytest.raises(ValueError):
        verify_homotopy_witness(sigma, const, not_loop)


def test_canonical_coordinates_never_mention_x0():
    # eliminating X0 and substituting it back is the identity operation
    field = QQ
    lvl = 2
    ring = simplex_ring(field, lvl)
    x1, x2 = ring.gens()
    x0 = ring.one - x1 - x2
    f = x0 * x1 + x2 ** 2
    assert set(f.ring.variables) == {"X1", "X2"}
