"""Wire-format round trips for every document kind."""

import json
from fractions import Fraction

import pytest

from chevloops import (GF, PolyRing, QQ, SimplexPoly, SteinbergWord, c_loop,
                       elem, simplex_ring, symbol_word)
from chevloops import serialize as ser


def test_ring_descriptors_roundtrip():
    for ring in (QQ, GF(7), GF(9), PolyRing(QQ, ("T",)),
                 PolyRing(GF(7), ("X1", "X2"))):
        assert ser.parse_ring(ser.format_ring(ring)) == ring or \
            ser.parse_ring(ser.format_ring(ring)) is ring


def test_ring_descriptor_errors():
    with pytest.raises(ValueError):
        ser.parse_ring("R")
    with pytest.raises(ValueError):
        ser.parse_ring("Fq:4^1")       # 4 is not prime
    with pytest.raises(ValueError):
        ser.parse_ring("poly:Q")       # no variables
    with pytest.raises(ValueError):
        ser.parse_ring(17)


def test_scalar_roundtrip_rational():
    x = Fraction(-22, 7)
    doc = ser.scalar_to_json(QQ, x)
    assert doc == "-22/7"
    assert ser.scalar_from_json(QQ, doc) == x


def test_scalar_roundtrip_fq():
    f9 = GF(9)
    x = f9([2, 1])
    doc = ser.scalar_to_json(f9, x)
    assert doc == [2, 1]
    assert ser.scalar_from_json(f9, doc) == x


def test_scalar_roundtrip_poly_deterministic_order():
    ring = PolyRing(QQ, ("T",))
    t = ring.gen("T")
    p = 3 * t ** 2 - t + Fraction(1, 2)
    doc = ser.scalar_to_json(ring, p)
    assert doc == [[[2], "3"], [[1], "-1"], [[0], "1/2"]]
    assert ser.scalar_from_json(ring, doc) == p


def test_matrix_roundtrip_and_det_check_on_load():
    m = elem((1, 2), Fraction(5), 3, QQ) * elem((3, 1), Fraction(2), 3, QQ)
    doc = ser.matrix_to_json(m)
    assert doc["schema"] == ser.SCHEMA_MATRIX
    assert ser.matrix_from_json(json.loads(json.dumps(doc))) == m
    bad = dict(doc)
    bad["entries"] = [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]]
    with pytest.raises(ValueError):
        ser.matrix_from_json(bad)


def test_path_roundtrip():
    p = c_loop((1, 2), Fraction(2), Fraction(3), 2, QQ)
    doc = ser.path_to_json(p)
    assert doc["schema"] == ser.SCHEMA_PATH
    assert ser.path_from_json(doc) == p


def test_word_roundtrip_and_sign_folding():
    w = symbol_word((1, 2), Fraction(2), Fraction(3), 3, QQ)
    doc = ser.word_to_json(w)
    assert all(letter[3] == 1 for letter in doc["letters"])
    assert ser.word_from_json(doc) == w
    # a -1 sign on input negates the parameter
    single = {"schema": ser.SCHEMA_WORD, "n": 3, "ring": "Q",
              "letters": [[1, 2, "5", -1]]}
    assert ser.word_from_json(single) == SteinbergWord(
        QQ, 3, [((1, 2), Fraction(-5))])


def test_word_roundtrip_over_finite_field():
    f9 = GF(9)
    w = symbol_word((1, 2), f9.gen(), f9([2, 1]), 3, f9)
    doc = ser.word_to_json(w)
    assert ser.word_from_json(json.loads(json.dumps(doc))) == w


def test_simplex_poly_roundtrip():
    ring = simplex_ring(GF(7), 2)
    sp = SimplexPoly(GF(7), 2, ring.gen("X1") * ring.gen("X2") + 3)
    doc = ser.simplex_poly_to_json(sp)
    assert doc["schema"] == ser.SCHEMA_SIMPLEX_POLY
    assert ser.simplex_poly_from_json(doc) == sp


def test_simplex_matrix_roundtrip():
    from chevloops import SimplexMatrix
    ring = simplex_ring(QQ, 2)
    sm = SimplexMatrix(QQ, 2, elem((1, 2), ring.gen("X1"), 2, ring))
    doc = ser.simplex_matrix_to_json(sm)
    assert ser.simplex_matrix_from_json(doc) == sm

