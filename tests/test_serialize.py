"""Wire-format round trips for every document kind."""

import json
from fractions import Fraction

import pytest

from chevloops import (AbelianGroupPresentation, GF, GroupMatrix, Poly,
                       PolyRing, QQ, SimplexMatrix, SimplexPoly,
                       SparseIntMatrix, SteinbergWord, c_loop, elem, in_k2,
                       simplex_ring, smith_normal_form, symbol_word)
from chevloops import serialize as ser


def test_ring_descriptors_roundtrip():
    # every descriptor kind parses to the one object of its ring
    for ring in (QQ, GF(7), GF(9), PolyRing(QQ, ("T",)),
                 PolyRing(GF(7), ("X1", "X2")), PolyRing(GF(9), ("T",))):
        assert ser.parse_ring(ring.descriptor()) is ring
    assert ser.parse_ring("Fq:7") is GF(7)
    assert ser.parse_ring("poly:Fq:7:X1,X2") is simplex_ring(GF(7), 2)


def test_products_of_matrices_from_separate_documents_stay_fused(
        monkeypatch):
    # two documents over one ring load into one ring object, so their
    # product runs Poly.addmul on every entry and never falls back to
    # a + x * f
    for field in (QQ, GF(7)):
        doc = ser.matrix_to_json(c_loop((1, 2), 2, 3, 3, field).matrix)
        a, b = (ser.matrix_from_json(json.loads(json.dumps(doc)))
                for _ in range(2))
        assert a.ring is b.ring
        calls = []
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            def counted(x, y, name=name, fn=getattr(Poly, name)):
                calls.append(name)
                return fn(x, y)
            monkeypatch.setattr(Poly, name, counted)
        product = a * b
        monkeypatch.undo()
        assert calls == []
        assert product.rows == (a * b).rows


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
    # a read is built only once its command has priced it
    read = ser.read_matrix(doc)
    with pytest.raises(ValueError, match="check_document_cost"):
        read.build()
    ser.check_document_cost([read], factor=1)
    assert read.build() == m


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



@pytest.mark.parametrize("call, message", [
    (lambda: ser.parse_ring("Fq:x"), "bad finite-field descriptor 'Fq:x'"),
    (lambda: ser.parse_ring("poly:Q:,"),
     "no variables in descriptor 'poly:Q:,'"),
    (lambda: ser.scalar_to_json(None, 1), "cannot serialize over None"),
    (lambda: ser.scalar_from_json(None, 1), "cannot deserialize over None"),
    (lambda: ser.scalar_from_json(QQ, True), "bad rational encoding True"),
], ids=["finite-field", "no-variables", "serialize", "deserialize",
        "rational-bool"])
def test_serializer_refusals_name_the_problem(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class _Raises:
    def __init__(self, exc, message):
        self.exc, self.message = exc, message


def _value_semantics():
    q_t = PolyRing(QQ, ("T",))
    t = q_t.gen("T")
    f7_xy = PolyRing(GF(7), ("X", "Y"))
    x, y = f7_xy.gens()
    m = elem((1, 2), Fraction(1, 2), 2, QQ)
    path = c_loop((1, 2), 2, 3, 2, QQ)
    sp = SimplexPoly(QQ, 2, 3 * simplex_ring(QQ, 2).gen("X1") + 1)
    sm = SimplexMatrix(GF(7), 1, GroupMatrix.identity(simplex_ring(GF(7), 1),
                                                      2))
    w = SteinbergWord(QQ, 3, [((1, 2), Fraction(1, 2)), ((2, 3), -1)])
    relations = SparseIntMatrix(1, 2, [(0, 0, 2)])
    group = AbelianGroupPresentation(["a", "b"], relations,
                                     smith_normal_form(relations))
    a = GF(7)(3)

    def times(op):
        return _Raises(TypeError, f"unsupported operand type(s) for {op}: "
                                  f"'FqElement' and 'str'")
    return {
        "str-GroupMatrix": (lambda: str(m), "[1, 1/2]\n[0, 1]"),
        "repr-GroupMatrix": (lambda: repr(m), "GroupMatrix(2x2 over Q)"),
        "repr-PathMatrix": (lambda: repr(path), "PathMatrix(2x2 over Q[T])"),
        "repr-SimplexPoly": (lambda: repr(sp),
                             "SimplexPoly(level=2, 3*X1 + 1)"),
        "repr-SimplexMatrix": (
            lambda: repr(sm),
            "SimplexMatrix(level=1, GroupMatrix(2x2 over GF(7)[X1]))"),
        "str-SteinbergWord": (lambda: str(w), "x[1,2](1/2) * x[2,3](-1)"),
        "str-empty-SteinbergWord": (
            lambda: str(SteinbergWord.identity(QQ, 3)), "1"),
        "repr-SteinbergWord": (
            lambda: repr(w), "SteinbergWord(x[1,2](1/2) * x[2,3](-1))"),
        "repr-AbelianGroupPresentation": (
            lambda: repr(group), "AbelianGroupPresentation(Z^1 x Z/2)"),
        "repr-FqElement": (lambda: repr(GF(9).gen()), "GF(9)([0, 1])"),
        "repr-Poly": (lambda: repr(3 * x ** 2 + x * y),
                      "Poly(3*X^2 + X*Y)"),
        "eq-object": (lambda: [v == object() for v in (
            a, t, m, path, sp, sm, w)], [False] * 7),
        "GroupMatrix-times-int": (lambda: m * 3, _Raises(
            TypeError, "unsupported operand type(s) for *: 'GroupMatrix' "
                       "and 'int'")),
        "PathMatrix-times-int": (lambda: path * 3, _Raises(
            TypeError, "unsupported operand type(s) for *: 'PathMatrix' "
                       "and 'int'")),
        "FqElement-plus-str": (lambda: a + "1", times("+")),
        "FqElement-minus-str": (lambda: a - "1", times("-")),
        "FqElement-over-str": (lambda: a / "1", times("/")),
        "FqElement-to-a-str": (lambda: a ** "1", _Raises(
            TypeError, "unsupported operand type(s) for ** or pow(): "
                       "'FqElement' and 'str'")),
        "hash-term-dict-Poly": (
            lambda: hash(Poly(f7_xy, {(1, 1): 1, (2, 0): 3}))
            == hash(3 * x ** 2 + x * y), True),
        "hash-PathMatrix": (
            lambda: hash(path) == hash(c_loop((1, 2), 2, 3, 2, QQ)), True),
        "hash-SteinbergWord": (
            lambda: hash(w) == hash(SteinbergWord(QQ, 3, [
                ((1, 2), Fraction(1, 2)), ((2, 3), 1, -1)])), True),
        "hash-SimplexPoly": (
            lambda: hash(sp) == hash(ser.simplex_poly_from_json(
                ser.simplex_poly_to_json(sp))), True),
        "FqElement-plus-int": (lambda: a + 4, GF(7)(0)),
        "FqElement-eq-int": (lambda: (a == 3, a == 4), (True, False)),
        "Poly-eq-scalar": (lambda: (3 * q_t.one == 3, t == 3),
                           (True, False)),
        "symbol-word-over-Q[T]": (
            lambda: in_k2(symbol_word((1, 2), 2, 3, 3, q_t)), True),
        "symbol-word-of-T": (lambda: symbol_word((1, 2), t, 3, 3, q_t),
                             _Raises(ZeroDivisionError,
                                     "symbol words need invertible u and v")),
    }


@pytest.mark.parametrize("case", sorted(_value_semantics()))
def test_value_classes_print_compare_and_hash(case):
    call, expected = _value_semantics()[case]
    if isinstance(expected, _Raises):
        with pytest.raises(expected.exc) as err:
            call()
        assert str(err.value) == expected.message
    else:
        assert call() == expected
