"""Differential tests: ``Poly.substitute`` under a ``RingMap`` against the
definitional sum.

The reference substitutes by ring arithmetic alone: the sum over terms of
c * prod(value_v ** k_v), computed with ``Poly`` +, * and ** in the
target.  Sources have 0-4 variables; mapping values mix coefficient-one
monomials (exponent shifts on the fast path), scaled monomials,
constants, zero and general polynomials; targets have several variables,
one variable (dense) or none.  The simplicial face and degeneracy maps
are checked with a warm per-map memo against a cold one, over Q, F_7
and F_9; the one-variable maps between dense forms (T <-> X1 and
X1 -> a + b*X1) get their own check over the same fields.  Edge cases of
the prepared map: coefficients equal to one but held as distinct objects,
monomials that cancel in the target, dense Q sources over a shared
denominator whose image is zero or mixes image denominators, dense F_7
sources whose stored sums pass p, a map applied outside its source, and a
memo reused past its bound.
"""

from fractions import Fraction

import pytest

from chevloops import (GF, FqElement, Poly, PolyRing, QQ, RingMap,
                       SimplexPoly, degeneracy, face, simplex_ring)
from chevloops import simplicial
from chevloops.rings import SUBSTITUTE_MEMO_LIMIT

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

FIELDS = {
    "Q": (QQ, st.fractions(min_value=-9, max_value=9, max_denominator=6)),
    "F7": (GF(7), st.integers(0, 6).map(GF(7))),
    "F9": (GF(9), st.tuples(st.integers(0, 2), st.integers(0, 2)).map(GF(9))),
}
TARGETS = [("X", "Y", "Z"), ("T",), ()]
VALUE_KINDS = ["monomial", "scaled", "constant", "zero", "general"]
CHECK = settings(max_examples=60, deadline=None, derandomize=True,
                 database=None)


def _reference(f, mapping, target):
    vals = [target(mapping[v]) for v in f.ring.variables]
    acc = target.zero
    for e, c in f.terms.items():
        term = target(c)
        for val, k in zip(vals, e):
            term = term * val ** k
        acc = acc + term
    return acc


def _cold(phi):
    """A fresh RingMap with the same values as ``phi`` and an empty memo,
    and the mapping it was built from."""
    mapping = dict(zip(phi.source.variables, phi.values))
    return RingMap(phi.source, phi.target, mapping), mapping


def _exponents(ring, top):
    return st.tuples(*[st.integers(0, top) for _ in ring.variables])


def _poly(data, ring, scalars, top, max_terms):
    terms = data.draw(st.dictionaries(_exponents(ring, top), scalars,
                                      max_size=max_terms))
    return Poly(ring, terms)


def _value(data, kind, target, scalars):
    if kind == "zero":
        return target.zero
    if kind == "constant":
        return target(data.draw(scalars))
    if kind == "general":
        return _poly(data, target, scalars, 2, 4)
    mono = Poly(target, {data.draw(_exponents(target, 2)): 1})
    if kind == "monomial":
        return mono
    return mono * data.draw(scalars)


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("tvars", TARGETS, ids=["multi", "dense", "const"])
def test_substitute_matches_the_definitional_sum(name, tvars):
    field, scalars = FIELDS[name]
    target = PolyRing(field, tvars)

    @CHECK
    @given(st.data(), st.integers(0, 4))
    def check(data, nsrc):
        src = PolyRing(field, tuple(f"S{k}" for k in range(nsrc)))
        mapping = {v: _value(data, data.draw(st.sampled_from(VALUE_KINDS)),
                             target, scalars)
                   for v in src.variables}
        f = _poly(data, src, scalars, 3, 6)
        g = _poly(data, src, scalars, 3, 6)
        want_f = _reference(f, mapping, target)
        assert f.substitute(RingMap(src, target, mapping)) == want_f
        # one memo serves every polynomial under the same map
        phi = RingMap(src, target, mapping)
        assert f.substitute(phi) == want_f
        assert g.substitute(phi) == _reference(g, mapping, target)
        assert f.substitute(phi) == want_f
        assert len(phi.memo) <= SUBSTITUTE_MEMO_LIMIT
    check()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_faces_and_degeneracies_agree_with_a_cold_memo(name):
    field, scalars = FIELDS[name]

    @CHECK
    @given(st.data(), st.integers(0, 4))
    def check(data, level):
        ring = simplex_ring(field, level)
        sp = SimplexPoly(field, level, _poly(data, ring, scalars, 3, 5))
        maps = [(i, degeneracy, "s") for i in range(level + 1)]
        if level:
            maps += [(i, face, "d") for i in range(level + 1)]
        for i, op, kind in maps:
            phi = simplicial._structure_map(field, level, i, kind)
            fresh, mapping = _cold(phi)
            cold = sp.poly.substitute(fresh)
            assert cold == _reference(sp.poly, mapping, phi.target)
            first = op(i, sp)
            assert first.poly == cold
            assert op(i, sp).poly == cold         # warm memo
            assert len(phi.memo) <= SUBSTITUTE_MEMO_LIMIT
    check()


def test_memos_are_separate_per_field(monkeypatch):
    monkeypatch.setattr(simplicial, "_MAPPING_CACHE", {})
    q_ring, f_ring = simplex_ring(QQ, 2), simplex_ring(GF(7), 2)
    q_sp = SimplexPoly(QQ, 2, q_ring.gen("X1") ** 2 * 8)
    f_sp = SimplexPoly(GF(7), 2, f_ring.gen("X1") ** 2 * 8)
    q_out, f_out = face(0, q_sp), face(0, f_sp)
    # (1 - X1)^2 * 8 over Q, and the same reduced mod 7
    y = simplex_ring(QQ, 1).gen("X1")
    assert q_out.poly == (1 - y) ** 2 * 8
    assert f_out.poly == (1 - simplex_ring(GF(7), 1).gen("X1")) ** 2
    q_memo = simplicial._structure_map(QQ, 2, 0, "d").memo
    f_memo = simplicial._structure_map(GF(7), 2, 0, "d").memo
    assert q_memo is not f_memo
    assert q_memo and f_memo
    assert all(img.ring.base is QQ for img in q_memo.values())
    assert all(img.ring.base is GF(7) for img in f_memo.values())
    # over a term-dict target the images are (exponents, coefficient) pairs
    # with coefficient None for one: X1^2 -> (1 - X1 - X2)^2
    for field, kind in ((QQ, Fraction), (GF(7), FqElement)):
        x = simplex_ring(field, 3).gen("X1")
        face(0, SimplexPoly(field, 3, x ** 2 * 8))
        memo = simplicial._structure_map(field, 3, 0, "d").memo
        cs = [tc for img in memo.values() for _, tc in img]
        assert None in cs
        cs = [tc for tc in cs if tc is not None]
        assert cs and all(type(tc) is kind for tc in cs)
        assert all(tc.field is field for tc in cs if kind is FqElement)


def test_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(simplicial, "_MAPPING_CACHE", {})
    ring = simplex_ring(QQ, 2)
    top = 1
    while (top + 1) * (top + 2) // 2 <= SUBSTITUTE_MEMO_LIMIT:
        top += 1
    # every monomial of degree <= top: more of them than the bound
    terms = {(a, b): a + 2 * b + 1 for a in range(top + 1)
             for b in range(top + 1 - a)}
    sp = SimplexPoly(QQ, 2, Poly(ring, terms))
    assert len(sp.poly.terms) > SUBSTITUTE_MEMO_LIMIT
    phi = simplicial._structure_map(QQ, 2, 1, "s")
    cold = sp.poly.substitute(_cold(phi)[0])
    for _ in range(2):
        assert degeneracy(1, sp).poly == cold
        assert 0 < len(phi.memo) <= SUBSTITUTE_MEMO_LIMIT
    private = _cold(phi)[0]
    assert sp.poly.substitute(private) == cold
    assert len(private.memo) <= SUBSTITUTE_MEMO_LIMIT


# one as a distinct object: a reduced Fraction, 8 in F_7, a fresh F_9 one
DISTINCT_ONES = [(QQ, Fraction(3, 3)), (GF(7), GF(7)(8)),
                 (GF(9), FqElement(GF(9), (1, 0)))]


@pytest.mark.parametrize("tvars", TARGETS, ids=["multi", "dense", "const"])
@pytest.mark.parametrize("field, one", DISTINCT_ONES,
                         ids=[str(f) for f, _ in DISTINCT_ONES])
def test_distinct_ones_match_the_definitional_sum(field, one, tvars):
    assert one == field.one and one is not field.one
    src = PolyRing(field, ("A", "B", "C"))
    target = PolyRing(field, tvars)
    gens = target.gens() or (target.one,)
    x, y = gens[0], gens[-1]
    mapping = {"A": Poly(target, {e: one for e in (x * x).terms}),
               "B": x * one + y * one + one,
               "C": Poly(target, {e: one for e in y.terms}) * 2}
    f = Poly(src, {(2, 0, 0): one, (1, 1, 0): 3, (0, 2, 1): one,
                   (0, 0, 0): one})
    phi = RingMap(src, target, mapping)
    want = _reference(f, mapping, target)
    assert f.substitute(phi) == want
    assert f.substitute(phi) == want          # warm memo
    if target._kind is None:
        base_one = field.one
        assert all(tc is None or tc != base_one
                   for img in phi.memo.values() for _, tc in img)


@pytest.mark.parametrize("tvars", TARGETS, ids=["multi", "dense", "const"])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_monomials_that_cancel_in_the_target_are_dropped(name, tvars):
    field = FIELDS[name][0]
    src = PolyRing(field, ("A", "B"))
    target = PolyRing(field, tvars)
    x = (target.gens() or (target(2),))[0]
    a, b = src.gens()
    phi = RingMap(src, target, {"A": x, "B": x})
    assert (a - b).substitute(phi).terms == {}
    # A^2 - B^2 + 3A -> 3x: the two squares meet on one monomial and cancel
    assert (a ** 2 - b ** 2 + 3 * a).substitute(phi).terms == (x * 3).terms
    phi = RingMap(src, target, {"A": x, "B": -x})
    assert (a + b).substitute(phi).is_zero()


# one-variable maps between dense forms: (source, target, value of the
# source variable given the target generator x and scalars a, b)
DENSE_MAPS = {
    "T->X1": ("T", "X1", lambda x, a, b: x),
    "X1->T": ("X1", "T", lambda x, a, b: x),
    "X1->a+bX1": ("X1", "X1", lambda x, a, b: a + b * x),
}


@pytest.mark.parametrize("shape", sorted(DENSE_MAPS))
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_dense_to_dense_maps_match_the_definitional_sum(name, shape):
    field, scalars = FIELDS[name]
    sv, tv, value = DENSE_MAPS[shape]
    src, target = PolyRing(field, (sv,)), PolyRing(field, (tv,))
    x = target.gen(tv)

    @CHECK
    @given(st.data())
    def check(data):
        mapping = {sv: value(x, data.draw(scalars), data.draw(scalars))}
        f = _poly(data, src, scalars, 6, 7)
        phi = RingMap(src, target, mapping)
        want = _reference(f, mapping, target)
        assert f.substitute(phi) == want
        assert f.substitute(phi) == want          # warm memo
        if sv != tv:
            back = RingMap(target, src, {tv: src.gen(sv)})
            assert want.substitute(back) == f
    check()


@pytest.mark.parametrize("tvars", TARGETS, ids=["multi", "dense", "const"])
def test_dense_q_sources_over_a_denominator(tvars):
    src, target = PolyRing(QQ, ("A",)), PolyRing(QQ, tvars)
    a = src.gen("A")
    # (2A - 1)(A + 3)/6 = A^2/3 + 5A/6 - 1/2, numerators over 6
    f = (2 * a - 1) * (a + 3) * Fraction(1, 6)
    assert (f._c, f._d) == ((-3, 5, 2), 6)
    image = f.substitute(RingMap(src, target, {"A": Fraction(1, 2)}))
    assert image.is_zero() and image.terms == {}
    assert image == target.zero and image._c == target.zero._c
    # images over 1, 3 or 6 and 9 or 36 meet the source's 6
    x = (target.gens() or (target.one,))[0]
    mapping = {"A": x * Fraction(1, 3) + Fraction(1, 2)}
    image = f.substitute(RingMap(src, target, mapping))
    assert image == _reference(f, mapping, target)
    assert not image.is_zero()


@pytest.mark.parametrize("tvars", TARGETS, ids=["multi", "dense", "const"])
def test_dense_f7_sums_past_p_are_reduced(tvars):
    src, target = PolyRing(GF(7), ("A",)), PolyRing(GF(7), tvars)
    f = Poly(src, {(0,): 3, (1,): 5, (2,): 6})
    # 3 + 5 + 6 = 14 at A = 1, and 3 + 10 + 24 = 37 = 2 at A = 2
    assert f.substitute(RingMap(src, target, {"A": 1})).terms == {}
    assert f.substitute(RingMap(src, target, {"A": 2})) == target(2)


def test_a_map_applies_only_to_its_source_ring():
    target = PolyRing(QQ, ("X", "Y"))
    phi = RingMap(PolyRing(QQ, ("A",)), target, {"A": target.gen("X")})
    for ring in (PolyRing(QQ, ("B",)), PolyRing(GF(7), ("A",)),
                 PolyRing(QQ, ("A", "B")), target):
        with pytest.raises(ValueError):
            ring.one.substitute(phi)
    # an equal ring built separately is the same source
    f = PolyRing(QQ, ("A",)).gen("A") * 5
    assert f.substitute(phi) == target.gen("X") * 5
    with pytest.raises(ValueError, match="coefficient field"):
        RingMap(PolyRing(GF(7), ("A",)), target, {"A": 1})
    with pytest.raises(ValueError, match="no value for variable A"):
        RingMap(PolyRing(QQ, ("A",)), target, {})


def test_a_reused_map_agrees_with_fresh_ones_across_memo_overflow():
    src = PolyRing(QQ, ("A", "B", "C"))
    target = PolyRing(QQ, ("X", "Y", "Z"))
    x, y, z = target.gens()
    mapping = {"A": x, "B": y * 3, "C": y + z}
    # 11^3 distinct monomials, more than one memo keeps, in slices of 60
    exps = [(a, b, c) for a in range(11) for b in range(11)
            for c in range(11)]
    assert len(exps) > SUBSTITUTE_MEMO_LIMIT
    phi = RingMap(src, target, mapping)
    sizes = []
    for k in range(0, len(exps), 60):
        f = Poly(src, {e: k + j + 1 for j, e in enumerate(exps[k:k + 60])})
        assert f.substitute(phi) == f.substitute(RingMap(src, target, mapping))
        sizes.append(len(phi.memo))
        assert sizes[-1] <= SUBSTITUTE_MEMO_LIMIT
    # the memo was cleared at its bound and refilled
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
    f = Poly(src, {e: 1 for e in exps[:60]})
    assert f.substitute(phi) == f.substitute(RingMap(src, target, mapping))
