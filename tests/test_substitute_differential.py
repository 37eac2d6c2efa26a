"""Differential tests: ``Poly.substitute`` against the definitional sum.

The reference substitutes by ring arithmetic alone: the sum over terms of
c * prod(value_v ** k_v), computed with ``Poly`` +, * and ** in the
target.  Sources have 0-4 variables; mapping values mix coefficient-one
monomials (exponent shifts on the fast path), scaled monomials,
constants, zero and general polynomials; targets have several variables,
one variable (dense) or none.  The simplicial face and degeneracy maps
are checked with a warm per-map memo against a cold one, over Q, F_7
and F_9.
"""

import pytest

from chevloops import (GF, Poly, PolyRing, QQ, SimplexPoly, degeneracy,
                       face, simplex_ring)
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
        assert f.substitute(mapping, target) == want_f
        # one memo serves every polynomial under the same mapping
        memo = {}
        assert f.substitute(mapping, target, memo) == want_f
        assert g.substitute(mapping, target, memo) == \
            _reference(g, mapping, target)
        assert f.substitute(mapping, target, memo) == want_f
        assert len(memo) <= SUBSTITUTE_MEMO_LIMIT
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
            mapping, target, memo = simplicial._structure_map(
                field, level, i, kind)
            cold = sp.poly.substitute(mapping, target)
            assert cold == _reference(sp.poly, mapping, target)
            first = op(i, sp)
            assert first.poly == cold
            assert op(i, sp).poly == cold         # warm memo
            assert len(memo) <= SUBSTITUTE_MEMO_LIMIT
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
    q_memo = simplicial._structure_map(QQ, 2, 0, "d")[2]
    f_memo = simplicial._structure_map(GF(7), 2, 0, "d")[2]
    assert q_memo is not f_memo
    assert q_memo and f_memo
    assert all(img.ring.base is QQ for img in q_memo.values())
    assert all(img.ring.base is GF(7) for img in f_memo.values())


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
    mapping, target, memo = simplicial._structure_map(QQ, 2, 1, "s")
    cold = sp.poly.substitute(mapping, target)
    for _ in range(2):
        assert degeneracy(1, sp).poly == cold
        assert 0 < len(memo) <= SUBSTITUTE_MEMO_LIMIT
    private = {}
    assert sp.poly.substitute(mapping, target, private) == cold
    assert len(private) <= SUBSTITUTE_MEMO_LIMIT
