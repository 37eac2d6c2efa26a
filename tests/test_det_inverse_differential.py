"""Differential tests: fraction-free det and inverse against the definition.

``GroupMatrix.det`` and ``GroupMatrix.inverse`` run one Bareiss
elimination over every ring.  The reference determinant is the Leibniz
sum over permutations, written out here with the rings' own arithmetic.
Matrices are random products of elementary letters, optionally with a
Weyl element w_(i,j)(u) in between so that elimination needs row swaps;
variants with one row scaled by 2 (det 2) and with a repeated row
(det 0) are built with ``_checked=True``.  The rings are Q, F_7, F_9,
k[T] over Q, F_7 and F_9, k[X1, X2] over Q and F_7, and the level-0 ring
k[].  The exact division inside the elimination is checked on its own
over k[T]: it recovers q from q*d and refuses a non-multiple.
"""

from fractions import Fraction
from itertools import permutations

import pytest

from chevloops import (GF, GroupMatrix, Poly, PolyRing, QQ,
                       product_of_elementaries, simplex_ring, w_elem)
from chevloops.chevalley import _exact_div
from chevloops.rings import poly_divmod

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

RINGS = {
    "Q": QQ,
    "F7": GF(7),
    "F9": GF(9),
    "Q[T]": PolyRing(QQ, ("T",)),
    "F7[T]": PolyRing(GF(7), ("T",)),
    "F9[T]": PolyRing(GF(9), ("T",)),
    "Q[X1,X2]": simplex_ring(QQ, 2),
    "F7[X1,X2]": simplex_ring(GF(7), 2),
    "Q[]": simplex_ring(QQ, 0),
}
CHECK = settings(max_examples=40, deadline=None, derandomize=True,
                 database=None)


@st.composite
def _scalars(draw, field, unit=False):
    while True:
        if field is QQ:
            x = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        else:
            x = field([draw(st.integers(0, field.p - 1))
                       for _ in range(field.e)])
        if x or not unit:
            return x


@st.composite
def _elements(draw, ring):
    if not isinstance(ring, PolyRing):
        return draw(_scalars(ring))
    nvars = len(ring.variables)
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * nvars), _scalars(ring.base),
        max_size=3))
    return Poly(ring, terms)


@st.composite
def _det_one(draw, ring, n):
    """x * [w_(i,j)(u)] * x' for random elementary products x, x'."""
    if n == 1:
        return GroupMatrix.identity(ring, 1)
    roots = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if i != j]

    def letters():
        return draw(st.lists(st.tuples(st.sampled_from(roots),
                                       _elements(ring)), max_size=6))

    m = product_of_elementaries(ring, n, letters())
    if draw(st.booleans()):
        base = ring.base if isinstance(ring, PolyRing) else ring
        u = draw(_scalars(base, unit=True))
        m = m * w_elem(draw(st.sampled_from(roots)), u, n, ring)
    return m * product_of_elementaries(ring, n, letters())


def _leibniz(rows, ring):
    n = len(rows)
    det = ring.zero
    for perm in permutations(range(n)):
        term = ring.one
        for i in range(n):
            term = term * rows[i][perm[i]]
        inversions = sum(perm[a] > perm[b]
                         for a in range(n) for b in range(a + 1, n))
        det = det - term if inversions % 2 else det + term
    return det


@pytest.mark.parametrize("name", sorted(RINGS))
def test_det_matches_leibniz_and_inverse_is_two_sided(name):
    ring = RINGS[name]

    @CHECK
    @given(st.data(), st.integers(1, 5))
    def check(data, n):
        m = data.draw(_det_one(ring, n))
        assert m.det() == _leibniz(m.rows, ring) == ring.one
        inv = m.inverse()
        assert (m * inv).is_identity()
        assert (inv * m).is_identity()
    check()


@pytest.mark.parametrize("name", sorted(RINGS))
def test_det_two_and_singular_match_leibniz(name):
    ring = RINGS[name]

    @CHECK
    @given(st.data(), st.integers(1, 5))
    def check(data, n):
        m = data.draw(_det_one(ring, n))
        r = data.draw(st.integers(0, n - 1))
        rows = [list(row) for row in m.rows]
        if data.draw(st.booleans()):
            rows[r] = [ring(2) * x for x in rows[r]]
            want = ring(2)
        else:
            rows[r] = rows[(r + 1) % n] if n > 1 else [ring.zero]
            want = ring.zero
        bad = GroupMatrix(ring, rows, _checked=True)
        assert bad.det() == _leibniz(bad.rows, ring) == want
        with pytest.raises(ValueError, match="determinant"):
            GroupMatrix(ring, rows)
        if want == -ring.one:
            # 2 = -1 in characteristic 3: an inverse still exists
            assert (bad * bad.inverse()).is_identity()
        else:
            with pytest.raises(ValueError, match="determinant"):
                bad.inverse()
    check()


@pytest.mark.parametrize("name", ["Q[T]", "F7[T]", "F9[T]"])
def test_exact_div_over_k_t(name):
    ring = RINGS[name]
    dense = st.lists(_scalars(ring.base), max_size=6).map(
        lambda cs: Poly(ring, {(k,): c for k, c in enumerate(cs)}))

    @CHECK
    @given(dense, dense, dense)
    def check(q, d, r):
        hypothesis.assume(d)
        assert _exact_div(ring, q * d, d) == q
        rem = poly_divmod(r, d)[1]
        if rem:
            with pytest.raises(ValueError, match="does not divide"):
                _exact_div(ring, q * d + rem, d)
    check()


def test_row_swaps_flip_the_sign():
    # w_(1,2)(1) = [[0, 1], [-1, 0]] needs one swap; the identity with its
    # first two rows swapped has determinant -1
    for ring in RINGS.values():
        w = w_elem((1, 2), 1, 3, ring)
        assert w.det() == ring.one
        assert w.inverse() == w_elem((1, 2), -1, 3, ring)
        swapped = GroupMatrix(ring, [w.rows[1], w.rows[0], w.rows[2]],
                              _checked=True)
        assert swapped.det() == _leibniz(swapped.rows, ring)
