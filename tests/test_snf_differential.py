"""Smith forms against the definitional one: d_k = D_k / D_(k-1), where
D_k is the gcd of the k x k minors.

``smith_normal_form`` splits off +-1 pivots first and sends only the
residual through ``_residual_diagonal``; ``_local_smith`` switches to
fully reduced pivots at the first non-unit remainder.  Both, and
``_residual_diagonal`` on the whole matrix, must give the reference
invariant factors.
"""

from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevloops import SparseIntMatrix, smith_normal_form
from chevloops.snf import (_divisibility_chain, _local_smith,
                           _residual_diagonal)


def _det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * v * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, v in enumerate(rows[0]) if v)


def _reference_factors(rows):
    """Nonzero invariant factors from the determinantal divisors."""
    n, m = len(rows), len(rows[0])
    factors, prev = [], 1
    for k in range(1, min(n, m) + 1):
        d = 0
        for ri in combinations(range(n), k):
            for ci in combinations(range(m), k):
                d = gcd(d, _det([[rows[i][j] for j in ci] for i in ri]))
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return factors


def _valuation(d, p):
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


def _columns(rows, order):
    return [{i: row[j] for i, row in enumerate(rows) if row[j]}
            for j in order]


def _matrix(rows, order):
    # entries column by column, so the columns first appear in ``order``
    return SparseIntMatrix(len(rows), len(rows[0]), [
        (i, j, v) for j, col in zip(order, _columns(rows, order))
        for i, v in col.items()])


ENTRIES = {
    "mixed": st.integers(-6, 6),
    "all_unit": st.sampled_from([-1, 1]),
    "no_unit": st.sampled_from([0, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6]),
}


@st.composite
def matrices(draw, entries):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    rows = [[draw(entries) for _ in range(m)] for _ in range(n)]
    return rows, draw(st.permutations(range(m)))


@st.composite
def switching_matrices(draw):
    """A column divisible by p between random ones: its remainder has no
    unit, so the later unit pivots run after the Gauss-Jordan switch."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 5))
    before = draw(st.integers(1, 3))
    after = draw(st.integers(1, 3))
    rand = [[draw(st.integers(-6, 6)) for _ in range(before + after)]
            for _ in range(n)]
    scaled = [p * draw(st.integers(-2, 2)) for _ in range(n)]
    rows = [r[:before] + [s] + r[before:] for r, s in zip(rand, scaled)]
    return p, rows


def _check_local(rows, order, p, k):
    ref = [_valuation(d, p) for d in _reference_factors(rows)]
    expected = (ref.count(0), sorted(v for v in ref if 0 < v < k))
    stop = min(len(rows), len(rows[0]))
    assert _local_smith(_columns(rows, order), p, k, stop) == expected


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_smith_normal_form_matches_minors(kind, data):
    rows, order = data.draw(matrices(ENTRIES[kind]))
    ref = _reference_factors(rows)
    res = smith_normal_form(_matrix(rows, order))
    assert res.invariant_factors == ref
    assert res.free_rank == len(rows[0]) - len(ref)


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_residual_elimination_alone_matches_minors(kind, data):
    rows, order = data.draw(matrices(ENTRIES[kind]))
    diag = _residual_diagonal(_columns(rows, order))
    assert _divisibility_chain(diag) == _reference_factors(rows)


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), k=st.integers(1, 3))
def test_local_smith_matches_minors(kind, data, p, k):
    rows, order = data.draw(matrices(ENTRIES[kind]))
    _check_local(rows, order, p, k)


@settings(max_examples=150, deadline=None)
@given(case=switching_matrices(), k=st.integers(2, 3))
def test_local_smith_after_the_switch_matches_minors(case, k):
    p, rows = case
    _check_local(rows, range(len(rows[0])), p, k)
    ref = _reference_factors(rows)
    assert smith_normal_form(_matrix(rows, range(len(rows[0])))) \
        .invariant_factors == ref


# Columns in elimination order.  In the first, pivot 0 (lead row 1) is
# nonzero on the lead of pivot 1 (row 0) until the switch at column 2
# back-substitutes it, and column 3 reads it.  In the second, pivot 1 is
# made after the switch on row 0, where pivot 0 (lead row 2) is nonzero
# until its lead is cleared, and column 3 reads pivot 0.
BACK_SUBSTITUTION = [[1, 1, 0, 0], [1, 0, 0, 1], [0, 0, 2, 0], [0, 0, 0, 2]]
LEAD_CLEARING = [[1, 0, 1, 0], [0, 2, 0, 4], [1, 0, 0, 1]]


@pytest.mark.parametrize("rows,factors", [
    (BACK_SUBSTITUTION, [1, 1, 2, 2]), (LEAD_CLEARING, [1, 1, 2])],
    ids=["back_substitution", "lead_clearing"])
def test_fully_reduced_pivots(rows, factors):
    order = range(len(rows[0]))
    assert _reference_factors(rows) == factors
    assert smith_normal_form(_matrix(rows, order)).invariant_factors == factors
    for k in (1, 2, 3):
        _check_local(rows, order, 2, k)
