"""Elementary factorization and the path <-> word translation."""

import random
from fractions import Fraction

import pytest

from chevloops import (GF, GroupMatrix, PathMatrix, Poly, PolyRing, QQ,
                       elem, factor_elementary, in_k2, multiply_factors,
                       path_ring, path_to_steinberg, poly_divmod,
                       SteinbergWord, symbol_word, word_to_path, c_loop,
                       x_loop)
from chevloops.chevalley import h_letter_seq


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


# ---------------------------------------------------------------------------
# differential test: factor_elementary against the full-row-operation form
# ---------------------------------------------------------------------------

def _reference_factor(mat):
    """The elimination with every row operation run on every entry, then
    one closing pass that negates the recorded coefficients.  Returns the
    factor list and the number of three-transvection swaps."""
    ring = mat.ring
    if isinstance(ring, PolyRing):
        deg, divmod_fn = (lambda x: x.degree()), poly_divmod
    else:
        def deg(x):
            return 0 if x else -1

        def divmod_fn(a, b):
            return a * ring.invert(b), ring.zero
    n, one = mat.n, ring.one
    rows = [list(r) for r in mat.rows]
    ops, swaps = [], 0

    def row_op(i, j, c):
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        ops.append(((i + 1, j + 1), c))

    for k in range(n):
        while True:
            live = sorted((deg(rows[r][k]), r) for r in range(k, n)
                          if rows[r][k])
            if len(live) <= 1:
                break
            piv = live[0][1]
            for _, r in live[1:]:
                row_op(r, piv, -divmod_fn(rows[r][k], rows[piv][k])[0])
        r = next(r for r in range(k, n) if rows[r][k])
        if r != k:
            swaps += 1
            row_op(k, r, one)
            row_op(r, k, -one)
            row_op(k, r, one)
    for j in range(1, n):
        d_inv = ring.invert(rows[j][j])
        for i in range(j):
            if rows[i][j]:
                row_op(i, j, -(rows[i][j] * d_inv))
    poly = isinstance(ring, PolyRing)
    base = ring.base if poly else ring
    running, h_factors = base.one, []
    for i in range(n - 1):
        d = rows[i][i]
        running = running * (base(d.constant_value()) if poly else d)
        if running != base.one:
            h_factors += [(root, ring(p)) for root, p in
                          h_letter_seq((i + 1, i + 2), running, base)]
    return [(root, -c) for root, c in ops] + h_factors, swaps


DIFF_FIELDS = {"Q": QQ, "F7": GF(7), "F9": GF(9)}


def _draw_scalar(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if field.e == 1:
        return field(rng.randrange(field.p))
    return field(tuple(rng.randrange(field.p) for _ in range(field.e)))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("over", ["field", "k[T]"])
@pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
def test_factorization_matches_the_full_row_operation_reference(
        name, over, n):
    field = DIFF_FIELDS[name]
    ring = field if over == "field" else path_ring(field)
    rng = random.Random(f"factor-diff-{name}-{over}-{n}")
    roots = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if i != j]
    upper = [(i, j) for i, j in roots if i < j]
    swaps = 0
    for draw in range(25):
        pool, letters = roots, []
        if draw % 3 == 0:
            # w_(1,j)(u) then upper letters: column 1 is nonzero only in
            # row j, so phase 1 must swap
            u = ring(_draw_scalar(rng, field) or field.one)
            j = rng.randint(2, n)
            pool = upper
            letters = [((1, j), u), ((j, 1), -ring.invert(u)), ((1, j), u)]
        for _ in range(rng.randint(1, 12)):
            if ring is field:
                param = _draw_scalar(rng, field)
            else:
                param = Poly(ring, {(e,): _draw_scalar(rng, field)
                                    for e in range(rng.randint(0, 3) + 1)})
            letters.append((rng.choice(pool), param))
        m = multiply_factors(ring, n, letters)
        expected, swapped = _reference_factor(m)
        swaps += swapped
        out = factor_elementary(m)
        assert [root for root, _ in out] == [root for root, _ in expected]
        assert [p for _, p in out] == [p for _, p in expected]
        assert multiply_factors(ring, n, out) == m
    assert swaps > 0
