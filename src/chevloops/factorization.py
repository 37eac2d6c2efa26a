"""Elementary factorization over fields and k[T], and the path <-> word
translation built on it.

Factorization runs Gauss-style elimination by unimodular row operations
only (each one an elementary factor).  Over k[T] the pivot in the active
column is the nonzero entry of minimal degree, ties broken by lowest row
index, so every reduction pass strictly decreases degrees and the
elimination terminates; over a field the same code runs with everything
at degree zero.  The terminal diagonal diag(d1, ..., dn) has constant
entries with product 1 and is expanded through the six-letter identity
h(u) = w(u) w(1)^{-1}, keeping every emitted factor an honest x_(i,j)(f).
"""

from __future__ import annotations

from .chevalley import h_letter_seq, product_of_elementaries
from .loops import PathMatrix, path_ring
from .rings import FiniteField, Poly, PolyRing, QQ, poly_divmod
from .steinberg import SteinbergWord


def _ring_tools(ring):
    if ring is QQ or isinstance(ring, FiniteField):
        def deg(x):
            return -1 if x == ring.zero else 0

        def divmod_fn(a, b):
            return a * ring.invert(b), ring.zero
        return deg, divmod_fn
    if isinstance(ring, PolyRing) and ring.univariate and ring.base.is_field:
        def deg(x):
            return x.degree()
        return deg, poly_divmod
    raise ValueError(
        f"factorization is supported over fields and k[T], not {ring!r}")


def factor_elementary(m) -> list:
    """Factor a determinant-1 matrix into elementary factors.

    Returns a list of ``((i, j), param)`` pairs whose ordered product of
    x_(i,j)(param) equals the input exactly.  The factor count is not
    minimized.
    """
    mat = m.matrix if isinstance(m, PathMatrix) else m
    ring = mat.ring
    deg, divmod_fn = _ring_tools(ring)
    n = mat.n
    zero, one = ring.zero, ring.one
    rows = [list(r) for r in mat.rows]
    ops: list = []   # row r_i += c * r_j, recorded as ((i, j), c), 1-based

    def row_op(i: int, j: int, c):
        if c == zero:
            return
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        ops.append(((i + 1, j + 1), c))

    # phase 1: clear below the diagonal, column by column, by Euclidean
    # reduction among rows k..n-1
    for k in range(n):
        while True:
            live = [(deg(rows[r][k]), r) for r in range(k, n)
                    if rows[r][k] != zero]
            if len(live) <= 1:
                break
            live.sort()
            _, piv = live[0]
            for _, r in live[1:]:
                q, _rem = divmod_fn(rows[r][k], rows[piv][k])
                row_op(r, piv, -q)
        if not any(rows[r][k] != zero for r in range(k, n)):
            raise ValueError("matrix is singular; determinant cannot be 1")
        r = next(r for r in range(k, n) if rows[r][k] != zero)
        if r != k:
            # swap rows k and r with three transvections (det stays 1):
            # (a, b) -> (a+b, b) -> (a+b, -a) -> (b, -a)
            row_op(k, r, one)
            row_op(r, k, -one)
            row_op(k, r, one)

    # phase 2: the matrix is upper triangular and its diagonal entries are
    # units (their product is the determinant, 1); clear above the diagonal
    for j in range(1, n):
        d_inv = ring.invert(rows[j][j])
        for i in range(j):
            c = rows[i][j]
            if c != zero:
                row_op(i, j, -(c * d_inv))

    # phase 3: expand diag(d1, ..., dn) as a product of h's down the
    # superdiagonal, each h in its six-letter form
    h_factors: list = []
    if isinstance(ring, PolyRing):
        diag = [ring.base(x.constant_value()) for x in
                (rows[i][i] for i in range(n))]
        base = ring.base
    else:
        diag = [rows[i][i] for i in range(n)]
        base = ring
    running = base.one
    for i in range(n - 1):
        running = running * diag[i]
        if running != base.one:
            h_factors.extend(
                (root, ring(param)) for root, param in
                h_letter_seq((i + 1, i + 2), running, base))

    # ops turned M into D, so M = op_1^{-1} ... op_m^{-1} D
    return [(root, -c) for root, c in ops] + h_factors


def multiply_factors(ring, n: int, factors):
    """Re-multiply a factor list; the soundness check for factorizations."""
    return product_of_elementaries(ring, n, factors)


def word_to_path(w: SteinbergWord) -> PathMatrix:
    """Scale each letter x~_a(u) to x_a(T u) and multiply out.

    The result evaluates to the identity at T = 0 and to the word's
    projection at T = 1; kernel words therefore give loops.
    """
    ring = path_ring(w.ring)
    t = ring.gen("T")
    letters = [(root, t * ring(param)) for root, param in w.letters]
    return PathMatrix(product_of_elementaries(ring, w.n, letters))


def path_to_steinberg(y: PathMatrix) -> SteinbergWord:
    """Factor a based path into elementaries and read the word at T = 1.

    The projection of the result equals y(1); when y is a loop the word
    lands in the kernel of the projection.
    """
    if not y.at(0).is_identity():
        raise ValueError("not a based path: evaluation at T = 0 is not 1")
    factors = factor_elementary(y.matrix)
    var = y.ring.variables[0]
    one = y.base.one
    letters = [(root, param.evaluate({var: one})
                if isinstance(param, Poly) else param)
               for root, param in factors]
    return SteinbergWord(y.base, y.n, letters)
