"""Elementary factorization over fields and k[T], and the path <-> word
translation built on it.

Factorization runs Gauss-style elimination by unimodular row operations
only (each one an elementary factor).  Over k[T] the pivot in the active
column is the nonzero entry of minimal degree, ties broken by lowest row
index, so every reduction pass strictly decreases degrees and the
elimination terminates; over a field the same code runs with everything
at degree zero.  A row operation r_i -= f r_j is recorded as the factor
x_(i,j)(f) it removes, and writes the entry it is known to leave (the
Euclidean remainder below the diagonal, zero above it) instead of
computing it.  The terminal diagonal diag(d1, ..., dn) has constant
entries with product 1 and is expanded through the six-letter identity
h(u) = w(u) w(1)^{-1}, keeping every emitted factor an honest x_(i,j)(f).
"""

from __future__ import annotations

from .chevalley import _fused_addmul, h_letter_seq, product_of_elementaries
from .loops import PathMatrix, _scaled_path
from .rings import FiniteField, PolyRing, QQ, poly_divmod
from .steinberg import SteinbergWord


def _ring_tools(ring):
    if ring is QQ or isinstance(ring, FiniteField):
        def deg(x):
            return 0 if x else -1

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
    addmul = _fused_addmul(ring)
    n = mat.n
    one = ring.one
    rows = [list(r) for r in mat.rows]
    ops: list = []   # factors x_(i,j)(param) as ((i, j), param), 1-based

    def row_op(i: int, j: int, param, k: int, known=None):
        # r_i -= param * r_j, where r_j is zero before column k; column k
        # takes the entry ``known`` when the caller has it already
        row, src, c = rows[i], rows[j], -param
        if known is not None:
            row[k], k = known, k + 1
        for col in range(k, n):
            b = src[col]
            if b:
                row[col] = addmul(row[col], c, b) if addmul \
                    else row[col] + c * b
        ops.append(((i + 1, j + 1), param))

    # phase 1: clear below the diagonal, column by column, by Euclidean
    # reduction among rows k..n-1; each reduced entry is its remainder
    for k in range(n):
        while True:
            live = [(deg(rows[r][k]), r) for r in range(k, n)
                    if rows[r][k]]
            if len(live) <= 1:
                break
            live.sort()
            _, piv = live[0]
            for _, r in live[1:]:
                q, rem = divmod_fn(rows[r][k], rows[piv][k])
                row_op(r, piv, q, k, rem)
        if not any(rows[r][k] for r in range(k, n)):
            raise ValueError("matrix is singular; determinant cannot be 1")
        r = next(r for r in range(k, n) if rows[r][k])
        if r != k:
            # swap rows k and r with three transvections (det stays 1):
            # (a, b) -> (a+b, b) -> (a+b, -a) -> (b, -a)
            row_op(k, r, -one, k)
            row_op(r, k, one, k)
            row_op(k, r, -one, k)

    # phase 2: the matrix is upper triangular and its diagonal entries are
    # units (their product is the determinant, 1); clear above the diagonal
    for j in range(1, n):
        d_inv = ring.invert(rows[j][j])
        for i in range(j):
            c = rows[i][j]
            if c:
                row_op(i, j, c * d_inv, j, ring.zero)

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

    # row ops turned M into D; ops holds their inverses, so M = ops * D
    return ops + h_factors


def multiply_factors(ring, n: int, factors):
    """Re-multiply a factor list; the soundness check for factorizations."""
    return product_of_elementaries(ring, n, factors)


def word_to_path(w: SteinbergWord) -> PathMatrix:
    """Scale each letter x~_a(u) to x_a(T u) and multiply out.

    The result evaluates to the identity at T = 0 and to the word's
    projection at T = 1; kernel words therefore give loops.
    """
    return _scaled_path(w.letters, w.n, w.ring)


def path_to_steinberg(y: PathMatrix) -> SteinbergWord:
    """Factor a based path into elementaries and read the word at T = 1.

    The projection of the result equals y(1); when y is a loop the word
    lands in the kernel of the projection.
    """
    if not y.at(0).is_identity():
        raise ValueError("not a based path: evaluation at T = 0 is not 1")
    at_one = {y.ring.variables[0]: y.base.one}
    letters = [(root, param.evaluate(at_one))
               for root, param in factor_elementary(y.matrix)]
    return SteinbergWord(y.base, y.n, letters)
