"""SL_n over exact rings: determinant-1 matrices and root-group generators.

Roots of type A_{n-1} are pairs ``(i, j)`` of distinct 1-based indices;
the root group element ``x_(i,j)(a)`` is the identity with ``a`` in row i,
column j.  The Weyl and torus elements are built from the three- and
six-letter products

    w(u) = x_a(u) x_{-a}(-1/u) x_a(u),      h(u) = w(u) w(1)^{-1},

and those letter sequences are shared verbatim with the loop and
Steinberg-word layers.
"""

from __future__ import annotations

from math import lcm, prod

from .rings import QQ, Poly, PolyRing


def check_root(root, n: int):
    """Validate a type-A root (i, j), 1 <= i != j <= n."""
    try:
        i, j = root
    except (TypeError, ValueError):
        raise ValueError(f"root must be a pair of indices, got {root!r}")
    if not (i.__class__ is int and j.__class__ is int):
        raise ValueError(f"root indices must be integers, got {root!r}")
    if i == j:
        raise ValueError(f"root indices must differ, got {root!r}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"root {root!r} out of range for SL_{n}")
    return i, j


def negate_root(root):
    i, j = root
    return (j, i)


def _canonical_letters(letters) -> list:
    """Canonical form of validated ``((i, j), param)`` letters: zero
    letters are dropped and adjacent letters on the same root merged by
    x_a(u) x_a(v) = x_a(u + v); a merge that cancels exposes the letter
    below it to the next one."""
    stack: list = []
    for root, param in letters:
        if not param:
            continue
        if stack and stack[-1][0] == root:
            param = stack.pop()[1] + param
            if not param:
                continue
        stack.append((root, param))
    return stack


def _fused_addmul(ring):
    """``Poly.addmul`` (a + x * f in one pass) for the dense k[T] form, None
    where entries take plain ``a + x * f`` (fields and term-dict rings)."""
    if isinstance(ring, PolyRing) and ring._kind is not None:
        return Poly.addmul
    return None


def _leading_term(f: Poly):
    """(exponent vector, coefficient) of the largest term of a nonzero f:
    read off the dense tuple over k[T], lexicographic otherwise."""
    if f.ring.univariate:
        return (f.degree(),), f.leading_coefficient()
    terms = f.terms
    e = max(terms)
    return e, terms[e]


class _Integers:
    """Z, where ``det`` over Q eliminates; its divisions are exact."""
    zero, one = 0, 1


def _exact_div(ring, x, d):
    """x / d in ``ring`` when d divides x exactly."""
    if ring is _Integers:
        return x // d
    if ring.is_field or d.is_constant():
        return x * ring.invert(d)
    # leading-term division in the lexicographic order on exponent vectors
    lead, top = _leading_term(d)
    lead_inv = ring.base.invert(top)
    quotient = ring.zero
    while x:
        e, c = _leading_term(x)
        shift = tuple([a - b for a, b in zip(e, lead)])
        if min(shift) < 0:
            raise ValueError(f"{d} does not divide {x}")
        t = Poly(ring, {shift: c * lead_inv})
        quotient = quotient + t
        x = x - t * d
    return quotient


def _bareiss(rows, ring, clear_above: bool):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) in place.

    Row k is the pivot row of step k; every row below it, and every row
    above it too when ``clear_above`` (Gauss-Jordan), becomes
    (p_k * row - row[k] * pivot row) / p_{k-1} on the columns right of k,
    and every such division is exact.  Columns up to k are left stale.
    Returns (p_{n-1}, odd) with p_{n-1} = det(PA) for the row swaps P,
    odd when P is odd; p_{n-1} is zero when the matrix is singular.
    """
    n = len(rows)
    one = ring.one
    addmul = _fused_addmul(ring)
    prev, odd, divide = one, False, False
    for k in range(n):
        piv = k
        while not rows[piv][k]:
            piv += 1
            if piv == n:
                return ring.zero, odd
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            odd = not odd
        top = rows[k]
        p = top[k]
        scale = p != one
        for i in range(n) if clear_above else range(k + 1, n):
            if i == k:
                continue
            row = rows[i]
            c = row[k]
            if not c and not (scale or divide):
                continue
            neg_c = -c
            for j in range(k + 1, len(top)):
                x = row[j]
                if scale and x:
                    x = p * x
                if c and top[j]:
                    x = (addmul(x, neg_c, top[j]) if addmul
                         else x + neg_c * top[j])
                if divide and x:
                    x = _exact_div(ring, x, prev)
                row[j] = x
        prev, divide = p, scale
    return prev, odd


class GroupMatrix:
    """An n x n matrix with determinant exactly 1 over a declared ring.

    The size is part of the value; mixing sizes or rings in products is a
    construction error, never silent coercion.
    """

    __slots__ = ("ring", "n", "rows", "_hash")

    def __init__(self, ring, rows, _checked: bool = False):
        # internal callers (``_checked``) already hold elements of ``ring``;
        # rows of its polynomials need no coercion either, only the check
        n = len(rows)
        ent = tuple(map(tuple, rows))
        if not _checked and not all(x.__class__ is Poly and x.ring is ring
                                    for row in ent for x in row):
            ent = tuple(tuple(ring(x) for x in row) for row in ent)
        if any(len(row) != n for row in ent):
            raise ValueError("matrix must be square")
        self.ring = ring
        self.n = n
        self.rows = ent
        self._hash = None
        if not _checked and self.det() != ring.one:
            raise ValueError("determinant is not 1")

    @classmethod
    def identity(cls, ring, n: int) -> "GroupMatrix":
        one, zero = ring.one, ring.zero
        return cls(ring, [[one if i == j else zero for j in range(n)]
                          for i in range(n)], _checked=True)

    def det(self):
        rows, ring, den = [list(r) for r in self.rows], self.ring, 1
        if ring is QQ:
            # det(A) = det(DA) / det(D), D clearing each row's denominators
            dens = [lcm(*[x.denominator for x in row]) for row in rows]
            rows = [[x.numerator * (d // x.denominator) for x in row]
                    for d, row in zip(dens, rows)]
            ring, den = _Integers, prod(dens)
        pivot, odd = _bareiss(rows, ring, clear_above=False)
        pivot = -pivot if odd else pivot
        return QQ(pivot) / den if ring is _Integers else pivot

    def entry(self, i: int, j: int):
        """Entry at 1-based position (i, j)."""
        return self.rows[i - 1][j - 1]

    def __mul__(self, other):
        if not isinstance(other, GroupMatrix):
            return NotImplemented
        if other.ring != self.ring or other.n != self.n:
            raise ValueError("matrix product needs matching ring and size")
        n = self.n
        a, b = self.rows, other.rows
        zero = self.ring.zero
        addmul = _fused_addmul(self.ring)
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                s = zero
                for k in range(n):
                    aik = a[i][k]
                    if aik:
                        s = (addmul(s, aik, b[k][j]) if addmul
                             else s + aik * b[k][j])
                row.append(s)
            out.append(row)
        # products of determinant-1 matrices stay determinant 1 exactly
        return GroupMatrix(self.ring, out, _checked=True)

    def inverse(self) -> "GroupMatrix":
        # eliminating [A | I] leaves [d*I | d*A^{-1}] with d = det(PA) = +-1
        ring, n = self.ring, self.n
        one, zero = ring.one, ring.zero
        aug = [list(row) + [one if i == j else zero for j in range(n)]
               for i, row in enumerate(self.rows)]
        d, _ = _bareiss(aug, ring, clear_above=True)
        if d == one:
            rows = [row[n:] for row in aug]
        elif d == -one:
            rows = [[-x for x in row[n:]] for row in aug]
        else:
            raise ValueError("determinant is not 1")
        return GroupMatrix(ring, rows, _checked=True)

    def is_identity(self) -> bool:
        one, zero = self.ring.one, self.ring.zero
        return all(self.rows[i][j] == (one if i == j else zero)
                   for i in range(self.n) for j in range(self.n))

    def __eq__(self, other):
        if not isinstance(other, GroupMatrix):
            return NotImplemented
        return (self.ring == other.ring and self.n == other.n
                and self.rows == other.rows)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.rows))
        return self._hash

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)

    def __repr__(self):
        return f"GroupMatrix({self.n}x{self.n} over {self.ring!r})"


def elem(root, a, n: int, ring) -> GroupMatrix:
    """Root group element x_(i,j)(a): identity plus ``a`` at (i, j)."""
    i, j = check_root(root, n)
    a = ring(a)
    one, zero = ring.one, ring.zero
    rows = [[one if r == c else zero for c in range(n)] for r in range(n)]
    rows[i - 1][j - 1] = a
    return GroupMatrix(ring, rows, _checked=True)


def product_of_elementaries(ring, n: int, factors) -> GroupMatrix:
    """Multiply out x_{a_1}(u_1) x_{a_2}(u_2) ... with O(n) column updates.

    Every letter is validated and coerced into ``ring`` first; the letters
    are then put in the canonical form of Steinberg words (zero letters
    dropped, adjacent letters on one root merged), which leaves the product
    unchanged.  Each remaining letter x_(i,j)(f) adds f times column i to
    column j, one ``a + x * f`` per nonzero entry of column i.
    """
    one, zero = ring.one, ring.zero
    addmul = _fused_addmul(ring)
    rows = [[one if r == c else zero for c in range(n)] for r in range(n)]
    for (i, j), f in _canonical_letters(
            (check_root(root, n), ring(param)) for root, param in factors):
        i -= 1
        j -= 1
        for row in rows:
            x = row[i]
            if x:
                row[j] = addmul(row[j], x, f) if addmul else row[j] + x * f
    return GroupMatrix(ring, rows, _checked=True)


def invert_letters(letters):
    """Formal inverse of an elementary letter sequence."""
    return [(root, -param) for root, param in reversed(list(letters))]


def w_letter_seq(root, u, ring):
    """The three letters of w_a(u) = x_a(u) x_{-a}(-1/u) x_a(u)."""
    u = ring(u)
    u_inv = ring.invert(u)
    return [(root, u), (negate_root(root), -u_inv), (root, u)]


def h_letter_seq(root, u, ring):
    """The six letters of h_a(u) = w_a(u) w_a(1)^{-1}."""
    return w_letter_seq(root, u, ring) + invert_letters(
        w_letter_seq(root, ring.one, ring))


def c_letter_seq(root, a, b, ring):
    """The eighteen letters of h_a(a) h_a(b) h_a(ab)^{-1}."""
    a = ring(a)
    b = ring(b)
    return (h_letter_seq(root, a, ring) + h_letter_seq(root, b, ring)
            + invert_letters(h_letter_seq(root, a * b, ring)))


def w_elem(root, u, n: int, ring) -> GroupMatrix:
    """Monomial element w_(i,j)(u); in SL_2 it is [[0, u], [-1/u, 0]]."""
    return product_of_elementaries(ring, n, w_letter_seq(root, u, ring))


def h_elem(root, u, n: int, ring) -> GroupMatrix:
    """Torus element h_(i,j)(u) = diag(..., u at i, 1/u at j, ...)."""
    return product_of_elementaries(ring, n, h_letter_seq(root, u, ring))


def eval_matrix(m: GroupMatrix, t) -> GroupMatrix:
    """Evaluate a matrix over k[T] entrywise at T = t.

    t is coerced into the base field once.  At T = 0 and T = 1 each entry
    is read off its stored coefficients (the constant term, or their sum);
    any other t goes through ``Poly.evaluate``.  Evaluation is a ring
    homomorphism, so the determinant stays 1.
    """
    ring = m.ring
    if not isinstance(ring, PolyRing) or not ring.univariate:
        raise ValueError("eval_matrix needs a matrix over a univariate ring")
    t = ring.base(t)
    end = ring._endpoint(t)
    if end is None:
        assignment = {ring.variables[0]: t}
        rows = [[x.evaluate(assignment) for x in row] for row in m.rows]
    else:
        rows = [[x._at_endpoint(end) for x in row] for row in m.rows]
    return GroupMatrix(ring.base, rows, _checked=True)


def commutator(a: GroupMatrix, b: GroupMatrix) -> GroupMatrix:
    """[a, b] = a b a^{-1} b^{-1}."""
    return a * b * a.inverse() * b.inverse()
