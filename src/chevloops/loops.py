"""Polynomial paths and symbol loops in SL_n(k[T]).

A path is a determinant-1 matrix over k[T] that evaluates to the identity
at T = 0; a loop also evaluates to the identity at T = 1.  The loop
constructors scale the w/h/c letter sequences by T:

    X_T(u)      = x_a(T u)
    W_T(u)      = X_T(u) X_T^{-}(-1/u) X_T(u)
    H_T(u)      = W_T(u) W_T(1)^{-1}
    C_T(u, v)   = H_T(u) H_T(v) H_T(uv)^{-1}

C_T(u, v) is a loop for any pair of units; H_T(u) is a path from the
identity to h(u) and a loop only when u = 1.
"""

from __future__ import annotations

from .chevalley import (GroupMatrix, c_letter_seq, elem, eval_matrix,
                        h_letter_seq, product_of_elementaries,
                        w_letter_seq)
from .rings import PolyRing

_PATH_RINGS: dict = {}


def path_ring(field) -> PolyRing:
    """k[T], cached so paths over the same field share one ring object."""
    ring = _PATH_RINGS.get(field)
    if ring is None:
        ring = PolyRing(field, ("T",))
        _PATH_RINGS[field] = ring
    return ring


class PathMatrix:
    """A determinant-1 matrix over k[T], read as a based path in SL_n."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: GroupMatrix):
        ring = matrix.ring
        if not isinstance(ring, PolyRing) or not ring.univariate:
            raise ValueError("a path must live over a univariate ring k[T]")
        self.matrix = matrix

    @property
    def ring(self) -> PolyRing:
        return self.matrix.ring

    @property
    def base(self):
        return self.matrix.ring.base

    @property
    def n(self) -> int:
        return self.matrix.n

    def at(self, t) -> GroupMatrix:
        """Evaluate the path at T = t (a base-field scalar)."""
        return eval_matrix(self.matrix, t)

    def is_path(self) -> bool:
        return self.at(0).is_identity()

    def is_loop(self) -> bool:
        return self.at(0).is_identity() and self.at(1).is_identity()

    def endpoints(self) -> tuple[GroupMatrix, GroupMatrix]:
        return self.at(0), self.at(1)

    def __mul__(self, other):
        if not isinstance(other, PathMatrix):
            return NotImplemented
        return PathMatrix(self.matrix * other.matrix)

    def inverse(self) -> "PathMatrix":
        return PathMatrix(self.matrix.inverse())

    def __eq__(self, other):
        if not isinstance(other, PathMatrix):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"PathMatrix({self.n}x{self.n} over {self.ring!r})"


def _scale_by_t(letters, ring: PolyRing):
    t = ring.gen(ring.variables[0])
    return [(root, t * ring(param)) for root, param in letters]


def x_loop(root, u, n: int, field) -> PathMatrix:
    """The path T -> x_a(T u); a loop only for u = 0."""
    ring = path_ring(field)
    t = ring.gen("T")
    return PathMatrix(elem(root, t * ring(field(u)), n, ring))


def w_loop(root, u, n: int, field) -> PathMatrix:
    """W_T(u); u must be a unit of k."""
    ring = path_ring(field)
    letters = _scale_by_t(w_letter_seq(root, field(u), field), ring)
    return PathMatrix(product_of_elementaries(ring, n, letters))


def h_loop(root, u, n: int, field) -> PathMatrix:
    """H_T(u) = W_T(u) W_T(1)^{-1}: a path from the identity to h(u)."""
    ring = path_ring(field)
    letters = _scale_by_t(h_letter_seq(root, field(u), field), ring)
    return PathMatrix(product_of_elementaries(ring, n, letters))


def c_loop(root, a, b, n: int, field) -> PathMatrix:
    """The symbol loop C_T(a, b) = H_T(a) H_T(b) H_T(ab)^{-1}."""
    ring = path_ring(field)
    letters = _scale_by_t(c_letter_seq(root, field(a), field(b), field), ring)
    return PathMatrix(product_of_elementaries(ring, n, letters))


def identity_path(field, n: int) -> PathMatrix:
    return PathMatrix(GroupMatrix.identity(path_ring(field), n))


def sl2_closed_form(u, v, field) -> PathMatrix:
    """The closed-form 2x2 symbol loop for x_a = e_12.

    Equals ``c_loop((1, 2), u, v, 2, field)`` entrywise; the correction
    term carries the factor T(T^2 - 1), so it vanishes at T in {0, 1, -1}.
    """
    u = field(u)
    v = field(v)
    if not field.is_unit(u) or not field.is_unit(v):
        raise ZeroDivisionError("closed form needs invertible u and v")
    ring = path_ring(field)
    t = ring.gen("T")
    one = ring.one
    t2 = t * t
    uu, vv = ring(u), ring(v)
    pref = t * (t2 - one) * ring((field.one - u) * (field.one - v)
                                 / (u * u * v))
    d00 = ring(u * (field.one - u)) * t * (t2 - one) * (t2 - 2)
    d01 = ring(-(v * u * u)) * ((t2 - one) ** 2 * ring(field.one - u)
                                + ring(u)) * (t2 - 2)
    d10 = ring(field.one - u) * (t2 - one) ** 2 - one
    d11 = ring(-(u * v * (field.one - u))) * t * (t2 - one) * (t2 - 2)
    rows = [[one + pref * d00, pref * d01],
            [pref * d10, one + pref * d11]]
    return PathMatrix(GroupMatrix(ring, rows))


def _side_product(side, ring, n):
    acc = GroupMatrix.identity(ring, n)
    for item in side:
        m = item.matrix if isinstance(item, PathMatrix) else item
        acc = acc * m
    return acc


def verify_path_identity(lhs, rhs):
    """Compare two products of paths entrywise as exact polynomials.

    Returns ``(True, None)`` when the products agree, otherwise
    ``(False, (i, j, lhs_entry, rhs_entry))`` for the first differing
    entry in row-major order (1-based).
    """
    lhs = list(lhs)
    rhs = list(rhs)
    items = lhs + rhs
    if not items:
        return True, None
    first = items[0].matrix if isinstance(items[0], PathMatrix) else items[0]
    ring, n = first.ring, first.n
    for item in items:
        m = item.matrix if isinstance(item, PathMatrix) else item
        if m.ring != ring or m.n != n:
            raise ValueError("all factors must share one ring and size")
    left = _side_product(lhs, ring, n)
    right = _side_product(rhs, ring, n)
    for i in range(n):
        for j in range(n):
            if left.rows[i][j] != right.rows[i][j]:
                return False, (i + 1, j + 1, left.rows[i][j],
                               right.rows[i][j])
    return True, None
