"""The simplicial ring k[D^n] and the singular construction in low degrees.

Level n works in canonical coordinates X1, ..., Xn with X0 eliminated via
X0 = 1 - (X1 + ... + Xn).  On the full coordinate ring the structure maps
substitute

    d_i(X_j) = X_j (j < i),  0 (j = i),  X_{j-1} (j > i)
    s_i(X_j) = X_j (j < i),  X_i + X_{i+1} (j = i),  X_{j+1} (j > i)

and the results are re-canonicalized, so X0 never appears in stored data.
Under the level-1 identification T = X1, the face d_1 is evaluation at
T = 0 and d_0 is evaluation at T = 1; that identification is the bridge
between paths over k[T] and level-1 simplices.

Moore-complex convention used throughout: N_n is the intersection of
ker d_i for i >= 1 and the boundary is d_0.
"""

from __future__ import annotations

from .chevalley import GroupMatrix
from .loops import PathMatrix, path_ring
from .rings import PolyRing

_SIMPLEX_RINGS: dict = {}


def simplex_ring(field, level: int) -> PolyRing:
    """Canonical coordinate ring of the level-n simplex: k[X1, ..., Xn]."""
    if level < 0:
        raise ValueError("simplex level must be nonnegative")
    key = (field, level)
    ring = _SIMPLEX_RINGS.get(key)
    if ring is None:
        ring = PolyRing(field, tuple(f"X{i}" for i in range(1, level + 1)))
        _SIMPLEX_RINGS[key] = ring
    return ring


class SimplexPoly:
    """An element of k[D^n] in canonical coordinates (X0 eliminated)."""

    __slots__ = ("field", "level", "poly")

    def __init__(self, field, level: int, poly):
        ring = simplex_ring(field, level)
        self.field = field
        self.level = level
        self.poly = ring(poly)

    def __eq__(self, other):
        if not isinstance(other, SimplexPoly):
            return NotImplemented
        return (self.field is other.field and self.level == other.level
                and self.poly == other.poly)

    def __hash__(self):
        return hash((self.level, self.poly))

    def __repr__(self):
        return f"SimplexPoly(level={self.level}, {self.poly})"


class SimplexMatrix:
    """A determinant-1 matrix over k[D^n]: an n-simplex of the singular
    construction of SL_m."""

    __slots__ = ("field", "level", "matrix")

    def __init__(self, field, level: int, matrix: GroupMatrix):
        if matrix.ring != simplex_ring(field, level):
            raise ValueError(
                f"matrix ring {matrix.ring!r} is not the level-{level} "
                f"simplex ring")
        self.field = field
        self.level = level
        self.matrix = matrix

    @property
    def n(self) -> int:
        return self.matrix.n

    def is_identity(self) -> bool:
        return self.matrix.is_identity()

    def __eq__(self, other):
        if not isinstance(other, SimplexMatrix):
            return NotImplemented
        return (self.field is other.field and self.level == other.level
                and self.matrix == other.matrix)

    def __repr__(self):
        return f"SimplexMatrix(level={self.level}, {self.matrix!r})"


# (field, level, i, kind) -> (mapping, target ring, monomial-image memo)
_MAPPING_CACHE: dict = {}


def _face_mapping(field, level: int, i: int) -> tuple[dict, PolyRing, dict]:
    key = (field, level, i, "d")
    hit = _MAPPING_CACHE.get(key)
    if hit is not None:
        return hit
    target = simplex_ring(field, level - 1)
    mapping = {}
    for j in range(1, level + 1):
        var = f"X{j}"
        if j < i:
            mapping[var] = target.gen(var)
        elif j == i:
            mapping[var] = target.zero
        elif j - 1 == 0:
            # X0 of the target level, re-eliminated
            x0 = target.one
            for g in target.gens():
                x0 = x0 - g
            mapping[var] = x0
        else:
            mapping[var] = target.gen(f"X{j - 1}")
    hit = _MAPPING_CACHE[key] = (mapping, target, {})
    return hit


def _degeneracy_mapping(field, level: int,
                        i: int) -> tuple[dict, PolyRing, dict]:
    key = (field, level, i, "s")
    hit = _MAPPING_CACHE.get(key)
    if hit is not None:
        return hit
    target = simplex_ring(field, level + 1)
    mapping = {}
    for j in range(1, level + 1):
        var = f"X{j}"
        if j < i:
            mapping[var] = target.gen(var)
        elif j == i:
            mapping[var] = target.gen(f"X{i}") + target.gen(f"X{i + 1}")
        else:
            mapping[var] = target.gen(f"X{j + 1}")
    hit = _MAPPING_CACHE[key] = (mapping, target, {})
    return hit


def face(i: int, x):
    """Face map d_i, level n -> n-1, on a SimplexPoly or SimplexMatrix."""
    level = x.level
    if level < 1:
        raise ValueError("faces need level >= 1")
    if not 0 <= i <= level:
        raise ValueError(f"face index {i} out of range for level {level}")
    mapping, target, memo = _face_mapping(x.field, level, i)
    if isinstance(x, SimplexPoly):
        return SimplexPoly(x.field, level - 1,
                           x.poly.substitute(mapping, target, memo))
    if isinstance(x, SimplexMatrix):
        rows = [[e.substitute(mapping, target, memo) for e in row]
                for row in x.matrix.rows]
        return SimplexMatrix(x.field, level - 1, GroupMatrix(target, rows))
    raise ValueError(f"cannot take faces of {x!r}")


def degeneracy(i: int, x):
    """Degeneracy map s_i, level n -> n+1."""
    level = x.level
    if not 0 <= i <= level:
        raise ValueError(f"degeneracy index {i} out of range for level {level}")
    mapping, target, memo = _degeneracy_mapping(x.field, level, i)
    if isinstance(x, SimplexPoly):
        return SimplexPoly(x.field, level + 1,
                           x.poly.substitute(mapping, target, memo))
    if isinstance(x, SimplexMatrix):
        rows = [[e.substitute(mapping, target, memo) for e in row]
                for row in x.matrix.rows]
        return SimplexMatrix(x.field, level + 1, GroupMatrix(target, rows))
    raise ValueError(f"cannot take degeneracies of {x!r}")


def path_to_simplex(path: PathMatrix) -> SimplexMatrix:
    """Reinterpret a path over k[T] as a level-1 simplex via T = X1."""
    field = path.base
    target = simplex_ring(field, 1)
    x1 = target.gen("X1")
    rows = [[e.substitute({"T": x1}, target) for e in row]
            for row in path.matrix.rows]
    return SimplexMatrix(field, 1, GroupMatrix(target, rows))


def simplex_to_path(sm: SimplexMatrix) -> PathMatrix:
    """Inverse of :func:`path_to_simplex` on level-1 matrices."""
    if sm.level != 1:
        raise ValueError("only level-1 simplices are paths")
    ring = path_ring(sm.field)
    t = ring.gen("T")
    rows = [[e.substitute({"X1": t}, ring) for e in row]
            for row in sm.matrix.rows]
    return PathMatrix(GroupMatrix(ring, rows))


def moore_is_loop(g: SimplexMatrix) -> bool:
    """A level-1 element is a loop when both of its faces are trivial.

    Under T = X1 this says exactly g(0) = g(1) = identity.
    """
    if g.level != 1:
        raise ValueError("loops live at level 1")
    return face(0, g).is_identity() and face(1, g).is_identity()


def verify_homotopy_witness(sigma: SimplexMatrix, loop_from: SimplexMatrix,
                            loop_to: SimplexMatrix) -> bool:
    """Check a level-2 witness that two loops agree in the fundamental group.

    The witness must lie in the Moore complex at level 2 (d1 and d2 both
    trivial) and its Moore boundary d0 must equal loop_to * loop_from^{-1}.
    A True result certifies the two loops are homotopic.
    """
    if sigma.level != 2:
        raise ValueError("a homotopy witness lives at level 2")
    if not moore_is_loop(loop_from) or not moore_is_loop(loop_to):
        raise ValueError("both endpoints must satisfy moore_is_loop")
    if loop_from.field is not sigma.field or loop_to.field is not sigma.field:
        raise ValueError("witness and loops must share one base field")
    if loop_from.n != sigma.n or loop_to.n != sigma.n:
        raise ValueError("witness and loops must have matching matrix size")
    if not face(1, sigma).is_identity():
        return False
    if not face(2, sigma).is_identity():
        return False
    boundary = face(0, sigma)
    expected = loop_to.matrix * loop_from.matrix.inverse()
    if boundary.matrix != expected:
        return False
    # implied by the simplicial identities; a failure here means the face
    # maps themselves are broken
    if not moore_is_loop(boundary):
        raise RuntimeError("certified boundary is not a loop")
    return True
