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


def _structure_map(field, level: int, i: int,
                   kind: str) -> tuple[dict, PolyRing, dict]:
    """The substitution of d_i (kind "d") or s_i (kind "s") at ``level``."""
    key = (field, level, i, kind)
    hit = _MAPPING_CACHE.get(key)
    if hit is not None:
        return hit
    step = -1 if kind == "d" else 1
    target = simplex_ring(field, level + step)
    gens = target.gens()
    # X0, X1, ... of the target level, with X0 re-eliminated
    x = (target.one - sum(gens, target.zero),) + gens
    mapping = {}
    for j in range(1, level + 1):
        if j < i:
            image = x[j]
        elif j > i:
            image = x[j + step]
        elif kind == "d":
            image = target.zero
        else:
            image = x[i] + x[i + 1]
        mapping[f"X{j}"] = image
    hit = _MAPPING_CACHE[key] = (mapping, target, {})
    return hit


def _substitute_rows(matrix: GroupMatrix, mapping: dict, target: PolyRing,
                     memo: dict | None = None) -> GroupMatrix:
    return GroupMatrix(target, [[e.substitute(mapping, target, memo)
                                 for e in row] for row in matrix.rows])


def _apply(kind: str, i: int, x):
    mapping, target, memo = _structure_map(x.field, x.level, i, kind)
    level = len(target.variables)
    if isinstance(x, SimplexPoly):
        return SimplexPoly(x.field, level,
                           x.poly.substitute(mapping, target, memo))
    if isinstance(x, SimplexMatrix):
        return SimplexMatrix(x.field, level,
                             _substitute_rows(x.matrix, mapping, target, memo))
    noun = "faces" if kind == "d" else "degeneracies"
    raise ValueError(f"cannot take {noun} of {x!r}")


def face(i: int, x):
    """Face map d_i, level n -> n-1, on a SimplexPoly or SimplexMatrix."""
    level = x.level
    if level < 1:
        raise ValueError("faces need level >= 1")
    if not 0 <= i <= level:
        raise ValueError(f"face index {i} out of range for level {level}")
    return _apply("d", i, x)


def degeneracy(i: int, x):
    """Degeneracy map s_i, level n -> n+1."""
    level = x.level
    if not 0 <= i <= level:
        raise ValueError(f"degeneracy index {i} out of range for level {level}")
    return _apply("s", i, x)


def path_to_simplex(path: PathMatrix) -> SimplexMatrix:
    """Reinterpret a path over k[T] as a level-1 simplex via T = X1."""
    target = simplex_ring(path.base, 1)
    return SimplexMatrix(path.base, 1, _substitute_rows(
        path.matrix, {"T": target.gen("X1")}, target))


def simplex_to_path(sm: SimplexMatrix) -> PathMatrix:
    """Inverse of :func:`path_to_simplex` on level-1 matrices."""
    if sm.level != 1:
        raise ValueError("only level-1 simplices are paths")
    ring = path_ring(sm.field)
    return PathMatrix(_substitute_rows(sm.matrix, {"X1": ring.gen("T")}, ring))


def moore_is_loop(g: SimplexMatrix) -> bool:
    """A level-1 element is a loop when both of its faces are trivial.

    Under T = X1 this says exactly g(0) = g(1) = identity.
    """
    if g.level != 1:
        raise ValueError("loops live at level 1")
    return face(0, g).is_identity() and face(1, g).is_identity()


def _check_witness(sigma: SimplexMatrix, loop_from: SimplexMatrix,
                   loop_to: SimplexMatrix) -> tuple[bool, tuple]:
    """:func:`verify_homotopy_witness`, also returning the faces
    (d0, d1, d2) of sigma."""
    if sigma.level != 2:
        raise ValueError("a homotopy witness lives at level 2")
    if not moore_is_loop(loop_from) or not moore_is_loop(loop_to):
        raise ValueError("both endpoints must satisfy moore_is_loop")
    if loop_from.field is not sigma.field or loop_to.field is not sigma.field:
        raise ValueError("witness and loops must share one base field")
    if loop_from.n != sigma.n or loop_to.n != sigma.n:
        raise ValueError("witness and loops must have matching matrix size")
    d1, d2, boundary = face(1, sigma), face(2, sigma), face(0, sigma)
    faces = (boundary, d1, d2)
    if not (d1.is_identity() and d2.is_identity()):
        return False, faces
    if boundary.matrix != loop_to.matrix * loop_from.matrix.inverse():
        return False, faces
    # implied by the simplicial identities; a failure here means the face
    # maps themselves are broken
    if not moore_is_loop(boundary):
        raise RuntimeError("certified boundary is not a loop")
    return True, faces


def verify_homotopy_witness(sigma: SimplexMatrix, loop_from: SimplexMatrix,
                            loop_to: SimplexMatrix) -> bool:
    """Check a level-2 witness that two loops agree in the fundamental group.

    The witness must lie in the Moore complex at level 2 (d1 and d2 both
    trivial) and its Moore boundary d0 must equal loop_to * loop_from^{-1}.
    A True result certifies the two loops are homotopic.
    """
    return _check_witness(sigma, loop_from, loop_to)[0]
