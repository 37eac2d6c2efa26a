"""JSON wire formats: ring descriptors, scalars, matrices, paths, words,
simplices, and abelian-group presentations.

Ring descriptors form one flat namespace across all subcommands:
``Q``, ``Fq:<p>^<e>``, and ``poly:<base>:<v1,v2,...>``.  Rationals are
encoded as decimal strings ("num/den"), finite-field elements as
little-endian coefficient vectors, and polynomials as lists of
[exponent-vector, coefficient] pairs in a fixed order, so identical
values always serialize to identical documents.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .chevalley import GroupMatrix
from .loops import PathMatrix
from .oracles import AbelianGroupPresentation
from .rings import GF, MAX_PRIME_TEST, FiniteField, Poly, PolyRing, QQ
from .simplicial import SimplexMatrix, SimplexPoly, simplex_ring
from .snf import SparseIntMatrix
from .steinberg import SteinbergWord

SCHEMA_MATRIX = "chevloops/matrix/v1"
SCHEMA_PATH = "chevloops/path/v1"
SCHEMA_WORD = "chevloops/word/v1"
SCHEMA_SIMPLEX_POLY = "chevloops/simplex-poly/v1"
SCHEMA_SIMPLEX_MATRIX = "chevloops/simplex-matrix/v1"
SCHEMA_PRESENTATION = "chevloops/presentation/v1"


# ---------------------------------------------------------------------------
# ring descriptors
# ---------------------------------------------------------------------------

def format_ring(ring) -> str:
    return ring.descriptor()


def parse_ring(desc: str):
    if not isinstance(desc, str):
        raise ValueError(f"ring descriptor must be a string, got {desc!r}")
    if desc == "Q":
        return QQ
    if desc.startswith("Fq:"):
        body = desc[3:]
        if "^" in body:
            p_str, e_str = body.split("^", 1)
        else:
            p_str, e_str = body, "1"
        try:
            p, e = int(p_str), int(e_str)
        except ValueError:
            raise ValueError(f"bad finite-field descriptor {desc!r}")
        if e * (abs(p).bit_length() - 1) >= MAX_PRIME_TEST.bit_length():
            # p^e >= 2^82 > MAX_PRIME_TEST: refuse before computing it
            raise ValueError(f"{desc!r} names a field larger than "
                             f"MAX_PRIME_TEST = {MAX_PRIME_TEST}")
        field = GF(p ** e)
        if field.p != p:
            raise ValueError(f"{p} is not prime in descriptor {desc!r}")
        return field
    if desc.startswith("poly:"):
        rest = desc[5:]
        if ":" not in rest:
            raise ValueError(f"bad polynomial-ring descriptor {desc!r}")
        base_desc, vars_part = rest.rsplit(":", 1)
        if base_desc.startswith("poly:"):
            raise ValueError("nested polynomial rings are not supported; "
                             "declare all variables in one descriptor")
        base = parse_ring(base_desc)
        names = tuple(v for v in vars_part.split(",") if v)
        if not names:
            raise ValueError(f"no variables in descriptor {desc!r}")
        return PolyRing(base, names)
    raise ValueError(f"unknown ring descriptor {desc!r}")


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

# Largest decimal exponent a rational string such as "3e-7" may carry:
# "1e<k>" has k + 1 digits, and Python refuses integer strings of more
# than 4300 digits.
MAX_RATIONAL_EXPONENT = 4300


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, refused before 10^k is built when the decimal
    exponent k exceeds ``MAX_RATIONAL_EXPONENT`` in size."""
    _, mark, exp = text.upper().rpartition("E")
    if mark:
        try:
            k = int(exp)
        except ValueError:
            k = 0          # not an exponent: Fraction rejects or reads it
        if abs(k) > MAX_RATIONAL_EXPONENT:
            raise ValueError(f"exponent {k} in {text!r} exceeds "
                             f"{MAX_RATIONAL_EXPONENT} "
                             f"(MAX_RATIONAL_EXPONENT)")
    return Fraction(text)


def scalar_to_json(ring, x):
    if ring is QQ:
        return str(ring(x))
    if isinstance(ring, FiniteField):
        return list(ring(x).coeffs)
    if isinstance(ring, PolyRing):
        p = ring(x)
        base = ring.base
        return [[list(e), scalar_to_json(base, c)]
                for e, c in sorted(p.terms.items(), reverse=True)]
    raise ValueError(f"cannot serialize over {ring!r}")


def scalar_from_json(ring, doc):
    if ring is QQ:
        if isinstance(doc, (str, int)):
            return parse_rational(str(doc))
        raise ValueError(f"bad rational encoding {doc!r}")
    if isinstance(ring, FiniteField):
        if isinstance(doc, int):
            return ring(doc)
        if isinstance(doc, list) and all(
                isinstance(c, int) and not isinstance(c, bool) for c in doc):
            return ring(doc)
        raise ValueError(f"bad finite-field encoding {doc!r}")
    if isinstance(ring, PolyRing):
        return _bounded_polys(ring, [doc])[0]
    raise ValueError(f"cannot deserialize over {ring!r}")


def _scalars_from_json(ring, docs: list) -> list:
    """The encoded scalars of one document; polynomials are counted
    together against ``MAX_SIMPLEX_TERMS``."""
    if isinstance(ring, PolyRing):
        return _bounded_polys(ring, docs)
    return [scalar_from_json(ring, x) for x in docs]


def _terms_from_json(ring: PolyRing, doc) -> dict:
    """Exponent vector -> coefficient for one encoded polynomial."""
    if not isinstance(doc, list):
        raise ValueError(f"bad polynomial encoding {doc!r}")
    nvars = len(ring.variables)
    terms = {}
    for item in doc:
        if not (isinstance(item, list) and len(item) == 2):
            raise ValueError(f"bad polynomial term {item!r}")
        exp, coeff = item
        if not (isinstance(exp, list) and len(exp) == nvars
                and all(isinstance(k, int) and k >= 0 for k in exp)):
            raise ValueError(f"bad exponent vector {exp!r}")
        terms[tuple(exp)] = scalar_from_json(ring.base, coeff)
    return terms


# ---------------------------------------------------------------------------
# matrices and paths
# ---------------------------------------------------------------------------

def matrix_to_json(m: GroupMatrix, schema: str = SCHEMA_MATRIX) -> dict:
    return {
        "schema": schema,
        "n": m.n,
        "ring": format_ring(m.ring),
        "entries": [[scalar_to_json(m.ring, x) for x in row]
                    for row in m.rows],
    }


# Largest n a matrix, path, simplex-matrix or word document may declare.
# Loading re-checks the determinant in O(n^3) steps: a dense 28x28 matrix
# over Q or F_7, or over k[X1..X4] with constant entries, answers in well
# under a second.
MAX_DOCUMENT_SIZE = 28
# Most work one command may load and multiply, counted as the sum of n^3
# over its matrix documents (see ``check_document_work``).
MAX_DOCUMENT_WORK = 2 * MAX_DOCUMENT_SIZE ** 3


def _declared_size(doc: dict) -> int:
    """The n a matrix, path, simplex-matrix or word document declares,
    refused past ``MAX_DOCUMENT_SIZE`` before any entry is built."""
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"matrix size must be an integer, got {n!r}")
    if not 0 <= n <= MAX_DOCUMENT_SIZE:
        raise ValueError(f"matrix size {n} is outside 0..{MAX_DOCUMENT_SIZE}"
                         f" (MAX_DOCUMENT_SIZE)")
    return n


def check_document_work(docs, rounds: int = 1):
    """Refuse a list of matrix documents, before any is built, when
    ``rounds`` times the sum of n^3 exceeds ``MAX_DOCUMENT_WORK``."""
    work = rounds * sum(_declared_size(d) ** 3 for d in docs)
    if work > MAX_DOCUMENT_WORK:
        raise ValueError(f"documents need {work} units of work, over "
                         f"{MAX_DOCUMENT_WORK} (MAX_DOCUMENT_WORK, counted "
                         f"as {rounds} x the sum of n^3)")


def _entry_grid(doc: dict) -> tuple[int, list]:
    """The declared size and the row-major entries of a matrix document."""
    n = _declared_size(doc)
    entries = doc["entries"]
    if not (isinstance(entries, list) and len(entries) == n
            and all(isinstance(r, list) and len(r) == n for r in entries)):
        raise ValueError("entry grid does not match declared size")
    return n, [x for row in entries for x in row]


def matrix_from_json(doc: dict) -> GroupMatrix:
    ring = parse_ring(doc["ring"])
    n, flat = _entry_grid(doc)
    flat = _scalars_from_json(ring, flat)
    return GroupMatrix(ring, [flat[k * n:(k + 1) * n] for k in range(n)])


def path_to_json(path: PathMatrix) -> dict:
    return matrix_to_json(path.matrix, schema=SCHEMA_PATH)


def path_from_json(doc: dict) -> PathMatrix:
    return PathMatrix(matrix_from_json(doc))


# ---------------------------------------------------------------------------
# Steinberg words
# ---------------------------------------------------------------------------

def word_to_json(w: SteinbergWord) -> dict:
    return {
        "schema": SCHEMA_WORD,
        "n": w.n,
        "ring": format_ring(w.ring),
        "letters": [[i, j, scalar_to_json(w.ring, param), 1]
                    for (i, j), param in w.letters],
    }


def word_from_json(doc: dict) -> SteinbergWord:
    n = _declared_size(doc)
    ring = parse_ring(doc["ring"])
    items = doc["letters"]
    for item in items:
        if not (isinstance(item, list) and len(item) in (3, 4)):
            raise ValueError(f"bad word letter {item!r}")
    params = _scalars_from_json(ring, [item[2] for item in items])
    letters = [((item[0], item[1]), param,
                item[3] if len(item) == 4 else 1)
               for item, param in zip(items, params)]
    return SteinbergWord(ring, n, letters)


# ---------------------------------------------------------------------------
# simplices
# ---------------------------------------------------------------------------

# Largest level a simplex document may declare: the face maps of level n
# are built in O(n^2).
MAX_SIMPLEX_LEVEL = 64
# Most terms the polynomials of one simplex, matrix, path or word document
# may have, counted as C(deg + v, v) for each polynomial of total degree deg
# in v variables (deg + 1 over k[T]).  That bounds the stored form (dense
# in one variable) and, for a simplex, every face image, which lives one
# level lower.
MAX_SIMPLEX_TERMS = 5000


def _simplex_level(doc: dict) -> int:
    level = doc["level"]
    if isinstance(level, bool) or not isinstance(level, int):
        raise ValueError(f"simplex level must be an integer, got {level!r}")
    if not 0 <= level <= MAX_SIMPLEX_LEVEL:
        raise ValueError(f"simplex level {level} is outside 0.."
                         f"{MAX_SIMPLEX_LEVEL} (MAX_SIMPLEX_LEVEL)")
    return level


def _bounded_polys(ring: PolyRing, docs: list) -> list:
    """The encoded polynomials of one document, refused before any is
    built when their term bound exceeds ``MAX_SIMPLEX_TERMS``."""
    nvars = len(ring.variables)
    terms = [_terms_from_json(ring, d) for d in docs]
    bound = 0
    for t in terms:
        if t:
            deg = max(map(sum, t))
            bound += comb(min(deg, MAX_SIMPLEX_TERMS) + nvars, nvars)
            if bound > MAX_SIMPLEX_TERMS:
                raise ValueError(
                    f"document exceeds {MAX_SIMPLEX_TERMS} terms "
                    f"(MAX_SIMPLEX_TERMS, counted as C(deg + v, v) per "
                    f"polynomial in v variables) with v = {nvars}, "
                    f"degree {deg}")
    return [Poly(ring, t) for t in terms]


def simplex_poly_to_json(sp: SimplexPoly) -> dict:
    ring = simplex_ring(sp.field, sp.level)
    return {
        "schema": SCHEMA_SIMPLEX_POLY,
        "level": sp.level,
        "field": format_ring(sp.field),
        "poly": scalar_to_json(ring, sp.poly),
    }


def simplex_poly_from_json(doc: dict) -> SimplexPoly:
    level = _simplex_level(doc)
    field = parse_ring(doc["field"])
    poly, = _bounded_polys(simplex_ring(field, level), [doc["poly"]])
    return SimplexPoly(field, level, poly)


def simplex_matrix_to_json(sm: SimplexMatrix) -> dict:
    ring = simplex_ring(sm.field, sm.level)
    return {
        "schema": SCHEMA_SIMPLEX_MATRIX,
        "level": sm.level,
        "n": sm.n,
        "field": format_ring(sm.field),
        "entries": [[scalar_to_json(ring, x) for x in row]
                    for row in sm.matrix.rows],
    }


def simplex_matrix_from_json(doc: dict) -> SimplexMatrix:
    level = _simplex_level(doc)
    ring = simplex_ring(parse_ring(doc["field"]), level)
    n, flat = _entry_grid(doc)
    flat = _bounded_polys(ring, flat)
    return SimplexMatrix(ring.base, level, GroupMatrix(
        ring, [flat[k * n:(k + 1) * n] for k in range(n)]))


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def presentation_to_json(p: AbelianGroupPresentation) -> dict:
    rel = p.relations
    return {
        "schema": SCHEMA_PRESENTATION,
        "generators": list(p.generators),
        "relations": {
            "nrows": rel.nrows,
            "ncols": rel.ncols,
            "entries": sorted([i, j, v] for (i, j), v in rel.entries.items()),
        },
        "snf_diagonal": list(p.snf_diagonal),
        "invariant_factors": list(p.invariant_factors),
        "free_rank": p.free_rank,
        "metadata": dict(p.metadata),
    }


def sparse_matrix_from_json(doc: dict) -> SparseIntMatrix:
    return SparseIntMatrix(doc["nrows"], doc["ncols"],
                           [(i, j, v) for i, j, v in doc["entries"]])
