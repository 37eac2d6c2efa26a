"""JSON wire formats: ring descriptors, scalars, matrices, paths, words
and simplices.

Ring descriptors form one flat namespace across all subcommands:
``Q``, ``Fq:<p>^<e>``, and ``poly:<base>:<v1,v2,...>``.  Rationals are
encoded as decimal strings ("num/den"), finite-field elements as
little-endian coefficient vectors, and polynomials as lists of
[exponent-vector, coefficient] pairs in a fixed order, so identical
values always serialize to identical documents.  A one-variable
polynomial over Q or F_p is read straight into its dense stored form
(integer numerators over one denominator, or ints mod p) and written
from it; the limits on a document's terms and digits are checked on the
integers read, before any polynomial is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, gcd, lcm

from .chevalley import GroupMatrix
from .loops import PathMatrix
from .rings import GF, MAX_PRIME_TEST, FiniteField, Poly, PolyRing, QQ
from .simplicial import SimplexMatrix, SimplexPoly, simplex_ring
from .steinberg import SteinbergWord

SCHEMA_MATRIX = "chevloops/matrix/v1"
SCHEMA_PATH = "chevloops/path/v1"
SCHEMA_WORD = "chevloops/word/v1"
SCHEMA_SIMPLEX_POLY = "chevloops/simplex-poly/v1"
SCHEMA_SIMPLEX_MATRIX = "chevloops/simplex-matrix/v1"


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
        if _stores_ints(ring):
            # from the stored integers, highest exponent first
            cs, d = p._c, p._d
            return [[[k], str(Fraction(cs[k], d)) if ring.base is QQ
                     else [cs[k]]]
                    for k in range(len(cs) - 1, -1, -1) if cs[k]]
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
        if isinstance(doc, int) and not isinstance(doc, bool):
            return ring(doc)
        if isinstance(doc, list) and all(
                isinstance(c, int) and not isinstance(c, bool) for c in doc):
            return ring(doc)
        raise ValueError(f"bad finite-field encoding {doc!r}")
    if isinstance(ring, PolyRing):
        return _scalars_from_json(ring, [doc])[0]
    raise ValueError(f"cannot deserialize over {ring!r}")


def _q_pair(doc) -> tuple[int, int]:
    """A rational encoding as its reduced (numerator, denominator).  A
    plain int, or an ASCII string "n" or "n/d" with d > 0 and gcd 1, is
    read directly; any other spelling takes ``scalar_from_json``, with its
    value or its error."""
    if doc.__class__ is int:
        return doc, 1
    if doc.__class__ is str and doc.isascii():
        num, slash, den = doc.partition("/")
        if ((num[1:] if num[:1] == "-" else num).isdigit()
                and (den.isdigit() or not slash)):
            n, d = int(num), int(den) if slash else 1
            if d and gcd(n, d) == 1:
                return n, d
    x = scalar_from_json(QQ, doc)
    return x.numerator, x.denominator


def _fp_int(field: FiniteField, doc) -> int:
    """An F_p encoding as its int in [0, p).  A plain int or a one-int list
    is reduced directly; anything else takes ``scalar_from_json``."""
    if doc.__class__ is int:
        return doc % field.p
    if doc.__class__ is list and len(doc) == 1 and doc[0].__class__ is int:
        return doc[0] % field.p
    return scalar_from_json(field, doc).coeffs[0]


def _scalars_from_json(ring, docs: list, check=None) -> list:
    """The encoded scalars of one document; polynomials are counted
    together against ``MAX_SIMPLEX_TERMS``.  Over Q or Q[...], ``check``
    is first given, per scalar, the list of its (numerator, denominator)
    pairs, before any scalar is built."""
    if isinstance(ring, PolyRing):
        terms = _bounded_terms(ring, docs)
        if check and ring.base is QQ:
            check([list(t.values()) for t in terms])
        return _polys_from_terms(ring, terms)
    if ring is QQ:
        pairs = [_q_pair(x) for x in docs]
        if check:
            check([[x] for x in pairs])
        return [Fraction(*x) for x in pairs]
    return [scalar_from_json(ring, x) for x in docs]


def _stores_ints(ring: PolyRing) -> bool:
    """Whether ``ring`` stores ints: it has one variable over Q or F_p."""
    return ring._kind == "Q" or ring._kind == "p"


def _polys_from_terms(ring: PolyRing, terms: list[dict]) -> list:
    """The polynomials of ``_bounded_terms`` dicts."""
    if not _stores_ints(ring):
        if ring.base is QQ:
            terms = [{e: Fraction(*x) for e, x in t.items()} for t in terms]
        return [Poly(ring, t) for t in terms]
    q = ring.base is QQ
    out = []
    for t in terms:
        den = 1
        if q:
            den = lcm(*[d for _, d in t.values()])
            t = {k: n * (den // d) for k, (n, d) in t.items()}
        c = [0] * (max(t) + 1 if t else 0)
        for k, x in t.items():
            c[k] = x
        out.append(ring.from_ints(c, den))
    return out


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


# Most decimal digits an entry of a matrix document over Q, or a
# coefficient of one over Q[...], may have once its row is written over
# one common denominator, in that denominator and in the numerator.  The
# determinant check is integer Bareiss on those numerators: a dense 28x28
# document at the limit is checked in 0.05-0.2 s, one of 1000-digit
# integers would take 24 s.  The row's denominator is built from the
# integers read, and only up to the limit, before any polynomial is: a 1x1
# path over Q[T] of 4999 coefficients 1/d with 63-digit d is refused in
# about 0.01 s (8 s when each polynomial's denominator came first).
MAX_ENTRY_DIGITS = 64


def _fits_entry_digits(row: list[tuple[int, int]]) -> bool:
    """Whether the (numerator, denominator) pairs of ``row`` over their
    common denominator stay within ``MAX_ENTRY_DIGITS``; that denominator
    is built only while it does."""
    limit = 10 ** MAX_ENTRY_DIGITS
    den = 1
    for num, d in row:
        den = lcm(den, d)
        if den >= limit or abs(num) >= limit:
            return False
    return all(abs(num) * (den // d) < limit for num, d in row)


def _entry_rows(ring, doc: dict) -> list[list]:
    """The rows of a matrix or simplex-matrix document over ``ring``; over
    Q, or over Q[...] with every coefficient of a row counted, refused
    unless each row fits ``MAX_ENTRY_DIGITS``."""
    n = _declared_size(doc)
    entries = doc["entries"]
    if not (isinstance(entries, list) and len(entries) == n
            and all(isinstance(r, list) and len(r) == n for r in entries)):
        raise ValueError("entry grid does not match declared size")

    def check(coeffs):
        if not all(_fits_entry_digits(
                [x for cs in coeffs[k * n:(k + 1) * n] for x in cs])
                for k in range(n)):
            raise ValueError(f"a row over its common denominator has more "
                             f"than {MAX_ENTRY_DIGITS} digits "
                             f"(MAX_ENTRY_DIGITS)")
    flat = _scalars_from_json(ring, [x for row in entries for x in row],
                              check)
    return [flat[k * n:(k + 1) * n] for k in range(n)]


def matrix_from_json(doc: dict, check_det: bool = True) -> GroupMatrix:
    """Without ``check_det``, the determinant is left to the caller."""
    ring = parse_ring(doc["ring"])
    return GroupMatrix(ring, _entry_rows(ring, doc), _checked=not check_det)


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


# Most decimal digits the letters of a word document over Q or Q[...] may
# have in all, counted in the numerator and the denominator of each letter
# (of each coefficient over Q[...]).  Multiplying the word out can grow its
# entries by each letter's digits.  The slowest word found at the limit, at
# n = 3 or 28, is 150 letters a*T + b*T^32 over Q[T] with one-digit a and
# b (0.6 s); over Q every shape tried answers in 0.02 s.  The digits are
# counted on the integers read, before any letter is built, and only until
# they pass the limit: one Q[T] letter of 4999 coefficients 1/d with
# 63-digit d is refused in about 0.01 s (13.5 s when it was built first).
MAX_WORD_DIGITS = 600


def _check_word_digits(coeffs: list[list]):
    """Refuse the (numerator, denominator) lists read from the letters of
    a word, before the word is built, once their digits pass
    ``MAX_WORD_DIGITS``."""
    digits = 0
    for num, den in (x for cs in coeffs for x in cs):
        try:    # str() refuses past 4300 digits, so past the limit too
            digits += len(str(abs(num))) + len(str(den))
        except ValueError:
            digits = MAX_WORD_DIGITS + 1
        if digits > MAX_WORD_DIGITS:
            raise ValueError(f"word letters have more than {MAX_WORD_DIGITS}"
                             f" digits in all (MAX_WORD_DIGITS)")


def word_from_json(doc: dict) -> SteinbergWord:
    n = _declared_size(doc)
    ring = parse_ring(doc["ring"])
    items = doc["letters"]
    for item in items:
        if not (isinstance(item, list) and len(item) in (3, 4)):
            raise ValueError(f"bad word letter {item!r}")
    params = _scalars_from_json(ring, [item[2] for item in items],
                                _check_word_digits)
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


def _bounded_terms(ring: PolyRing, docs: list) -> list[dict]:
    """Exponent vector -> coefficient for each encoded polynomial of one
    document, each coefficient over Q a ``_q_pair``; in one variable over
    Q or F_p the key is the exponent alone, and over F_p the coefficient
    an int in [0, p).  Refused before any polynomial is built when their
    term bound exceeds ``MAX_SIMPLEX_TERMS``."""
    base, nvars = ring.base, len(ring.variables)
    dense = _stores_ints(ring)
    read = (_q_pair if base is QQ else partial(_fp_int, base) if dense
            else partial(scalar_from_json, base))
    out = []
    for doc in docs:
        if not isinstance(doc, list):
            raise ValueError(f"bad polynomial encoding {doc!r}")
        terms = {}
        for item in doc:
            if not (isinstance(item, list) and len(item) == 2):
                raise ValueError(f"bad polynomial term {item!r}")
            exp, coeff = item
            if dense:
                k = exp[0] if isinstance(exp, list) and len(exp) == 1 else -1
                ok = k.__class__ is int and k >= 0
            else:
                ok = (isinstance(exp, list) and len(exp) == nvars
                      and all(k.__class__ is int and k >= 0 for k in exp))
            if not ok:
                raise ValueError(f"bad exponent vector {exp!r}")
            terms[k if dense else tuple(exp)] = read(coeff)
        out.append(terms)
    bound = 0
    for t in out:
        if t:
            deg = max(t) if dense else max(map(sum, t))
            bound += comb(min(deg, MAX_SIMPLEX_TERMS) + nvars, nvars)
            if bound > MAX_SIMPLEX_TERMS:
                raise ValueError(
                    f"document exceeds {MAX_SIMPLEX_TERMS} terms "
                    f"(MAX_SIMPLEX_TERMS, counted as C(deg + v, v) per "
                    f"polynomial in v variables) with v = {nvars}, "
                    f"degree {deg}")
    return out


def simplex_poly_to_json(sp: SimplexPoly) -> dict:
    return {
        "schema": SCHEMA_SIMPLEX_POLY,
        "level": sp.level,
        "field": format_ring(sp.field),
        "poly": scalar_to_json(sp.poly.ring, sp.poly),
    }


def simplex_poly_from_json(doc: dict) -> SimplexPoly:
    level = _simplex_level(doc)
    field = parse_ring(doc["field"])
    poly, = _scalars_from_json(simplex_ring(field, level), [doc["poly"]])
    return SimplexPoly(field, level, poly)


def simplex_matrix_to_json(sm: SimplexMatrix) -> dict:
    return {
        "schema": SCHEMA_SIMPLEX_MATRIX,
        "level": sm.level,
        "n": sm.n,
        "field": format_ring(sm.field),
        "entries": [[scalar_to_json(sm.matrix.ring, x) for x in row]
                    for row in sm.matrix.rows],
    }


def simplex_matrix_from_json(doc: dict) -> SimplexMatrix:
    level = _simplex_level(doc)
    ring = simplex_ring(parse_ring(doc["field"]), level)
    return SimplexMatrix(ring.base, level,
                         GroupMatrix(ring, _entry_rows(ring, doc)))

