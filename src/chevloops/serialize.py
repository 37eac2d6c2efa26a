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
from it; a document's terms are counted, and the work a command runs on
it priced, on the integers read, before any polynomial is built.
"""

from __future__ import annotations

import sys
from copy import copy
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, zip_longest
from math import comb, gcd, isqrt, lcm

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


def _written(x: Fraction) -> str:
    """``str(x)``, refused when a part has more digits than Python writes
    out (``sys.get_int_max_str_digits``): the one check that no number a
    command prints is too long."""
    try:
        return str(x)
    except ValueError:
        raise ValueError(f"an output number has more than "
                         f"{sys.get_int_max_str_digits()} digits, past what "
                         f"Python writes (sys.get_int_max_str_digits)")


def scalar_to_json(ring, x):
    if ring is QQ:
        return _written(ring(x))
    if isinstance(ring, FiniteField):
        return list(ring(x).coeffs)
    if isinstance(ring, PolyRing):
        p = ring(x)
        if _stores_ints(ring):
            # from the stored integers, highest exponent first
            cs, d = p._c, p._d
            return [[[k], _written(Fraction(cs[k], d)) if ring.base is QQ
                     else [cs[k]]]
                    for k in range(len(cs) - 1, -1, -1) if cs[k]]
        base = ring.base
        return [[list(e), scalar_to_json(base, c)]
                for e, c in sorted(p.terms.items(), reverse=True)]
    raise ValueError(f"cannot serialize over {ring!r}")


def scalar_from_json(ring, doc):
    if ring is QQ:
        if isinstance(doc, (str, int)) and not isinstance(doc, bool):
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
        return _read_scalars(ring, [doc])[0]()[0]
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


def _read_scalars(ring, docs: list):
    """The encoded scalars of one document, read but not built, as
    (build, degrees, terms, pairs): ``build()`` makes them, ``degrees``
    lists their total degrees (zero over a field) and ``terms`` their
    summed term bound (see ``_bounded_terms``); over Q or Q[...],
    ``pairs[i]`` holds the (numerator, denominator) pairs of scalar i, and
    elsewhere ``pairs`` is None."""
    if isinstance(ring, PolyRing):
        terms, degrees, count = _bounded_terms(ring, docs)
        pairs = [t.values() for t in terms] if ring.base is QQ else None
        return partial(_polys_from_terms, ring, terms), degrees, count, pairs
    if ring is QQ:
        pairs = [_q_pair(x) for x in docs]
        return ((lambda: [Fraction(*x) for x in pairs]), [0] * len(docs),
                len(docs), [[x] for x in pairs])
    values = [scalar_from_json(ring, x) for x in docs]
    return (lambda: values), [0] * len(docs), len(docs), None


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
# admission: the one priced check
# ---------------------------------------------------------------------------

# Most work one command may do on the documents it reads, in units of
# about one coefficient operation in the dense k[T] kernels (30-80 ns on
# a 2-core VM): the slowest admitted document of each shape answers in
# about 0.3 s (README, "Documents have bounded cost").
MAX_DOCUMENT_COST = 3 * 10 ** 6


def _digits(x: int) -> int:
    """At least the decimal digits of |x|, from its bit length (0.30103 >
    log10 2)."""
    return abs(x).bit_length() * 30103 // 100000 + 1


def _largest_sums(*counts: list) -> list:
    """[s_0, ..., s_n]: s_k the least, over ``counts``, sum of k largest."""
    return [min(x) for x in zip(*(list(accumulate(sorted(c, reverse=True),
                                                  initial=0))
                                  for c in counts))]


class Read:
    """A document read and checked for form, nothing built (``build``
    makes it once ``check_document_cost`` has admitted it), with the shape
    that check prices: size n, m variables, largest entry degree d, most
    digits b of a row over one denominator (of a coefficient over F_q,
    where nothing grows), and
    degs[k], digs[k] bounding a k x k minor by its k largest row (or
    column) degrees and row digits (Bareiss, Math. Comp. 22, 1968;
    Hadamard); ``terms`` is the term bound of its polynomials.  A word
    has d and b summed over its letters.  An operation on coefficients of
    D digits costs w + g * D^2 / 10^4 units (see ``Read.__init__``)."""

    __slots__ = ("n", "m", "d", "b", "degs", "digs", "w", "g", "grows",
                 "terms", "word", "make", "priced")

    def __init__(self, ring, n: int, degrees: list, terms: int, make):
        poly = isinstance(ring, PolyRing)
        base = ring.base if poly else ring
        self.n, self.terms, self.make = n, terms, make
        self.word = self.priced = False
        self.m, self.d = len(ring.variables) if poly else 0, max(degrees)
        self.grows, self.degs, self.digs = base is QQ, [0], [0]
        self.b = 0 if self.grows else _digits(base.p) * base.e
        if poly:    # a product of stored ints, FqElements or Fractions
            self.w, self.g = (1 if _stores_ints(ring) or not self.grows
                              else 4), 1
        else:       # a whole entry update of Fraction or FqElement scalars
            self.w, self.g = 40, 4
        self.w *= 1 if self.grows else base.e

    def cost(self, digits: int) -> int:
        """Units of one operation on coefficients of ``digits`` digits."""
        return self.w + self.g * digits * digits // 10 ** 4

    def build(self, *args):
        if not self.priced:
            raise ValueError("a read document is built only once "
                             "check_document_cost has priced it")
        return self.make(*args)


def _over_cost(what: str) -> ValueError:
    return ValueError(f"documents need more than {MAX_DOCUMENT_COST} units "
                      f"of work (MAX_DOCUMENT_COST): {what}")


def _row_digits(pairs: list, cap: int) -> int:
    """Digits of the (numerator, denominator) pairs of one row over their
    common denominator, refused past ``cap`` digits, to which alone that
    denominator is built."""
    den, most = 1, cap * 10 // 3 + 1    # >= the bits of a cap-digit int
    for d in {d for _, d in pairs}:
        den = lcm(den, d)
        if den.bit_length() > most:
            break
    top = _digits(den << max([0] + [num.bit_length() - d.bit_length()
                                    for num, d in pairs]))
    if top > cap:
        raise _over_cost(f"a row or letter over its common denominator "
                         f"has more than {cap} digits")
    return top


def _digit_cap(r: Read, units: int) -> int:
    """The most digits ``units`` operations on ``r`` leave room for."""
    spare = max(MAX_DOCUMENT_COST // max(units, 1) - r.w, 0)
    return isqrt(spare * 10 ** 4 // r.g)


def _elimination(r: Read, steps: int, rows, digits=None) -> int:
    """Units of an elimination, stopped once past MAX_DOCUMENT_COST: step
    k updates rows(k) entries, each t^2 operations on the t terms of a k
    x k minor, at its digits or at digits(k)."""
    total = 0
    for k in range(1, steps + 1):
        j = min(k, len(r.degs) - 1)
        t = comb(r.degs[j] + r.m, r.m)
        dig = r.digs[min(j, len(r.digs) - 1)] if r.grows else r.b
        total += rows(k) * t * t * r.cost(digits(k) if digits else dig)
        if total > MAX_DOCUMENT_COST:
            break
    return total


def _document_cost(reads: list, det: int = 0, products: int = 0,
                   depth: int = 0, factor: int = 0) -> int:
    """Units of one command's work: each read is built, each word
    multiplied out and each matrix determinant checked; on the matrices'
    joint shape it also runs ``det`` more determinant checks, ``products``
    products, each priced as the last of ``depth`` factors (by default one
    chain, ``products`` + 1), and ``factor`` runs of
    ``factor_elementary``."""
    total = 0
    for r in reads:
        n = r.n
        if r.word:      # each letter term updates n entries
            total += n * comb(r.d + r.m, r.m) * r.terms * r.cost(r.b)
        else:
            total += (n * n + r.terms) * r.cost(r.b) + _elimination(
                r, n - 1, lambda k: (n - k) ** 2)
    mats = [r for r in reads if not r.word]
    if mats and (det or products or factor):
        # the joint work runs in the ring with the fewest variables: the
        # documents share one ring, but for a simplex and its faces
        s = copy(min(mats, key=lambda r: r.m))
        for key in ("n", "d", "b"):
            setattr(s, key, max(getattr(r, key) for r in mats))
        for key in ("degs", "digs"):
            setattr(s, key, [max(x) for x in zip_longest(
                *(getattr(r, key) for r in mats), fillvalue=0)])
        n, c = s.n, products
        depth = depth or c + 1
        total += ((det and det * _elimination(s, n - 1,
                                              lambda k: (n - k) ** 2))
                  + c * n ** 3 * comb(s.d + s.m, s.m)
                  * comb((depth - 1) * s.d + s.m, s.m)
                  * s.cost(depth * s.b if s.grows else s.b)
                  + (factor and factor * 2 * _elimination(
                      s, n, lambda k: (n - k + 1) ** 2, _factor_digits(s))))
    return total


def _factor_digits(s: Read):
    """k -> digits of the coefficients ``factor_elementary`` works on at
    step k, which it runs about as two determinant checks.  Over a field
    an entry is a quotient of two minors; over Q[T] the row operations
    grow the digits far past the Bareiss bound, about as b * j^5 / 16
    where a k x k minor has the degree of j rows of degree d, as measured
    on x_U x_L documents (README)."""
    if s.m and s.grows:
        d5 = 16 * max(s.d, 1) ** 5
        return lambda k: s.b + s.b * s.degs[min(k, s.n)] ** 5 // d5
    return lambda k: 2 * s.digs[min(k, len(s.digs) - 1)] if s.grows else s.b


def check_document_cost(reads: list, **runs):
    """Refuse the documents of one command, before any is built, when the
    work it runs on them (``_document_cost``) passes
    ``MAX_DOCUMENT_COST``."""
    if _document_cost(reads, **runs) > MAX_DOCUMENT_COST:
        r = max(reads, key=lambda r: (r.n, r.d, r.b))
        raise _over_cost(f"n = {r.n}, m = {r.m}, degree {r.d}, "
                         f"{r.b} digits")
    for r in reads:
        r.priced = True


# ---------------------------------------------------------------------------
# matrices and paths
# ---------------------------------------------------------------------------

def matrix_to_json(m: GroupMatrix, schema: str = SCHEMA_MATRIX) -> dict:
    return {
        "schema": schema,
        "n": m.n,
        "ring": m.ring.descriptor(),
        "entries": [[scalar_to_json(m.ring, x) for x in row]
                    for row in m.rows],
    }


# Largest n a matrix, path, simplex-matrix or word document may declare.
MAX_DOCUMENT_SIZE = 28


def _declared_int(doc: dict, key: str = "n", noun: str = "matrix size",
                  limit: str = "MAX_DOCUMENT_SIZE") -> int:
    """``doc[key]``, an int in 0..the limit named ``limit``, refused before
    any entry is built: by default the n a matrix, path, simplex-matrix or
    word document declares."""
    x = doc[key]
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{noun} must be an integer, got {x!r}")
    top = globals()[limit]
    if not 0 <= x <= top:
        raise ValueError(f"{noun} {x} is outside 0..{top} ({limit})")
    return x


def _read_grid(ring, doc: dict, make) -> Read:
    """A matrix or simplex-matrix document over ``ring``, read: ``build(
    *args)`` is ``make(rows, *args)``.  A row over Q or Q[...] is refused
    once its digits pass what building it leaves room for."""
    n = _declared_int(doc)
    grid = doc["entries"]
    if not (isinstance(grid, list) and len(grid) == n
            and all(isinstance(r, list) and len(r) == n for r in grid)):
        raise ValueError("entry grid does not match declared size")
    build, degrees, terms, pairs = _read_scalars(ring, sum(grid, []))

    def build_rows(*args):
        flat = build()
        return make([flat[k * n:(k + 1) * n] for k in range(n)], *args)
    read = Read(ring, n, degrees + [0], terms, build_rows)
    read.degs = _largest_sums([max(degrees[k * n:k * n + n]) for k in
                               range(n)], [max(degrees[k::n]) for k in
                                           range(n)])
    if pairs is not None:
        cap = _digit_cap(read, n * n + terms)
        digits = [_row_digits(list(chain(*pairs[k * n:k * n + n])), cap)
                  for k in range(n)]
        read.b, read.digs = max(digits + [0]), _largest_sums(digits)
    return read


def read_matrix(doc: dict) -> Read:
    """A matrix or path document, read but not built; ``build(check_det)``
    makes its ``GroupMatrix``, leaving the determinant to the caller when
    ``check_det`` is false."""
    ring = parse_ring(doc["ring"])
    return _read_grid(ring, doc, lambda rows, check_det=True: GroupMatrix(
        ring, rows, _checked=not check_det))


def _priced(read: Read):
    """What ``read`` builds, priced for its own load."""
    check_document_cost([read])
    return read.build()


def matrix_from_json(doc: dict) -> GroupMatrix:
    """A matrix document, priced for its own load."""
    return _priced(read_matrix(doc))


def path_to_json(path: PathMatrix) -> dict:
    return matrix_to_json(path.matrix, schema=SCHEMA_PATH)


def path_from_json(doc: dict) -> PathMatrix:
    """A path document, priced for its own load."""
    return PathMatrix(matrix_from_json(doc))


# ---------------------------------------------------------------------------
# Steinberg words
# ---------------------------------------------------------------------------

def word_to_json(w: SteinbergWord) -> dict:
    return {
        "schema": SCHEMA_WORD,
        "n": w.n,
        "ring": w.ring.descriptor(),
        "letters": [[i, j, scalar_to_json(w.ring, param), 1]
                    for (i, j), param in w.letters],
    }


def read_word(doc: dict) -> Read:
    """A word document, read.  Its product, of total degree at most the
    sum D of the letter degrees, may have C(D + v, v) terms in v variables,
    at most ``MAX_SIMPLEX_TERMS``; over Q or Q[...] its letters' digits,
    each over its own denominator, are refused once past what multiplying
    out leaves room for."""
    n = _declared_int(doc)
    ring = parse_ring(doc["ring"])
    items = doc["letters"]
    for item in items:
        if not (isinstance(item, list) and len(item) in (3, 4)):
            raise ValueError(f"bad word letter {item!r}")
    build, degrees, terms, pairs = _read_scalars(ring, [x[2] for x in items])
    read = Read(ring, n, [sum(degrees)], terms, lambda: SteinbergWord(
        ring, n, [((x[0], x[1]), param, x[3] if len(x) == 4 else 1)
                  for x, param in zip(items, build())]))
    v, read.word = read.m, True
    if comb(min(read.d, MAX_SIMPLEX_TERMS) + v, v) > MAX_SIMPLEX_TERMS:
        raise ValueError(
            f"word multiplies out to more than {MAX_SIMPLEX_TERMS} terms "
            f"(MAX_SIMPLEX_TERMS, counted as C(D + v, v) for letter degrees "
            f"summing to D in v variables) with v = {v}, D = {read.d}")
    cap = _digit_cap(read, n * comb(read.d + v, v) * terms)
    for cs in pairs or ():
        read.b += _row_digits(cs, cap - read.b)
    return read


def word_from_json(doc: dict) -> SteinbergWord:
    """A word document, priced with multiplying it out."""
    return _priced(read_word(doc))


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
# level lower.  A word's letters are also counted together as one
# polynomial of their summed degree, the most its product can reach (see
# ``read_word``): in ten variables that admits 5 linear letters (0.06 s),
# where 18 took 15-29 s to multiply out.
MAX_SIMPLEX_TERMS = 5000


def _bounded_terms(ring: PolyRing, docs: list):
    """Exponent vector -> coefficient for each encoded polynomial of one
    document, each coefficient over Q a ``_q_pair``; in one variable over
    Q or F_p the key is the exponent alone, and over F_p the coefficient
    an int in [0, p).  Returns (those dicts, their total degrees, their
    term bound), refused before any polynomial is built when the term
    bound exceeds ``MAX_SIMPLEX_TERMS``."""
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
    degrees = [(max(t) if dense else max(map(sum, t))) if t else 0
               for t in out]
    bound = 0
    for t, deg in zip(out, degrees):
        if t:
            bound += comb(min(deg, MAX_SIMPLEX_TERMS) + nvars, nvars)
            if bound > MAX_SIMPLEX_TERMS:
                raise ValueError(
                    f"document exceeds {MAX_SIMPLEX_TERMS} terms "
                    f"(MAX_SIMPLEX_TERMS, counted as C(deg + v, v) per "
                    f"polynomial in v variables): {bound} reached with "
                    f"v = {nvars}, largest degree {max(degrees)}")
    return out, degrees, bound


def simplex_poly_to_json(sp: SimplexPoly) -> dict:
    return {
        "schema": SCHEMA_SIMPLEX_POLY,
        "level": sp.level,
        "field": sp.field.descriptor(),
        "poly": scalar_to_json(sp.poly.ring, sp.poly),
    }


def simplex_poly_from_json(doc: dict) -> SimplexPoly:
    level = _declared_int(doc, "level", "simplex level", "MAX_SIMPLEX_LEVEL")
    field = parse_ring(doc["field"])
    poly, = _read_scalars(simplex_ring(field, level), [doc["poly"]])[0]()
    return SimplexPoly(field, level, poly)


def simplex_matrix_to_json(sm: SimplexMatrix) -> dict:
    return {
        "schema": SCHEMA_SIMPLEX_MATRIX,
        "level": sm.level,
        "n": sm.n,
        "field": sm.field.descriptor(),
        "entries": [[scalar_to_json(sm.matrix.ring, x) for x in row]
                    for row in sm.matrix.rows],
    }


def read_simplex_matrix(doc: dict) -> Read:
    """A simplex-matrix document, read but not built."""
    level = _declared_int(doc, "level", "simplex level", "MAX_SIMPLEX_LEVEL")
    ring = simplex_ring(parse_ring(doc["field"]), level)
    return _read_grid(ring, doc, lambda rows: SimplexMatrix(
        ring.base, level, GroupMatrix(ring, rows)))


def simplex_matrix_from_json(doc: dict) -> SimplexMatrix:
    """A simplex-matrix document, priced for its own load."""
    return _priced(read_simplex_matrix(doc))
