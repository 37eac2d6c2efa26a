"""Differential tests: the dense k[T] reader and writer against the
term-dict forms.

The reference reader is the decoding the dense one replaced: every
coefficient is read by ``scalar_from_json`` into a ``Fraction`` or an
``FqElement``, collected in a term dict and handed to ``Poly(ring,
terms)``.  On any encoded polynomial over Q[T], F_7[T], F_9[T] and
Q[X1,X2] both must give the same stored form (``_c`` and ``_d``) or the
same exception type and message, and so must the polynomials of one
document, counted together against MAX_SIMPLEX_TERMS.  On any rational
encoding ``serialize._q_pair`` must give the reduced numerator and
denominator of ``scalar_from_json(QQ, ...)``, or its error.  The
reference writer is the generic one over ``Poly.terms``.
"""

from fractions import Fraction
from math import comb

import pytest

from chevloops import GF, Poly, PolyRing, QQ
from chevloops import serialize as ser

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

CHECK = settings(max_examples=30, deadline=None, derandomize=True,
                 database=None)

RINGS = {
    "Q[T]": PolyRing(QQ, ("T",)),
    "F7[T]": PolyRing(GF(7), ("T",)),
    "F9[T]": PolyRing(GF(9), ("T",)),
    "Q[X1,X2]": PolyRing(QQ, ("X1", "X2")),
}


def _reference_terms(ring, doc) -> dict:
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
                and all(isinstance(k, int) and not isinstance(k, bool)
                        and k >= 0 for k in exp)):
            raise ValueError(f"bad exponent vector {exp!r}")
        terms[tuple(exp)] = ser.scalar_from_json(ring.base, coeff)
    return terms


def _reference_polys(ring, docs: list) -> list:
    """The polynomials of one document, refused past MAX_SIMPLEX_TERMS
    before any is built."""
    terms = [_reference_terms(ring, d) for d in docs]
    nvars = len(ring.variables)
    bound = 0
    for t in terms:
        if t:
            deg = max(map(sum, t))
            bound += comb(min(deg, ser.MAX_SIMPLEX_TERMS) + nvars, nvars)
            if bound > ser.MAX_SIMPLEX_TERMS:
                raise ValueError(
                    f"document exceeds {ser.MAX_SIMPLEX_TERMS} terms "
                    f"(MAX_SIMPLEX_TERMS, counted as C(deg + v, v) per "
                    f"polynomial in v variables) with v = {nvars}, "
                    f"degree {deg}")
    return [Poly(ring, t) for t in terms]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return "error", type(exc), str(exc)


def _stored(fn, ring, docs):
    out = _outcome(fn, ring, docs)
    return ("ok", [(f._c, f._d) for f in out[1]]) if out[0] == "ok" else out


SPELLINGS = [
    "2/4", "-0", "+3", " 7", "7 ", "1_0", "1e3", "1.5", "3/0", "1/0",
    "-1/0", "0/5", "0/1", "007", "-007/010", "3/-4", "-3/4", "--3", "-",
    "/", "1/", "/2", "", "\u0661\u0662", "\u0663/\u0664", "\u00b2",
    "1/" + "3" * 65, "9" * 5000, "-" + "9" * 5000, "1/" + "9" * 5000,
    "1e99999", "nan", "inf"]
ODD_VALUES = [True, False, 1.5, [], [7], [7, 1], [True], [1.0], None, {},
              [[7]], 2 ** 70]
FIELD_SPELLINGS = ["3", [1, 2, 3], [-1], [2, True], [0], [7], 0, -8]
RATIONALS = st.one_of(
    st.sampled_from(SPELLINGS + ODD_VALUES),
    st.integers(-10 ** 70, 10 ** 70),
    st.integers(-10 ** 70, 10 ** 70).map(str),
    st.tuples(st.integers(-30, 30), st.integers(-30, 30)).map(
        lambda nd: f"{nd[0]}/{nd[1]}"))
FIELD_VALUES = st.one_of(
    st.integers(-20, 20), st.lists(st.integers(-20, 20), max_size=3),
    st.sampled_from(ODD_VALUES + FIELD_SPELLINGS))
EXPONENTS = st.one_of(st.integers(0, 6), st.integers(-2, -1),
                      st.booleans(), st.sampled_from([10 ** 5, 1.0, "1"]))


@st.composite
def _encoded_poly(draw, ring):
    """An encoded polynomial, mostly well formed: duplicate exponents,
    zero coefficients and every odd spelling above among its terms."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([5, "x", None, {}, [[]], [[[0]]],
                                     [[[0], "1", 2]], ["x"]]))
    nvars = len(ring.variables)
    coeffs = RATIONALS if ring.base is QQ else FIELD_VALUES
    coeffs = st.one_of(coeffs, st.sampled_from([0, "0", [0], [7]]))
    exps = st.one_of(st.lists(EXPONENTS, min_size=nvars, max_size=nvars),
                     st.sampled_from([[], [0, 0, 0], 1, None]))
    return [list(term) for term in
            draw(st.lists(st.tuples(exps, coeffs), max_size=6))]


def _check_reader(ring, *docs):
    assert (_stored(ser._scalars_from_json, ring, list(docs))
            == _stored(_reference_polys, ring, list(docs))), docs


def _check_pair(doc):
    want = _outcome(ser.scalar_from_json, QQ, doc)
    if want[0] == "ok":
        want = "ok", (want[1].numerator, want[1].denominator)
    assert _outcome(ser._q_pair, doc) == want, doc


@pytest.mark.parametrize("name", sorted(RINGS))
def test_dense_reader_matches_the_term_dict_reader(name):
    ring = RINGS[name]
    one = [1] * len(ring.variables)
    for c in SPELLINGS + ODD_VALUES + FIELD_SPELLINGS:
        _check_reader(ring, [[one, c], [[2] + one[1:], 1]])
    for e in ([True], [-1], [False, 1], [1, -1], [True, True], [10 ** 5]):
        _check_reader(ring, [[e, 1], [[2] * len(one), 3]])
    # duplicate exponents: the last one counts, and every coefficient is
    # read
    _check_reader(ring, [[one, 5], [one, 0], [one, 4]])
    _check_reader(ring, [[one, 5], [one, 4], [one, 0]])
    _check_reader(ring, [[one, 5], [one, "x"], [one, 1]])
    # the term bound counts a document's polynomials together: one past
    # it, with every exponent vector of degree 1
    flag = [1] + [0] * (len(one) - 1)
    copies = ser.MAX_SIMPLEX_TERMS // (len(one) + 1) + 1
    _check_reader(ring, *[[[flag, 1]]] * copies)

    @CHECK
    @given(st.lists(_encoded_poly(ring), min_size=1, max_size=3))
    def check(docs):
        _check_reader(ring, *docs)
    check()


def test_q_pair_matches_the_fraction_reader():
    for doc in SPELLINGS + ODD_VALUES:
        _check_pair(doc)

    @CHECK
    @given(RATIONALS)
    def check(doc):
        _check_pair(doc)
    check()


def _generic_writer(ring, f):
    return [[list(e), ser.scalar_to_json(ring.base, c)]
            for e, c in sorted(f.terms.items(), reverse=True)]


@pytest.mark.parametrize("name", ["Q[T]", "F7[T]"])
def test_dense_writer_matches_the_terms_writer(name):
    ring = RINGS[name]
    scalars = (st.tuples(st.integers(-50, 50), st.integers(1, 12)).map(
        lambda nd: Fraction(*nd)) if ring.base is QQ
        else st.integers(0, 6).map(GF(7)))

    @CHECK
    @given(st.lists(scalars, max_size=8))
    def check(coeffs):
        f = Poly(ring, {(k,): c for k, c in enumerate(coeffs)})
        doc = ser.scalar_to_json(ring, f)
        assert doc == _generic_writer(ring, f)
        assert ser.scalar_from_json(ring, doc) == f
    check()
    # the zero polynomial, and negative numerators over d > 1
    t = ring.gen("T")
    examples = [t - t, -3 * t ** 2 + 5]
    if ring.base is QQ:
        examples.append(t * Fraction(-3, 4) + Fraction(5, 6))
    for f in examples:
        assert ser.scalar_to_json(ring, f) == _generic_writer(ring, f)
