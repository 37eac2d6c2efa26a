"""Seeded workload generators for the chevloops benchmark.

Each ``make_<workload>(cl, seed, workdir)`` returns a ``Workload``: a fixed
schedule of items, each a ``(kind, thunk)`` pair.  Calling a thunk runs one
operation against chevloops, checks its result against an answer known by
construction, and returns a canonical string of the observable result (the
material for the run's result digest).  A wrong answer raises ``Mismatch``.

The schedule (item count, kinds, ring, matrix size, letter and term counts)
is the same for every seed; the seed only draws the scalars, roots and
conjugating matrices.  Every call into chevloops goes through a module
attribute looked up at call time (``cl.loops.c_loop``), so the tracer can
replace those attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction


class Mismatch(Exception):
    """An operation returned something other than the known answer."""


def expect(cond, what: str):
    if not cond:
        raise Mismatch(what)


class Workload:
    def __init__(self, name: str, items: list, warmup: list):
        self.name = name
        self.items = items      # [(kind, thunk)], one pass of the schedule
        self.warmup = warmup    # thunks run once, untimed, before timing


def all_roots(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
            if i != j]


def random_unit(rng, field, cl):
    if field is cl.rings.QQ:
        return Fraction(rng.choice([k for k in range(-12, 13) if k]),
                        rng.randint(1, 12))
    return rng.choice(field.units())


def random_scalar(rng, field, cl):
    if field is cl.rings.QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return field(rng.randrange(field.q))


def random_nonzero(rng, field, cl):
    while True:
        x = random_scalar(rng, field, cl)
        if field.is_unit(x):
            return field(x)


def random_poly(rng, ring, cl, degrees):
    """One term of each total degree in ``degrees``, on randomly chosen
    variables, with nonzero coefficients: the term count and degrees do
    not depend on the seed."""
    nvars = len(ring.variables)
    out = {}
    for deg in degrees:
        exp = [0] * nvars
        for _ in range(deg):
            exp[rng.randrange(nvars)] += 1
        out[tuple(exp)] = random_nonzero(rng, ring.base, cl)
    return cl.rings.Poly(ring, out)


def lu_roots(n: int, band: int | None = None):
    """Every root below the diagonal, then every root above it, optionally
    only those within ``band`` of the diagonal.  With nonzero parameters
    the product x_L x_U is fully dense (banded for ``band``), so a
    document's cost depends on its size and not on the seed."""
    near = [r for r in all_roots(n)
            if band is None or abs(r[0] - r[1]) <= band]
    return ([r for r in near if r[0] > r[1]]
            + [r for r in near if r[0] < r[1]])


def _kinds_first(items):
    """The first item of every kind, in schedule order (the warm-up set)."""
    seen, out = set(), []
    for kind, thunk in items:
        if kind not in seen:
            seen.add(kind)
            out.append(thunk)
    return out


# ---------------------------------------------------------------------------
# loops_kT: symbol loops, factorization and lifting over k[T]
# ---------------------------------------------------------------------------

def _symbol_item(cl, field, n, root, u, v):
    i, j = root

    def run():
        c = cl.loops.c_loop(root, u, v, n, field)
        h = cl.loops.h_loop(root, u, n, field)
        at0, at1 = c.endpoints()
        expect(at0.is_identity() and at1.is_identity(),
               "C_T(u,v) endpoints are not the identity")
        expect(c.is_loop(), "C_T(u,v) is not a loop")
        expect(h.is_path(), "H_T(u) does not start at the identity")
        expect(not h.is_loop(), "H_T(u) with u != 1 reported as a loop")
        hu = h.at(1).rows
        uinv = field.invert(u)
        for r in range(n):
            for s in range(n):
                want = (u if r == s == i - 1 else uinv if r == s == j - 1
                        else field.one if r == s else field.zero)
                expect(hu[r][s] == want, "H_T(u)(1) is not h(u)")
        factors = cl.factorization.factor_elementary(c.matrix)
        expect(cl.factorization.multiply_factors(c.ring, n, factors)
               == c.matrix, "factors do not re-multiply to C_T(u,v)")
        word = cl.factorization.path_to_steinberg(c)
        expect(cl.steinberg.in_k2(word), "lifted symbol loop is not in K2")
        back = cl.factorization.word_to_path(word)
        expect(back.is_loop(), "word_to_path of a K2 word is not a loop")
        return f"sym:{len(factors)}:{word.reduced_length}"
    return run


def _product_item(cl, m, is_loop):
    def run():
        ring, n = m.ring, m.n
        factors = cl.factorization.factor_elementary(m)
        expect(cl.factorization.multiply_factors(ring, n, factors) == m,
               "factors do not re-multiply to the input")
        path = cl.loops.PathMatrix(m)
        word = cl.factorization.path_to_steinberg(path)
        expect(word.project() == path.at(1), "lifted word misses y(1)")
        if is_loop:
            expect(path.is_loop(), "T(1-T)-scaled product is not a loop")
            expect(cl.steinberg.in_k2(word), "lifted loop is not in K2")
        return f"prod:{len(factors)}:{word.reduced_length}"
    return run


def make_loops_kT(cl, seed: int, workdir: str) -> Workload:
    rng = random.Random(f"loops_kT:{seed}")
    QQ, GF = cl.rings.QQ, cl.rings.GF
    items = []
    for _ in range(3):
        for field in (QQ, GF(7)):
            for n in (2, 3, 4):
                for _ in range(4):
                    root = rng.choice(all_roots(n))
                    u = random_unit(rng, field, cl)
                    while u == field.one:
                        u = random_unit(rng, field, cl)
                    v = random_unit(rng, field, cl)
                    items.append(("symbol", _symbol_item(
                        cl, field, n, root, u, v)))
            # criterion-4-style products in SL3 over k[T], on a fixed root
            # pattern so their degrees do not depend on the seed
            ring = cl.loops.path_ring(field)
            t = ring.gen("T")
            for rounds in (1, 2, 1, 2, 1, 2):
                letters = [(root, t * random_poly(rng, ring, cl, (0, 1)))
                           for root in lu_roots(3) * rounds]
                m = cl.chevalley.product_of_elementaries(ring, 3, letters)
                items.append(("product", _product_item(cl, m, False)))
            for rounds in (1, 2, 1, 2):
                letters = [(root, t * (ring.one - t)
                            * ring(random_nonzero(rng, field, cl)))
                           for root in lu_roots(3) * rounds]
                m = cl.chevalley.product_of_elementaries(ring, 3, letters)
                items.append(("loop_product", _product_item(cl, m, True)))
    return Workload("loops_kT", items, _kinds_first(items))


# ---------------------------------------------------------------------------
# simplex_kDn: face/degeneracy identities and homotopy witnesses in k[D^n]
# ---------------------------------------------------------------------------

def _identities_item(cl, sp):
    def run():
        face, degeneracy = cl.simplicial.face, cl.simplicial.degeneracy
        level = sp.level
        checked = 0
        if level >= 2:                          # d_i d_j = d_{j-1} d_i
            for i in range(level):
                for j in range(i + 1, level + 1):
                    expect(face(i, face(j, sp)) == face(j - 1, face(i, sp)),
                           f"d{i} d{j} != d{j - 1} d{i}")
                    checked += 1
        for i in range(level + 1):              # s_i s_j = s_{j+1} s_i
            for j in range(i, level + 1):
                expect(degeneracy(i, degeneracy(j, sp))
                       == degeneracy(j + 1, degeneracy(i, sp)),
                       f"s{i} s{j} != s{j + 1} s{i}")
                checked += 1
        for i in range(level + 2):              # d_i s_j, three cases
            for j in range(level + 1):
                lhs = face(i, degeneracy(j, sp))
                if i == j or i == j + 1:
                    rhs = sp
                elif i < j:
                    rhs = degeneracy(j - 1, face(i, sp))
                else:
                    rhs = degeneracy(j, face(i - 1, sp))
                expect(lhs == rhs, f"d{i} s{j} identity fails")
                checked += 1
        return f"ident:{level}:{checked}"
    return run


def _witness(cl, rng, field, n: int, sigma_roots, loop_roots):
    """A level-2 witness sigma with d1 = d2 = 1 and d0 = D, a loop L, the
    loop D*L, and a perturbed sigma whose d0 is not D.

    sigma multiplies out x_a(X1 X2 h_a(X2)); d1 and d2 kill X1 X2, and d0
    (X1 -> 1 - X1, X2 -> X1) sends each parameter to (1 - X1) X1 h_a(X1),
    so D is built from those letters directly.
    """
    r2 = cl.simplicial.simplex_ring(field, 2)
    r1 = cl.simplicial.simplex_ring(field, 1)
    poe = cl.chevalley.product_of_elementaries
    x1, x2 = r2.gen("X1"), r2.gen("X2")
    y = r1.gen("X1")
    sig, dee, ell = [], [], []
    for root in sigma_roots:
        c0 = random_scalar(rng, field, cl)
        c1 = random_nonzero(rng, field, cl)
        sig.append((root, x1 * x2 * (r2(c0) + r2(c1) * x2)))
        dee.append((root, (r1.one - y) * y * (r1(c0) + r1(c1) * y)))
    for root in loop_roots:
        g0 = random_nonzero(rng, field, cl)
        ell.append((root, y * (r1.one - y) * r1(g0)))
    bad = sig + [(rng.choice(all_roots(n)),
                  x1 * x2 * r2(random_nonzero(rng, field, cl)))]
    SM = cl.simplicial.SimplexMatrix
    sigma = SM(field, 2, poe(r2, n, sig))
    sigma_bad = SM(field, 2, poe(r2, n, bad))
    d0 = poe(r1, n, dee)
    loop_from = poe(r1, n, ell)
    loop_to = SM(field, 1, d0 * loop_from)
    return sigma, sigma_bad, SM(field, 1, loop_from), loop_to, SM(field, 1, d0)


def _witness_item(cl, sigma, sigma_bad, loop_from, loop_to):
    def run():
        verify = cl.simplicial.verify_homotopy_witness
        expect(verify(sigma, loop_from, loop_to),
               "a true homotopy witness was rejected")
        expect(not verify(sigma_bad, loop_from, loop_to),
               "a perturbed homotopy witness was accepted")
        return f"witness:{sigma.n}"
    return run


def make_simplex_kDn(cl, seed: int, workdir: str) -> Workload:
    rng = random.Random(f"simplex_kDn:{seed}")
    QQ, GF = cl.rings.QQ, cl.rings.GF
    items = []
    for _ in range(9):
        for field in (QQ, GF(7)):
            for level in (1, 2, 3, 4):
                ring = cl.simplicial.simplex_ring(field, level)
                sp = cl.simplicial.SimplexPoly(
                    field, level, random_poly(rng, ring, cl, (0, 1, 2)))
                items.append(("identities", _identities_item(cl, sp)))
            for n in (2, 3):
                roots = [rng.choice(all_roots(n)) for _ in range(2)]
                sigma, bad, lf, lt, _ = _witness(cl, rng, field, n, roots,
                                                 roots)
                items.append(("witness", _witness_item(cl, sigma, bad,
                                                       lf, lt)))
    return Workload("simplex_kDn", items, _kinds_first(items))


# ---------------------------------------------------------------------------
# oracles_h2: Schur multipliers, Milnor K2 of finite fields, tame symbols
# ---------------------------------------------------------------------------

def _diag(cl, field, values):
    zero = field.zero
    n = len(values)
    return cl.chevalley.GroupMatrix(
        field, [[field(values[r]) if r == s else zero for s in range(n)]
                for r in range(n)])


def _perm(cl, field, images):
    """Permutation matrix sending basis vector k to basis vector images[k]."""
    n = len(images)
    one, zero = field.one, field.zero
    return cl.chevalley.GroupMatrix(
        field, [[one if images[s] == r else zero for s in range(n)]
                for r in range(n)])


def _element_of_order(field, k: int):
    return next(x for x in field.units()
                if x ** k == field.one
                and all(x ** d != field.one for d in range(1, k)))


# (label, expected invariant factors, expected order, generator factory)
def _groups(cl):
    GF = cl.rings.GF
    out = []
    cyclic_fields = {2: 3, 3: 7, 4: 5, 5: 11, 6: 7, 7: 8, 8: 9, 9: 19,
                     10: 11, 11: 23, 12: 13}
    out.append(("C1", [], 1, lambda: [_diag(cl, GF(2), [1, 1])]))
    for k, q in cyclic_fields.items():
        def gens(k=k, q=q):
            f = GF(q)
            z = _element_of_order(f, k)
            return [_diag(cl, f, [z, z.inverse()])]
        out.append((f"C{k}", [], k, gens))
    f3 = GF(3)
    out.append(("klein_four", [2], 4, lambda: [
        _diag(cl, f3, [2, 2, 1]), _diag(cl, f3, [1, 2, 2])]))
    out.append(("Q8", [], 8, lambda: [
        cl.chevalley.GroupMatrix(f3, [[0, 2], [1, 0]]),
        cl.chevalley.GroupMatrix(f3, [[1, 1], [1, 2]])]))
    f2 = GF(2)
    out.append(("A4", [2], 12, lambda: [
        _perm(cl, f2, [1, 2, 0, 3]), _perm(cl, f2, [1, 0, 3, 2])]))
    out.append(("Z2^3", [2, 2, 2], 8, lambda: [
        _diag(cl, f3, [2, 2, 1, 1]), _diag(cl, f3, [1, 2, 2, 1]),
        _diag(cl, f3, [1, 1, 2, 2])]))
    f5 = GF(5)
    out.append(("Z4xZ4", [4], 16, lambda: [
        _diag(cl, f5, [2, 1, 3]), _diag(cl, f5, [1, 2, 3])]))
    return out


def _conjugate(cl, rng, gens):
    """Conjugate every generator by one seeded element of SL_n(F_q)."""
    field, n = gens[0].ring, gens[0].n
    letters = [(rng.choice(all_roots(n)), random_scalar(rng, field, cl))
               for _ in range(3 * n)]
    g = cl.chevalley.product_of_elementaries(field, n, letters)
    g_inv = g.inverse()
    return [g * x * g_inv for x in gens]


def _schur_item(cl, label, gens, factors, order):
    def run():
        pres = cl.oracles.schur_multiplier(gens)
        expect(pres.metadata["group_order"] == order,
               f"{label}: enumerated the wrong group order")
        expect(pres.invariant_factors == factors and pres.free_rank == 0,
               f"{label}: H2 is not {factors}")
        return f"schur:{label}:{pres.invariant_factors}"
    return run


def _milnor_item(cl, q):
    def run():
        pres = cl.oracles.milnor_k2_finite_field(q)
        expect(pres.is_trivial(), f"K2(F_{q}) is not trivial")
        expect(len(pres.generators) == (q - 1) ** 2,
               f"K2(F_{q}) presentation has the wrong generator count")
        return f"k2:{q}:{len(pres.snf_diagonal)}"
    return run


def _valuation(x: int, p: int):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return x, v


def reference_tame(a: Fraction, b: Fraction, p: int) -> int:
    """(-1)^(v(a) v(b)) a^v(b) / b^v(a) mod p, from the definition."""
    na, va1 = _valuation(a.numerator, p)
    da, va2 = _valuation(a.denominator, p)
    nb, vb1 = _valuation(b.numerator, p)
    db, vb2 = _valuation(b.denominator, p)
    va, vb = va1 - va2, vb1 - vb2
    ua = na * pow(da, -1, p) % p
    ub = nb * pow(db, -1, p) % p
    return (-1) ** (va * vb) * pow(ua, vb, p) * pow(ub, -va, p) % p


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13]
_PRIMES_TO_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def _is_prime_reference(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _random_prime(rng, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if _is_prime_reference(n):
            return n


def _tame_item(cl, triples, primes, steinberg):
    def run():
        tame = cl.oracles.tame_symbol
        acc = 0
        for a, b, c in triples:
            for p in primes:
                ab_c = tame(a * b, c, p)
                a_c, b_c = tame(a, c, p), tame(b, c, p)
                expect(ab_c == a_c * b_c % p, f"bilinearity fails at {p}")
                a_b, b_a = tame(a, b, p), tame(b, a, p)
                expect(a_b * b_a % p == 1, f"antisymmetry fails at {p}")
                expect(a_b == reference_tame(a, b, p),
                       f"tau_{p}({a},{b}) disagrees with the definition")
                acc = (acc * 31 + a_b) % 1000000007
        for u, p in steinberg:
            expect(tame(u, 1 - u, p) == 1, f"tau_{p}({{{u},1-{u}}}) != 1")
        expect(tame(2, 3, 3) == 2, "tau_3({2,3}) != 2")
        return f"tame:{acc}"
    return run


def make_oracles_h2(cl, seed: int, workdir: str) -> Workload:
    rng = random.Random(f"oracles_h2:{seed}")
    QQ = cl.rings.QQ
    schur = [("schur", _schur_item(cl, label, _conjugate(cl, rng, build()),
                                   factors, order))
             for label, factors, order, build in _groups(cl)]
    milnor = [("milnor", _milnor_item(cl, q))
              for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]
    tame = []
    for _ in range(75):
        triples = [tuple(random_unit(rng, QQ, cl) for _ in range(3))
                   for _ in range(8)]
        primes = _SMALL_PRIMES + [_random_prime(rng, 999_000, 1_000_000)]
        steinberg = [(rng.randint(2, 200), rng.choice(_PRIMES_TO_97))
                     for _ in range(10)]
        tame.append(("tame", _tame_item(cl, triples, primes, steinberg)))
    # interleave so the expensive Schur items are spread over the pass
    items = []
    rest = milnor + tame
    per = len(rest) // len(schur)
    for k, item in enumerate(schur):
        items.append(item)
        items.extend(rest[k * per:(k + 1) * per])
    items.extend(rest[len(schur) * per:])
    return Workload("oracles_h2", items, _kinds_first(items))


# ---------------------------------------------------------------------------
# documents_cli: the JSON read path through cli.main
# ---------------------------------------------------------------------------

class _Docs:
    """Writes the generated documents into ``workdir``."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def put(self, doc) -> str:
        path = os.path.join(self.workdir, f"doc{self.count:04d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def _cli_item(cl, argv, check):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cl.cli.main(list(argv))
        text = buf.getvalue()
        expect(code == 0, f"{argv[0]} exited {code}: {text.strip()}")
        check(json.loads(text))
        return f"{argv[0]}:{text}"
    return run


def _identity_json(cl, ring, n):
    return cl.serialize.matrix_to_json(
        cl.chevalley.GroupMatrix.identity(ring, n))


def _dense_product(cl, rng, ring, n, loop: bool, band=None):
    """x_L x_U over k[T] with parameters c*T (a path) or c*T(1-T) (a loop)."""
    t = ring.gen("T")
    scale = t * (ring.one - t) if loop else t
    letters = [(root, scale * ring(random_nonzero(rng, ring.base, cl)))
               for root in lu_roots(n, band)]
    return cl.chevalley.product_of_elementaries(ring, n, letters)


# Band of the x_L x_U documents by size: fully dense (None) where a load's
# cofactor determinant check stays under about half a second.
PATH_BAND = {3: None, 4: None, 5: None, 6: None, 7: 1}
LOOP_BAND = {3: None, 4: None, 5: None, 6: 2, 7: 1}


def make_documents_cli(cl, seed: int, workdir: str) -> Workload:
    rng = random.Random(f"documents_cli:{seed}")
    QQ, GF = cl.rings.QQ, cl.rings.GF
    ser = cl.serialize
    docs = _Docs(workdir)
    items = []

    def add(kind, argv, check):
        items.append((kind, _cli_item(cl, argv, check)))

    for field in (QQ, GF(7)):
        ring = cl.loops.path_ring(field)
        for n in (3, 4, 5, 6, 7):
            one_at = _identity_json(cl, field, n)

            loop = _dense_product(cl, rng, ring, n, True, LOOP_BAND[n])
            loop_doc = docs.put(ser.path_to_json(cl.loops.PathMatrix(loop)))

            def verify_loop(out, one_at=one_at):
                expect(out["is_path"] and out["is_loop"],
                       "a T(1-T)-scaled product is not reported as a loop")
                expect(out["endpoints"]["at1"] == one_at,
                       "loop endpoint at T=1 is not the identity")
            add("verify-loop", ["verify-loop", "--in", loop_doc],
                verify_loop)
            add("lift", ["lift", "--in", loop_doc], lambda out: expect(
                out["is_k2"], "a lifted loop is not in K2"))

            path = _dense_product(cl, rng, ring, n, False, PATH_BAND[n])
            path_json = ser.matrix_to_json(path)
            path_doc = docs.put(path_json)

            def factor(out, ring=ring, n=n, path_json=path_json):
                facs = [((i, j), ser.scalar_from_json(ring, x))
                        for i, j, x in out["factors"]]
                expect(out["count"] == len(facs), "factor count mismatch")
                back = cl.factorization.multiply_factors(ring, n, facs)
                expect(ser.matrix_to_json(back) == path_json,
                       "factors do not re-multiply to the document")
            add("factor", ["factor", "--in", path_doc], factor)

            a = _dense_product(cl, rng, ring, n, False, LOOP_BAND[n])
            b = _dense_product(cl, rng, ring, n, False, LOOP_BAND[n])
            ident_doc = docs.put({"lhs": [ser.matrix_to_json(a),
                                          ser.matrix_to_json(b)],
                                  "rhs": [ser.matrix_to_json(a * b)]})
            add("verify-identity", ["verify-identity", "--in", ident_doc],
                lambda out: expect(out["equal"] and
                                   out["first_difference"] is None,
                                   "A*B = (AB) was refuted"))

        for n in (3, 4, 5):
            root = rng.choice(all_roots(n))
            u = random_unit(rng, field, cl)
            while u == field.one:
                u = random_unit(rng, field, cl)
            h = cl.loops.h_loop(root, u, n, field)
            i, j = root
            hu = [[u if r == s == i - 1 else field.invert(u)
                   if r == s == j - 1 else field.one if r == s
                   else field.zero for s in range(n)] for r in range(n)]
            want = ser.matrix_to_json(cl.chevalley.GroupMatrix(field, hu))

            def h_path(out, want=want):
                expect(out["is_path"] and not out["is_loop"],
                       "H_T(u), u != 1, is reported as a loop")
                expect(out["endpoints"]["at1"] == want,
                       "H_T(u)(1) is not h(u)")
            add("verify-loop", ["verify-loop", "--in",
                                docs.put(ser.path_to_json(h))], h_path)

            w = cl.loops.w_loop(root, u, n, field)
            w_neg = cl.loops.w_loop(root, -u, n, field)
            doc = docs.put({"lhs": [ser.path_to_json(w),
                                    ser.path_to_json(w_neg)],
                            "rhs": [ser.path_to_json(
                                cl.loops.identity_path(field, n))]})
            add("verify-identity", ["verify-identity", "--in", doc],
                lambda out: expect(out["equal"], "W(u)W(-u) = 1 refuted"))

        for n in (3, 4, 5, 6):
            u, v = random_unit(rng, field, cl), random_unit(rng, field, cl)
            word = cl.steinberg.symbol_word(rng.choice(all_roots(n)), u, v,
                                            n, field)
            add("k2-check", ["k2-check", "--in",
                             docs.put(ser.word_to_json(word))],
                lambda out: expect(out["projection_is_identity"],
                                   "a symbol word does not project to 1"))
        for n in (3, 4):
            single = cl.steinberg.SteinbergWord(
                field, n, [(rng.choice(all_roots(n)),
                            random_nonzero(rng, field, cl))])
            add("k2-check", ["k2-check", "--in",
                             docs.put(ser.word_to_json(single))],
                lambda out: expect(not out["projection_is_identity"],
                                   "a one-letter word projects to 1"))

        for n in (3, 4):
            sigma_roots = [rng.choice(all_roots(n)) for _ in range(3)]
            sigma, bad, lf, lt, d0 = _witness(cl, rng, field, n,
                                              sigma_roots, lu_roots(n))
            s_doc = docs.put(ser.simplex_matrix_to_json(sigma))
            b_doc = docs.put(ser.simplex_matrix_to_json(bad))
            f_doc = docs.put(ser.simplex_matrix_to_json(lf))
            t_doc = docs.put(ser.simplex_matrix_to_json(lt))
            r1 = cl.simplicial.simplex_ring(field, 1)
            one1 = ser.simplex_matrix_to_json(cl.simplicial.SimplexMatrix(
                field, 1, cl.chevalley.GroupMatrix.identity(r1, n)))
            d0_json = ser.simplex_matrix_to_json(d0)

            def homotopy(out, one1=one1, d0_json=d0_json):
                expect(out["certified"], "a true witness was rejected")
                faces = out["faces"]
                expect(faces["d1"] == one1 and faces["d2"] == one1,
                       "witness faces d1, d2 are not the identity")
                expect(faces["d0"] == d0_json, "witness face d0 is not D")
            add("verify-homotopy", ["verify-homotopy", "--sigma", s_doc,
                                    "--from", f_doc, "--to", t_doc],
                homotopy)
            add("verify-homotopy", ["verify-homotopy", "--sigma", b_doc,
                                    "--from", f_doc, "--to", t_doc],
                lambda out: expect(not out["certified"],
                                   "a perturbed witness was accepted"))
            for k, want in ((0, d0_json), (1, one1), (2, one1)):
                add("simplicial-face", ["simplicial-face", "--i", str(k),
                                        "--in", s_doc],
                    lambda out, want=want: expect(
                        out == want, "face of a witness is wrong"))

        for level in (1, 2, 3, 4) * 2:
            ring_l = cl.simplicial.simplex_ring(field, level)
            sp = cl.simplicial.SimplexPoly(
                field, level, random_poly(rng, ring_l, cl, (0, 1, 2, 3)))
            k = rng.randint(0, level)
            want = ser.simplex_poly_to_json(cl.simplicial.face(k, sp))
            add("simplicial-face", ["simplicial-face", "--i", str(k), "--in",
                                    docs.put(ser.simplex_poly_to_json(sp))],
                lambda out, want=want: expect(
                    out == want, "CLI face differs from the API face"))

    # the non-identity of criterion 3: H(2)H(3) = H(3)H(2) must be refuted
    h2 = cl.loops.h_loop((1, 2), 2, 3, QQ)
    h3 = cl.loops.h_loop((1, 2), 3, 3, QQ)
    doc = docs.put({"lhs": [ser.path_to_json(h2), ser.path_to_json(h3)],
                    "rhs": [ser.path_to_json(h3), ser.path_to_json(h2)]})
    add("verify-identity", ["verify-identity", "--in", doc],
        lambda out: expect(not out["equal"] and out["first_difference"],
                           "H(2)H(3) = H(3)H(2) was not refuted"))
    return Workload("documents_cli", items, _kinds_first(items))


WORKLOADS = {
    "loops_kT": make_loops_kT,
    "simplex_kDn": make_simplex_kDn,
    "oracles_h2": make_oracles_h2,
    "documents_cli": make_documents_cli,
}
