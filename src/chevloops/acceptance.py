"""The acceptance suite: nine exact, seeded, self-timing checks.

Every check is tolerance-zero.  ``run_all(seed)`` returns one record per
criterion; the CLI's ``reproduce`` subcommand and the pytest acceptance
module both run exactly this code.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction

from .chevalley import GroupMatrix, elem, h_elem, w_elem
from .factorization import (factor_elementary, multiply_factors,
                            path_to_steinberg)
from .loops import (PathMatrix, c_loop, h_loop, identity_path, path_ring,
                    sl2_closed_form, verify_path_identity, w_loop)
from .oracles import milnor_k2_finite_field, schur_multiplier, tame_symbol
from .rings import GF, Poly, PolyRing, QQ
from .simplicial import (SimplexMatrix, SimplexPoly, degeneracy, face,
                         moore_is_loop, path_to_simplex, simplex_ring,
                         verify_homotopy_witness)
from .steinberg import SteinbergWord, in_k2, symbol_word

DEFAULT_SEED = 1729

# the clock every criterion is timed with
_clock = time.perf_counter

_PRIMES_TO_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def _random_unit(rng: random.Random, field):
    if field is QQ:
        num = rng.choice([n for n in range(-12, 13) if n != 0])
        den = rng.randint(1, 12)
        return Fraction(num, den)
    units = field.units()
    return units[rng.randrange(len(units))]


def _random_scalar(rng: random.Random, field):
    if field is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    elems = list(field.elements())
    return elems[rng.randrange(len(elems))]


def _random_poly(rng: random.Random, ring: PolyRing, max_deg: int,
                 max_terms: int = 4) -> Poly:
    nvars = len(ring.variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[exp] = ring.base(_random_scalar(rng, ring.base))
    return Poly(ring, terms)


def _all_roots(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
            if i != j]


def _diff_matrix(a: GroupMatrix, b: GroupMatrix):
    return [[str(a.rows[i][j] - b.rows[i][j]) for j in range(a.n)]
            for i in range(a.n)]


def _criterion(name: str, budget: float):
    """Turn a check ``seed -> (ok, details)`` into a criterion ``seed ->
    record``; the record passes when the check does and ran within
    ``budget`` seconds."""
    def wrap(check):
        @functools.wraps(check)
        def run(seed: int) -> dict:
            t0 = _clock()
            ok, details = check(seed)
            seconds = _clock() - t0
            return {"name": name, "passed": ok and seconds < budget,
                    "seconds": seconds, "budget_seconds": budget,
                    "details": details}
        return run
    return wrap


@_criterion("sl2 closed form equals definitional product", 1.0)
def criterion_1(seed: int):
    """SL2 closed-form reproduction over Q and F_101, 20 pairs each."""
    failures = []
    checked = 0
    for field in (QQ, GF(101)):
        rng = random.Random(str((seed, "c1", field.descriptor())))
        for _ in range(20):
            u = _random_unit(rng, field)
            v = _random_unit(rng, field)
            lhs = c_loop((1, 2), u, v, 2, field).matrix
            rhs = sl2_closed_form(u, v, field).matrix
            checked += 1
            if lhs != rhs:
                failures.append({
                    "field": field.descriptor(),
                    "u": str(u), "v": str(v),
                    "difference": _diff_matrix(lhs, rhs),
                })
    return not failures, {"pairs_checked": checked, "mismatches": failures}


@_criterion("c-loops are loops; h-paths end at h(u) and are not loops", 5.0)
def criterion_2(seed: int):
    """Loop contract for SL2/SL3/SL4, all roots, 50 unit pairs per ring."""
    bad = 0
    loops_checked = 0
    paths_checked = 0
    for n in (2, 3, 4):
        for field in (QQ, GF(7)):
            rng = random.Random(str((seed, "c2", n, field.descriptor())))
            pairs = [(_random_unit(rng, field), _random_unit(rng, field))
                     for _ in range(50)]
            for root in _all_roots(n):
                for a, b in pairs:
                    loop = c_loop(root, a, b, n, field)
                    loops_checked += 1
                    if not loop.is_loop():
                        bad += 1
            one = field.one
            for root in _all_roots(n):
                for a, _ in pairs:
                    if a == one:
                        continue
                    path = h_loop(root, a, n, field)
                    paths_checked += 1
                    if path.is_loop():
                        bad += 1
                    if path.at(1) != h_elem(root, a, n, field):
                        bad += 1
    return bad == 0, {"c_loops": loops_checked, "h_paths": paths_checked,
                      "violations": bad}


@_criterion("W(u)W(-u)=1, w(u)^-1=w(-u); H(a)H(b)=H(b)H(a) refuted", 1.0)
def criterion_3(seed: int):
    """Exact path identities and one correctly refuted non-identity."""
    ok = True
    for field in (QQ, GF(7)):
        rng = random.Random(str((seed, "c3", field.descriptor())))
        for n, root in ((2, (1, 2)), (3, (2, 3))):
            for _ in range(10):
                u = _random_unit(rng, field)
                eq, _ = verify_path_identity(
                    [w_loop(root, u, n, field), w_loop(root, -u, n, field)],
                    [identity_path(field, n)])
                ok = ok and eq
                wm = w_elem(root, u, n, field)
                ok = ok and wm.inverse() == w_elem(root, -u, n, field)
    two, three = Fraction(2), Fraction(3)
    eq, cert = verify_path_identity(
        [h_loop((1, 2), two, 2, QQ), h_loop((1, 2), three, 2, QQ)],
        [h_loop((1, 2), three, 2, QQ), h_loop((1, 2), two, 2, QQ)])
    refuted = (not eq) and cert is not None
    return ok and refuted, {
        "identities_hold": ok, "noncommutativity_refuted": refuted,
        "certificate_entry": None if cert is None else
        {"row": cert[0], "col": cert[1]}}


def _random_elementary_product(rng, ring, n, count, param_factory):
    roots = _all_roots(n)
    factors = []
    for _ in range(count):
        root = roots[rng.randrange(len(roots))]
        factors.append((root, param_factory()))
    return multiply_factors(ring, n, factors)


@_criterion("factor_elementary re-multiplies; lifted words project to y(1)",
            30.0)
def criterion_4(seed: int):
    """Factorization soundness and the path -> word contract in SL3."""
    n = 3
    bad = 0
    loop_cases = 0
    for field in (GF(7), QQ):
        rng = random.Random(str((seed, "c4", field.descriptor())))
        ring = path_ring(field)
        t = ring.gen("T")
        one = ring.one
        cases = []
        for _ in range(70):
            count = rng.randint(1, 12)
            cases.append(_random_elementary_product(
                rng, ring, n, count,
                lambda: t * _random_poly(rng, ring, 2)))
        for _ in range(30):
            count = rng.randint(1, 12)
            cases.append(_random_elementary_product(
                rng, ring, n, count,
                lambda: t * (one - t) * _random_poly(rng, ring, 1)))
        for m in cases:
            factors = factor_elementary(m)
            if multiply_factors(ring, n, factors) != m:
                bad += 1
            path = PathMatrix(m)
            word = path_to_steinberg(path)
            if word.project() != path.at(1):
                bad += 1
            if path.is_loop():
                loop_cases += 1
                if not in_k2(word):
                    bad += 1
    return bad == 0 and loop_cases >= 60, {
        "cases": 200, "loop_cases": loop_cases, "violations": bad}


@_criterion("simplicial identities hold; e12(X1X2) contracts e12(T-T^2)", 2.0)
def criterion_5(seed: int):
    """Simplicial identities on random data plus the explicit witness."""
    bad = 0
    rng = random.Random(str((seed, "c5")))
    fields = (QQ, GF(7))
    for case in range(200):
        field = fields[case % 2]
        level = rng.randint(1, 4)
        ring = simplex_ring(field, level)
        sp = SimplexPoly(field, level, _random_poly(rng, ring, 2, 3))
        if level >= 2:                  # d_i d_j = d_{j-1} d_i, i < j
            for i in range(level):
                for j in range(i + 1, level + 1):
                    if face(i, face(j, sp)) != face(j - 1, face(i, sp)):
                        bad += 1
        for i in range(level + 1):      # s_i s_j = s_{j+1} s_i, i <= j
            for j in range(i, level + 1):
                if degeneracy(i, degeneracy(j, sp)) != \
                        degeneracy(j + 1, degeneracy(i, sp)):
                    bad += 1
        for i in range(level + 2):      # d_i s_j, all three cases
            for j in range(level + 1):
                lhs = face(i, degeneracy(j, sp))
                if i == j or i == j + 1:
                    rhs = sp
                elif i < j:
                    rhs = degeneracy(j - 1, face(i, sp))
                else:
                    rhs = degeneracy(j, face(i - 1, sp))
                if lhs != rhs:
                    bad += 1

    # explicit witness: sigma = e12(X1*X2) contracts the loop e12(T - T^2)
    field = QQ
    r2 = simplex_ring(field, 2)
    x1x2 = r2.gen("X1") * r2.gen("X2")
    sigma = SimplexMatrix(field, 2, GroupMatrix(
        r2, [[r2.one, x1x2], [r2.zero, r2.one]]))
    tt = path_ring(field).gen("T")
    the_loop = path_to_simplex(PathMatrix(
        elem((1, 2), tt - tt * tt, 2, path_ring(field))))
    const = path_to_simplex(identity_path(field, 2))
    witness_ok = (moore_is_loop(the_loop)
                  and verify_homotopy_witness(sigma, const, the_loop))
    # a wrong witness must be rejected
    sigma_bad = SimplexMatrix(field, 2, GroupMatrix(
        r2, [[r2.one, r2.gen("X1")], [r2.zero, r2.one]]))
    witness_ok = witness_ok and not verify_homotopy_witness(
        sigma_bad, const, the_loop)
    return bad == 0 and witness_ok, {
        "random_inputs": 200, "violations": bad,
        "witness_certified": witness_ok}


@_criterion("tame symbols: bilinear, antisymmetric, Steinberg; "
            "tau_3({2,3}) = 2", 2.0)
def criterion_6(seed: int):
    """Tame-symbol bilinearity, antisymmetry, Steinberg vanishing,
    and the nontriviality certificate tau_3({2,3}) = 2."""
    rng = random.Random(str((seed, "c6")))
    bad = 0
    small_primes = [2, 3, 5, 7, 11, 13]
    for _ in range(500):
        a = _random_unit(rng, QQ)
        b = _random_unit(rng, QQ)
        c = _random_unit(rng, QQ)
        for p in small_primes:
            if tame_symbol(a * b, c, p) != \
                    (tame_symbol(a, c, p) * tame_symbol(b, c, p)) % p:
                bad += 1
            if (tame_symbol(a, b, p) * tame_symbol(b, a, p)) % p != 1:
                bad += 1
    steinberg_ok = all(
        tame_symbol(u, 1 - u, p) == 1
        for u in range(2, 51) for p in _PRIMES_TO_97)
    certificate = tame_symbol(2, 3, 3)
    return bad == 0 and steinberg_ok and certificate == 2, {
        "random_triples": 500, "violations": bad,
        "steinberg_vanishing": steinberg_ok, "tau_3_of_2_3": certificate}


@_criterion("Milnor K2 of small finite fields is trivial", 10.0)
def criterion_7(seed: int):
    """Milnor K2 of F_q is trivial for q in {2,3,4,5,7,8,9,11,13}."""
    results = {}
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        pres = milnor_k2_finite_field(q)
        results[str(q)] = {"invariant_factors": pres.invariant_factors,
                           "free_rank": pres.free_rank}
        ok = ok and pres.is_trivial()
    return ok, results


def _cyclic_generator(order: int) -> list[GroupMatrix]:
    """A determinant-1 matrix of the given multiplicative order."""
    diag_fields = {2: 3, 3: 7, 4: 5, 5: 11, 6: 7, 7: 8, 8: 9, 10: 11, 12: 13}
    if order == 1:
        return [GroupMatrix.identity(GF(2), 2)]
    if order in diag_fields:
        field = GF(diag_fields[order])
        z = next(x for x in field.units()
                 if _mult_order(x, field) == order)
        zero = field.zero
        return [GroupMatrix(field, [[z, zero], [zero, z.inverse()]])]
    # odd-length cycles are even permutations, so their matrices lie in SL
    if order % 2 == 1:
        field = GF(2)
        one, zero = field.one, field.zero
        rows = [[one if j == (i + 1) % order else zero
                 for j in range(order)] for i in range(order)]
        return [GroupMatrix(field, rows)]
    raise ValueError(f"no representation on record for order {order}")


def _mult_order(x, field) -> int:
    k = 1
    acc = x
    while acc != field.one:
        acc = acc * x
        k += 1
        if k > field.q:
            raise RuntimeError("order computation ran away")
    return k


@_criterion("Schur multipliers: cyclic trivial, Klein Z/2, SL2(F3) trivial",
            60.0 * 14)
def criterion_8(seed: int):
    """Bar-resolution Schur multipliers of small matrix groups, each group
    within 60 seconds."""
    per_group = {}
    ok = True
    for order in range(1, 13):
        g0 = _clock()
        pres = schur_multiplier(_cyclic_generator(order))
        dt = _clock() - g0
        per_group[f"C{order}"] = {
            "invariant_factors": pres.invariant_factors, "seconds": dt}
        ok = ok and pres.is_trivial() and dt < 60.0
        ok = ok and pres.metadata["group_order"] == order

    f3 = GF(3)
    zero, one, two = f3.zero, f3.one, f3(2)
    klein = [GroupMatrix(f3, [[two, zero, zero], [zero, two, zero],
                              [zero, zero, one]]),
             GroupMatrix(f3, [[one, zero, zero], [zero, two, zero],
                              [zero, zero, two]])]
    g0 = _clock()
    pres = schur_multiplier(klein)
    dt = _clock() - g0
    per_group["klein_four"] = {
        "invariant_factors": pres.invariant_factors, "seconds": dt}
    ok = ok and pres.invariant_factors == [2] and pres.free_rank == 0
    ok = ok and dt < 60.0

    sl2f3 = [elem((1, 2), 1, 2, f3), elem((2, 1), 1, 2, f3)]
    g0 = _clock()
    pres = schur_multiplier(sl2f3)
    dt = _clock() - g0
    per_group["SL2(F3)"] = {
        "invariant_factors": pres.invariant_factors, "seconds": dt,
        "order": pres.metadata["group_order"]}
    ok = ok and pres.is_trivial() and pres.metadata["group_order"] == 24
    ok = ok and dt < 60.0
    return ok, per_group


@_criterion("symbol words reduce and land in K2; project is a homomorphism",
            5.0)
def criterion_9(seed: int):
    """Steinberg-word layer: symbol reduction, kernel membership, and the
    projection homomorphism."""
    bad = 0
    n = 3
    root = (1, 2)
    for field in (QQ, GF(5)):
        rng = random.Random(str((seed, "c9", field.descriptor())))
        v = _random_unit(rng, field)
        if symbol_word(root, field.one, v, n, field).reduced_length != 0:
            bad += 1
        for _ in range(50):
            u = _random_unit(rng, field)
            v = _random_unit(rng, field)
            if not in_k2(symbol_word(root, u, v, n, field)):
                bad += 1
        roots = _all_roots(n)
        for _ in range(100):
            def random_word():
                letters = [(roots[rng.randrange(len(roots))],
                            _random_scalar(rng, field))
                           for _ in range(rng.randint(0, 6))]
                return SteinbergWord(field, n, letters)
            a, b = random_word(), random_word()
            if (a * b).project() != a.project() * b.project():
                bad += 1
    return bad == 0, {"violations": bad}


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9]


def run_all(seed: int = DEFAULT_SEED) -> dict:
    results = []
    for k, crit in enumerate(CRITERIA, start=1):
        rec = crit(seed)
        rec["criterion"] = k
        results.append(rec)
    return {
        "seed": seed,
        "criteria": results,
        "all_passed": all(r["passed"] for r in results),
    }
