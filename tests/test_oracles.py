"""Tame symbols, Milnor K2 of finite fields, and Schur multipliers.

The K2 presentation is checked against the definitional one, which
``_reference_k2_presentation`` writes out with every bilinearity row.
"""

import random
import time
from fractions import Fraction

import pytest

from chevloops import (GF, GroupMatrix, elem, milnor_k2_finite_field,
                       prime_factors, schur_multiplier, tame_symbol)
from chevloops.rings import MAX_PRIME_TEST
from chevloops.snf import SparseIntMatrix, smith_normal_form

PRIMES_TO_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_tame_symbol_frozen_values():
    # v_3(2) = 0 and v_3(3) = 1, so the symbol is 2^1 * 3^0 = 2 mod 3
    assert tame_symbol(2, 3, 3) == 2
    assert tame_symbol(2, 3, 2) == 1
    assert tame_symbol(Fraction(1, 3), 3, 3) == \
        tame_symbol(3, Fraction(1, 3), 3)


def test_tame_symbol_trivial_on_double_units():
    rng = random.Random("tame-units")
    for _ in range(50):
        p = PRIMES_TO_97[rng.randrange(len(PRIMES_TO_97))]
        a = rng.randint(1, 200)
        b = rng.randint(1, 200)
        while a % p == 0:
            a += 1
        while b % p == 0:
            b += 1
        assert tame_symbol(a, b, p) == 1


def test_tame_symbol_steinberg_shadow_exhaustive():
    for u in range(2, 51):
        for p in PRIMES_TO_97:
            assert tame_symbol(u, 1 - u, p) == 1


def test_tame_symbol_bilinear_and_antisymmetric():
    rng = random.Random("tame-props")
    for _ in range(80):
        a = Fraction(rng.randint(1, 60), rng.randint(1, 60)) * \
            rng.choice([1, -1])
        b = Fraction(rng.randint(1, 60), rng.randint(1, 60)) * \
            rng.choice([1, -1])
        c = Fraction(rng.randint(1, 60), rng.randint(1, 60)) * \
            rng.choice([1, -1])
        for p in (2, 3, 5, 7, 11):
            assert tame_symbol(a * b, c, p) == \
                (tame_symbol(a, c, p) * tame_symbol(b, c, p)) % p
            assert (tame_symbol(a, b, p) * tame_symbol(b, a, p)) % p == 1


def test_tame_symbol_errors():
    with pytest.raises(ZeroDivisionError):
        tame_symbol(0, 3, 5)
    with pytest.raises(ValueError):
        tame_symbol(2, 3, 6)


def test_prime_factors():
    assert prime_factors(360) == {2, 3, 5}
    assert prime_factors(-14) == {2, 7}
    assert prime_factors(1) == set()
    assert prime_factors(0) == set()


@pytest.mark.parametrize("p", [0, 1, -1, -7, 4, 6, 91, MAX_PRIME_TEST,
                               MAX_PRIME_TEST + 4])
def test_tame_symbol_refuses_non_primes_every_time(p):
    # the second call reads the memoized prime check
    for _ in range(2):
        with pytest.raises(ValueError):
            tame_symbol(2, 3, p)


def _trial_division(n):
    n, out, d = abs(n), set(), 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    return out | {n} if n > 1 else out


def test_prime_factors_matches_trial_division():
    for n in range(-20, 10 ** 4):
        assert prime_factors(n) == _trial_division(n), n


@pytest.mark.parametrize("n,primes", [
    (10 ** 18 + 3, {10 ** 18 + 3}),
    (999999929 * 999999937, {999999929, 999999937}),
    (101 ** 2 * 103 ** 3 * 999999937, {101, 103, 999999937})])
def test_prime_factors_of_large_inputs_is_fast(n, primes):
    t0 = time.perf_counter()
    assert prime_factors(n) == primes
    assert time.perf_counter() - t0 < 1.0


def test_prime_factors_refuses_past_max_prime_test():
    prime_factors(MAX_PRIME_TEST - 1)
    for n in (MAX_PRIME_TEST, -MAX_PRIME_TEST):
        with pytest.raises(ValueError, match="MAX_PRIME_TEST"):
            prime_factors(n)


K2_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", K2_FIELDS)
def test_milnor_k2_finite_fields_trivial(q):
    pres = milnor_k2_finite_field(q)
    assert pres.invariant_factors == []
    assert pres.free_rank == 0
    assert len(pres.generators) == (q - 1) ** 2


def _reference_k2_presentation(q):
    """Labels, the number of bilinearity rows, and the relation matrix of
    the definitional presentation: {u1 u2, v} - {u1, v} - {u2, v} and
    {u, v1 v2} - {u, v1} - {u, v2} for every triple of units (2(q-1)^3
    rows), then {u, 1-u} for u != 1."""
    field = GF(q)
    units = field.units()
    gi = {}
    labels = []
    for u in units:
        for v in units:
            gi[(u, v)] = len(labels)
            labels.append(f"{{{u},{v}}}")
    entries = []
    row = 0
    for u1 in units:
        for u2 in units:
            w = u1 * u2
            for v in units:
                entries.append((row, gi[(w, v)], 1))
                entries.append((row, gi[(u1, v)], -1))
                entries.append((row, gi[(u2, v)], -1))
                row += 1
    for v1 in units:
        for v2 in units:
            w = v1 * v2
            for u in units:
                entries.append((row, gi[(u, w)], 1))
                entries.append((row, gi[(u, v1)], -1))
                entries.append((row, gi[(u, v2)], -1))
                row += 1
    bilinear = row
    one = field.one
    for u in units:
        w = one - u
        if w:
            entries.append((row, gi[(u, w)], 1))
            row += 1
    return labels, bilinear, SparseIntMatrix(row, len(labels), entries)


def _rows(matrix):
    """The rows of ``matrix`` as frozensets of (column, value) entries."""
    rows = {}
    for (i, j), v in matrix.entries.items():
        rows.setdefault(i, set()).add((j, v))
    return [frozenset(r) for r in rows.values()]


@pytest.mark.parametrize("q", K2_FIELDS)
def test_milnor_k2_matches_the_definitional_presentation(q):
    m = q - 1
    pres = milnor_k2_finite_field(q)
    labels, bilinear, ref = _reference_k2_presentation(q)
    assert pres.generators == labels
    assert pres.relations.ncols == ref.ncols
    assert pres.relations.nrows == 2 * m * m + m - 1
    # every relation is one of the definitional ones
    assert set(_rows(pres.relations)) <= set(_rows(ref))
    # so the bilinearity lattice along g lies in the full one; both
    # quotients are Z/m (Z/m tensor Z/m), so the lattices are equal
    for mat, stop in ((pres.relations, 2 * m * m), (ref, bilinear)):
        block = SparseIntMatrix(stop, mat.ncols,
                                [(i, j, v) for (i, j), v in mat.entries.items()
                                 if i < stop])
        snf = smith_normal_form(block)
        assert snf.torsion == ([m] if m > 1 else [])
        assert snf.free_rank == 0
    full = smith_normal_form(ref)
    assert pres.snf_diagonal == list(full.invariant_factors)
    assert pres.invariant_factors == full.torsion
    assert pres.free_rank == full.free_rank


def test_milnor_k2_rejects_bad_q():
    with pytest.raises(ValueError):
        milnor_k2_finite_field(6)
    with pytest.raises(ValueError):
        milnor_k2_finite_field(32)


def _cyclic_diag(field, z):
    zero = field.zero
    return GroupMatrix(field, [[z, zero], [zero, z.inverse()]])


def test_schur_multiplier_cyclic_groups_trivial():
    f7 = GF(7)
    pres = schur_multiplier([_cyclic_diag(f7, f7(3))])   # order 6
    assert pres.invariant_factors == [] and pres.free_rank == 0
    assert pres.metadata["group_order"] == 6


def test_schur_multiplier_klein_four_is_z2():
    f3 = GF(3)
    one, two, zero = f3.one, f3(2), f3.zero
    a = GroupMatrix(f3, [[two, zero, zero], [zero, two, zero],
                         [zero, zero, one]])
    b = GroupMatrix(f3, [[one, zero, zero], [zero, two, zero],
                         [zero, zero, two]])
    pres = schur_multiplier([a, b])
    assert pres.metadata["group_order"] == 4
    assert pres.invariant_factors == [2]
    assert pres.free_rank == 0


def test_schur_multiplier_sl2_f3_trivial():
    f3 = GF(3)
    gens = [elem((1, 2), 1, 2, f3), elem((2, 1), 1, 2, f3)]
    pres = schur_multiplier(gens)
    assert pres.metadata["group_order"] == 24
    assert pres.invariant_factors == []
    assert pres.free_rank == 0


def test_schur_multiplier_order_bound():
    f3 = GF(3)
    gens = [elem((1, 2), 1, 2, f3), elem((2, 1), 1, 2, f3)]
    with pytest.raises(ValueError, match="order bound"):
        schur_multiplier(gens, order_bound=10)


def test_schur_presentation_shape():
    f3 = GF(3)
    one, two, zero = f3.one, f3(2), f3.zero
    a = GroupMatrix(f3, [[two, zero, zero], [zero, two, zero],
                         [zero, zero, one]])
    b = GroupMatrix(f3, [[one, zero, zero], [zero, two, zero],
                         [zero, zero, two]])
    pres = schur_multiplier([a, b])
    # canonical diagonal presentation of Z/2
    assert len(pres.generators) == 1
    assert pres.relations.entries == {(0, 0): 2}
    assert "oracle" in pres.metadata["note"]
