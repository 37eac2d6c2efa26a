"""Steinberg words: canonical reduction, projection, symbols, invariants."""

import random
from fractions import Fraction

import pytest

from chevloops import (GF, QQ, SteinbergWord, in_k2, symbol_word,
                       tame_invariants)


def test_additive_cancellation():
    u = Fraction(5, 2)
    w = (SteinbergWord(QQ, 3, [((1, 2), u)])
         * SteinbergWord(QQ, 3, [((1, 2), -u)]))
    assert w.reduced_length == 0
    assert w == SteinbergWord.identity(QQ, 3)


def test_st_inv_reverses_and_negates():
    a = SteinbergWord(QQ, 3, [((1, 2), Fraction(2))])
    b = SteinbergWord(QQ, 3, [((2, 3), Fraction(3))])
    w = (a * b).inverse()
    assert w.letters == (((2, 3), Fraction(-3)), ((1, 2), Fraction(-2)))
    assert (w * (a * b)).reduced_length == 0


def test_projection_examples():
    assert SteinbergWord.identity(QQ, 3).project().is_identity()
    w = (SteinbergWord(QQ, 3, [((1, 2), Fraction(2))])
         * SteinbergWord(QQ, 3, [((2, 3), Fraction(3))]))
    assert w.project().entry(1, 3) == 6


def test_projection_is_a_homomorphism_over_f5():
    field = GF(5)
    rng = random.Random("st-hom")
    roots = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]

    def rand_word():
        letters = [(roots[rng.randrange(len(roots))],
                    field(rng.randint(0, 4)))
                   for _ in range(rng.randint(0, 8))]
        return SteinbergWord(field, 3, letters)

    for _ in range(60):
        a, b = rand_word(), rand_word()
        assert (a * b).project() == a.project() * b.project()


def test_commutator_relation_respected_by_projection():
    a, b = Fraction(3), Fraction(-2)
    x = SteinbergWord(QQ, 3, [((1, 2), a)])
    y = SteinbergWord(QQ, 3, [((2, 3), b)])
    comm = x * y * x.inverse() * y.inverse()
    assert comm.project() == SteinbergWord(QQ, 3, [((1, 3), a * b)]).project()
    residue = comm * SteinbergWord(QQ, 3, [((1, 3), a * b)]).inverse()
    assert in_k2(residue)


def test_reduction_is_confluent_under_random_merge_orders():
    rng = random.Random("confluence")
    field = GF(7)
    roots = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    for _ in range(50):
        raw = [(roots[rng.randrange(len(roots))], field(rng.randint(0, 6)))
               for _ in range(rng.randint(0, 12))]
        canonical = SteinbergWord(field, 3, raw).letters
        # merge adjacent equal-root letters in a random order by hand
        work = [(r, p) for r, p in raw if p != field.zero]
        while True:
            spots = [k for k in range(len(work) - 1)
                     if work[k][0] == work[k + 1][0]]
            if not spots:
                break
            k = spots[rng.randrange(len(spots))]
            merged = work[k][1] + work[k + 1][1]
            work[k:k + 2] = [] if merged == field.zero else \
                [(work[k][0], merged)]
        assert tuple(work) == canonical


def test_symbol_word_trivial_units():
    for u, v in ((1, 5), (5, 1)):
        w = symbol_word((1, 2), Fraction(u), Fraction(v), 3, QQ)
        assert w.reduced_length == 0


def test_symbol_word_is_k2_and_short():
    rng = random.Random("symbols")
    for field in (QQ, GF(5)):
        for _ in range(20):
            if field is QQ:
                u = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                v = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            else:
                us = field.units()
                u = us[rng.randrange(len(us))]
                v = us[rng.randrange(len(us))]
            w = symbol_word((1, 2), u, v, 3, field)
            assert w.reduced_length <= 18
            assert in_k2(w)


def test_symbol_word_u_times_u_inverse():
    u = Fraction(7, 3)
    w = symbol_word((1, 2), u, 1 / u, 3, QQ)
    assert w.project().is_identity()


def test_symbol_word_needs_units():
    with pytest.raises(ZeroDivisionError):
        symbol_word((1, 2), Fraction(0), Fraction(2), 3, QQ)


def test_in_k2_rejects_single_generator():
    assert not in_k2(SteinbergWord(QQ, 3, [((1, 2), Fraction(1))]))


def test_rank_one_words_are_flagged():
    w2 = SteinbergWord(QQ, 2, [((1, 2), Fraction(1))])
    assert w2.presentation_caveat == "rank-1: presentation not modeled"
    w3 = SteinbergWord(QQ, 3, [((1, 2), Fraction(1))])
    assert w3.presentation_caveat is None


def test_tame_invariants_basic_symbol():
    w = symbol_word((1, 2), Fraction(2), Fraction(3), 3, QQ)
    inv = tame_invariants(w)
    # v_3(2) = 0, v_3(3) = 1: the symbol reduces to 2 mod 3
    assert inv == {2: 1, 3: 2}


def test_tame_invariants_steinberg_pair_vanishes():
    u = Fraction(7)
    w = symbol_word((1, 2), u, 1 - u, 3, QQ)
    inv = tame_invariants(w)
    assert all(v == 1 for v in inv.values())
    assert set(inv) == {2, 3, 7}


def test_tame_invariants_cancel_on_inverse_pairs():
    s = symbol_word((1, 2), Fraction(4), Fraction(9), 3, QQ)
    w = s * s.inverse()
    inv = tame_invariants(w)
    assert set(inv) == {2, 3}
    assert all(v == 1 for v in inv.values())


def test_tame_invariants_reject_non_symbol_words():
    w = (SteinbergWord(QQ, 3, [((1, 2), Fraction(1))])
         * SteinbergWord(QQ, 3, [((1, 2), Fraction(-1))]))
    with pytest.raises(ValueError, match="not in symbol form"):
        tame_invariants(w)
    s = symbol_word((1, 2), GF(5)(2), GF(5)(3), 3, GF(5))
    with pytest.raises(ValueError):
        tame_invariants(s)


def test_word_construction_errors():
    with pytest.raises(ValueError):
        SteinbergWord(QQ, 3, [((1, 1), Fraction(1))])
    with pytest.raises(ValueError):
        (SteinbergWord(QQ, 3, [((1, 2), 1)])
         * SteinbergWord(QQ, 4, [((1, 2), 1)]))
    with pytest.raises(ValueError):
        (SteinbergWord(QQ, 3, [((1, 2), 1)])
         * SteinbergWord(GF(5), 3, [((1, 2), 1)]))


@pytest.mark.parametrize("call, message", [
    (lambda: SteinbergWord(QQ, 3, [((1, 2), 1, 2)]),
     "letter sign must be +-1, got 2"),
    (lambda: SteinbergWord(QQ, 1, []), "word size must be at least 2, got 1"),
    (lambda: SteinbergWord(QQ, 3, []) * 3,
     "can only multiply Steinberg words"),
], ids=["letter-sign", "word-size", "times-a-non-word"])
def test_word_refusals_name_the_problem(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
