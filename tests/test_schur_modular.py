"""The Schur oracle's modular certificates against the integer Smith form.

``schur_multiplier`` reads H_2 = ker d2 / im d3 off ranks at one large
prime and local Smith forms of d3 at the primes dividing |G|.  Here the
same bar complex also goes through ``smith_normal_form`` over Z, and
both must agree.  The two share their unit-pivot elimination, which
``test_snf_differential.py`` checks against the minors of small matrices.
"""

import time

import pytest

from chevloops import GF, GroupMatrix, SparseIntMatrix, elem, smith_normal_form
from chevloops.acceptance import _cyclic_generator
from chevloops.oracles import (_bar_complex, _enumerate_group, _h2_torsion,
                               _merge_p_parts, schur_multiplier)
from chevloops.snf import _local_smith


def _diag(field, values):
    zero = field.zero
    n = len(values)
    return GroupMatrix(field, [[field(values[r]) if r == s else zero
                                for s in range(n)] for r in range(n)])


def _perm(field, images):
    n = len(images)
    return GroupMatrix(field, [[field.one if images[s] == r else field.zero
                                for s in range(n)] for r in range(n)])


def _element_of_order(field, k):
    return next(x for x in field.units()
                if x ** k == field.one
                and all(x ** d != field.one for d in range(1, k)))


def _z3_z3():
    f7 = GF(7)
    u = _element_of_order(f7, 3)
    return [_diag(f7, [u, u.inverse(), 1]), _diag(f7, [1, u, u.inverse()])]


def _z2_z6():
    f7 = GF(7)
    w = _element_of_order(f7, 6)
    return [_diag(f7, [6, 6, 1]), _diag(f7, [1, w, w.inverse()])]


F3, F5, F2 = GF(3), GF(5), GF(2)

# (label, generators, order, H_2)
GROUPS = [(f"C{k}", _cyclic_generator(k), k, []) for k in range(1, 13)] + [
    ("klein_four", [_diag(F3, [2, 2, 1]), _diag(F3, [1, 2, 2])], 4, [2]),
    ("Q8", [GroupMatrix(F3, [[0, 2], [1, 0]]),
            GroupMatrix(F3, [[1, 1], [1, 2]])], 8, []),
    ("A4", [_perm(F2, [1, 2, 0, 3]), _perm(F2, [1, 0, 3, 2])], 12, [2]),
    ("Z2^3", [_diag(F3, [2, 2, 1, 1]), _diag(F3, [1, 2, 2, 1]),
              _diag(F3, [1, 1, 2, 2])], 8, [2, 2, 2]),
    ("Z4xZ4", [_diag(F5, [2, 1, 3]), _diag(F5, [1, 2, 3])], 16, [4]),
    ("Z3xZ3", _z3_z3(), 9, [3]),
    ("Z2xZ6", _z2_z6(), 12, [2]),
]


def _complex(gens):
    elems, identity = _enumerate_group(gens, 200)
    d2_cols, d3_cols = _bar_complex(elems, identity)
    return len(elems), d2_cols, d3_cols


def _matrix(nrows, cols):
    return SparseIntMatrix(nrows, len(cols), [
        (r, j, v) for j, col in enumerate(cols) for r, v in col.items()])


@pytest.mark.parametrize("label,gens,order,h2", GROUPS,
                         ids=[g[0] for g in GROUPS])
def test_modular_oracle_matches_integer_smith_form(label, gens, order, h2):
    pres = schur_multiplier(gens)
    assert pres.metadata["group_order"] == order
    assert (pres.invariant_factors, pres.free_rank) == (h2, 0)

    _, d2_cols, d3_cols = _complex(gens)
    m = order - 1
    snf2 = smith_normal_form(_matrix(m, d2_cols))
    snf3 = smith_normal_form(_matrix(m * m, d3_cols))
    assert snf3.torsion == pres.invariant_factors
    assert m * m - snf2.rank - snf3.rank == pres.free_rank


def test_p_part_merge_is_a_divisibility_chain():
    # Z/2 + Z/2 at p = 2 and Z/3 at p = 3 merge to Z/2 + Z/6
    assert _merge_p_parts([[2, 2], [3]]) == [2, 6]
    assert _merge_p_parts([[4], [3, 9], []]) == [3, 36]
    assert _merge_p_parts([[], []]) == []


def test_local_smith_reads_valuations_and_stops_early():
    # columns of diag(1, 2, 12) in some order, over Z/2^3 and Z/3^2
    cols = [{2: 12}, {0: 1, 2: 4}, {1: 2}]
    assert _local_smith(cols, 2, 3, 3) == (1, [1, 2])
    assert _local_smith(cols, 3, 2, 3) == (2, [1])
    assert _local_smith(cols, 3, 2, 2) == (2, [])
    # 8 vanishes mod 2^3, so only two factors are left
    assert _local_smith([{0: 8}, {1: 2}, {2: 1}], 2, 3, 3) == (1, [1])


def _klein():
    order, d2_cols, d3_cols = _complex(GROUPS[12][1])
    assert order == 4
    return order, d2_cols, d3_cols


def _scaled(cols, c):
    return [{r: c * v for r, v in col.items()} for col in cols]


def test_corrupted_d3_fails_the_rank_check():
    order, d2_cols, d3_cols = _klein()
    assert _h2_torsion(d2_cols, d3_cols, order) == [2]
    # a multiple of the rank prime vanishes there; so does a dropped column
    with pytest.raises(RuntimeError, match="rank check"):
        _h2_torsion(d2_cols, _scaled(d3_cols, 1_000_003), order)
    with pytest.raises(RuntimeError, match="rank check"):
        _h2_torsion(_scaled(d2_cols, 1_000_003), d3_cols, order)
    with pytest.raises(RuntimeError, match="rank check"):
        _h2_torsion(d2_cols, d3_cols[:1], order)


def test_corrupted_d3_fails_the_factor_count():
    # |G| = 4, so d3 is read mod 2^4; every factor of 16 d3 vanishes there
    order, d2_cols, d3_cols = _klein()
    with pytest.raises(RuntimeError, match="nonzero factors"):
        _h2_torsion(d2_cols, _scaled(d3_cols, 16), order)


def test_corrupted_d3_fails_the_valuation_bound():
    # 4 d3 has the factor 4 * 2 = 8, which |G| = 4 cannot annihilate
    order, d2_cols, d3_cols = _klein()
    with pytest.raises(RuntimeError, match="does not annihilate"):
        _h2_torsion(d2_cols, _scaled(d3_cols, 4), order)


def test_schur_multiplier_sl2_f3_is_fast():
    gens = [elem((1, 2), 1, 2, F3), elem((2, 1), 1, 2, F3)]
    t0 = time.perf_counter()
    pres = schur_multiplier(gens)
    assert time.perf_counter() - t0 < 3.0
    assert pres.metadata["group_order"] == 24
    assert pres.is_trivial()


def _heisenberg_mod_3():
    return [GroupMatrix(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
            GroupMatrix(F3, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])]


def _z3_z9():
    f19 = GF(19)
    u = _element_of_order(f19, 9)
    w = _element_of_order(f19, 3)
    return [_diag(f19, [u, u.inverse(), 1]), _diag(f19, [1, w, w.inverse()])]


@pytest.mark.parametrize("gens,h2", [(_heisenberg_mod_3(), [3, 3]),
                                     (_z3_z9(), [3])],
                         ids=["heisenberg_mod_3", "Z3xZ9"])
def test_order_27_groups_with_nontrivial_h2_are_fast(gens, h2):
    # the local Smith form's early stop never fires on these
    t0 = time.perf_counter()
    pres = schur_multiplier(gens)
    assert time.perf_counter() - t0 < 3.0
    assert pres.metadata["group_order"] == 27
    assert (pres.invariant_factors, pres.free_rank) == (h2, 0)


def test_bar_complex_limit_refuses_order_29_and_up():
    f29 = GF(29)
    z = _element_of_order(f29, 28)
    pres = schur_multiplier([_diag(f29, [z, z.inverse()])])
    assert pres.metadata["group_order"] == 28 and pres.is_trivial()
    f31 = GF(31)
    z = _element_of_order(f31, 30)
    with pytest.raises(ValueError, match="MAX_BAR_COLUMNS"):
        schur_multiplier([_diag(f31, [z, z.inverse()])], order_bound=10**6)
    with pytest.raises(ValueError, match="order bound 20 exceeded"):
        schur_multiplier([_diag(f31, [z, z.inverse()])], order_bound=20)
