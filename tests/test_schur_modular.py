"""The Schur oracle's modular certificates and Sylow reduction against
whole-group references.

``schur_multiplier`` reads each p-part of H_2 off a Sylow p-subgroup P:
ranks at one large prime and a local Smith form of d3 of P, plus the
conjugation columns of the normalizer when P is abelian.  Here the bar
complex of the whole group, built from matrix products, goes through
the same certificates (``_reference_schur``) and through
``smith_normal_form`` over Z, and all must agree.  The modular and
integer Smith forms share their unit-pivot elimination, which
``test_snf_differential.py`` checks against the minors of small matrices.
"""

import functools
import time

import pytest

import chevloops.oracles as oracles
from chevloops import GF, GroupMatrix, SparseIntMatrix, elem, smith_normal_form
from chevloops.acceptance import _cyclic_generator
from chevloops.oracles import (_bar_complex, _cayley_table, _check_cycles,
                               _enumerate_group, _h2_torsion, _merge_p_parts,
                               _p_part, _sylow, schur_multiplier)
from chevloops.rings import is_prime
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


def _product_table(gens):
    """The elements and ``right[b][a]`` = index of a * b, from matrix
    products."""
    elems = _enumerate_group(gens, 200)[0]
    index = {g: i for i, g in enumerate(elems)}
    return elems, [[index[a * b] for a in elems] for b in elems]


@functools.lru_cache(maxsize=1)
def _complex(gens):
    """The order and the bar complex of the group, from matrix products;
    ``gens`` is a tuple, and the last group's complex is kept for reuse."""
    elems, right = _product_table(gens)
    d2_cols, d3_cols, _ = _bar_complex(right, list(range(len(elems))))
    return len(elems), d2_cols, d3_cols


def _reference_schur(gens):
    """The whole-group oracle: the bar complex of G from matrix products,
    d2 . d3 = 0, and the certificates of ``_h2_torsion`` at every p | |G|."""
    order, d2_cols, d3_cols = _complex(tuple(gens))
    assert order <= oracles.MAX_BAR_ORDER
    _check_cycles(d2_cols, d3_cols, "d2 . d3 != 0")
    return order, _h2_torsion(d2_cols, d3_cols, order)


def _matrix(nrows, cols):
    return SparseIntMatrix(nrows, len(cols), [
        (r, j, v) for j, col in enumerate(cols) for r, v in col.items()])


@pytest.mark.parametrize("label,gens,order,h2", GROUPS,
                         ids=[g[0] for g in GROUPS])
def test_modular_oracle_matches_integer_smith_form(label, gens, order, h2):
    pres = schur_multiplier(gens)
    assert pres.metadata["group_order"] == order
    assert (pres.invariant_factors, pres.free_rank) == (h2, 0)
    assert smith_normal_form(pres.relations) == (pres.snf_diagonal,
                                                 pres.free_rank)

    _, d2_cols, d3_cols = _complex(tuple(gens))
    m = order - 1
    snf2 = smith_normal_form(_matrix(m, d2_cols))
    snf3 = smith_normal_form(_matrix(m * m, d3_cols))
    assert snf3.torsion == pres.invariant_factors
    assert m * m - snf2.rank - snf3.rank == pres.free_rank
    assert _reference_schur(gens) == (order, h2)


def test_distinct_factors_come_back_as_their_own_smith_form():
    # Z2 x Z6 x Z6, too large for the whole-group reference: its Sylow
    # subgroups Z2^3 and Z3 x Z3 give Z/2^3 and Z/3, merged to distinct
    # factors; the diagonal presentation carries them as its Smith form
    f7 = GF(7)
    w = _element_of_order(f7, 6)
    pres = schur_multiplier([_diag(f7, [w, w.inverse(), 1, 1]),
                             _diag(f7, [1, 1, w, w.inverse()]),
                             _diag(f7, [1, 6, 6, 1])])
    assert pres.metadata["group_order"] == 72
    assert (pres.invariant_factors, pres.free_rank) == ([2, 2, 6], 0)
    assert smith_normal_form(pres.relations) == (pres.snf_diagonal,
                                                 pres.free_rank)


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
    order, d2_cols, d3_cols = _complex(tuple(GROUPS[12][1]))
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


def _cyclic(k):
    """diag(z, 1/z) with z of order k, over the least prime field that has
    one."""
    q = next(q for q in range(k + 1, 10 ** 4)
             if is_prime(q) and (q - 1) % k == 0)
    z = _element_of_order(GF(q), k)
    return [_diag(GF(q), [z, z.inverse()])]


def test_order_30_is_answered_from_its_sylow_subgroups():
    pres = schur_multiplier(_cyclic(28))
    assert pres.metadata["group_order"] == 28 and pres.is_trivial()
    pres = schur_multiplier(_cyclic(30), order_bound=10 ** 6)
    assert pres.metadata["group_order"] == 30 and pres.is_trivial()
    with pytest.raises(ValueError, match="order bound 20 exceeded"):
        schur_multiplier(_cyclic(30), order_bound=20)


def test_sylow_subgroups_past_the_bar_complex_limit_are_refused():
    # C32 is its own Sylow 2-subgroup: d3 would have 31^3 columns
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_BAR_COLUMNS"):
        schur_multiplier(_cyclic(32))
    assert time.perf_counter() - t0 < 1.0


def test_groups_past_the_enumeration_limit_are_refused():
    # diag(z, 1/z) of order 1030 over F_1031
    assert oracles.MAX_GROUP_ORDER < 1030
    with pytest.raises(ValueError, match="MAX_GROUP_ORDER"):
        schur_multiplier(_cyclic(1030), order_bound=10 ** 6)


def _sl2(q):
    """SL_2(F_q), generated by x_12(t) and x_21(t) for t = 1 and a field
    generator."""
    f = GF(q)
    ts = [f.one] if f.e == 1 else [f.one, f.gen()]
    return [elem(root, t, 2, f) for root in ((1, 2), (2, 1)) for t in ts]


SL2_H2 = [(4, 60, [2]), (5, 120, []), (7, 336, []), (8, 504, []),
          (9, 720, [3])]


@pytest.mark.parametrize("q,order,h2", SL2_H2, ids=[f"F{q}" for q, _, _ in
                                                    SL2_H2])
def test_sl2_classical_multipliers(q, order, h2):
    # SL_2(F_4) = A_5 and SL_2(F_8) = PSL_2(8) have multipliers Z/2 and 0
    # (ATLAS); SL_2(F_q) is the universal cover of PSL_2(q) for q = 5, 7;
    # SL_2(F_9) is the double cover of A_6, whose multiplier is Z/6
    t0 = time.perf_counter()
    pres = schur_multiplier(_sl2(q), order_bound=oracles.MAX_GROUP_ORDER)
    assert time.perf_counter() - t0 < 5.0
    assert pres.metadata["group_order"] == order
    assert (pres.invariant_factors, pres.free_rank) == (h2, 0)


def test_sl3_f2_is_refused_for_its_dihedral_sylow_subgroup():
    # the Sylow 2-subgroup is D_8 with H_2 = Z/2: that needs stable elements
    gens = [elem(root, 1, 3, F2) for root in ((1, 2), (2, 3), (3, 1))]
    with pytest.raises(ValueError, match="stable elements"):
        schur_multiplier(gens)


# the groups of GROUPS meet the reference in
# test_modular_oracle_matches_integer_smith_form
REFERENCE_GROUPS = [
    ("heisenberg_mod_3", _heisenberg_mod_3()), ("Z3xZ9", _z3_z9()),
    ("SL2(F3)", [elem((1, 2), 1, 2, F3), elem((2, 1), 1, 2, F3)])] + [
    (f"C{k}", _cyclic(k)) for k in range(13, 29)]


@pytest.mark.parametrize("label,gens", REFERENCE_GROUPS,
                         ids=[g[0] for g in REFERENCE_GROUPS])
def test_sylow_oracle_matches_the_whole_group_reference(label, gens):
    pres = schur_multiplier(gens)
    assert (pres.metadata["group_order"], pres.invariant_factors) == \
        _reference_schur(gens)


@pytest.mark.parametrize("gens", [GROUPS[14][1], _sl2(4), _z2_z6()],
                         ids=["A4", "SL2(F4)", "Z2xZ6"])
def test_cayley_table_matches_the_matrix_products(gens):
    elems, act, parent = _enumerate_group(gens, 200)
    right = _cayley_table(act, parent)
    assert len(right) == len(elems)
    for b, row in enumerate(right):
        assert [elems[i] for i in row] == [a * elems[b] for a in elems]


def _a4_table():
    elems, act, parent = _enumerate_group(GROUPS[14][1], 200)
    right = _cayley_table(act, parent)
    return right, [r.index(0) for r in right]


def test_a4_reads_its_multiplier_from_the_klein_coinvariants():
    right, inv = _a4_table()
    v4 = _sylow(right, inv, 2, 4)
    assert _p_part(right, inv, v4, 2) == [2]
    assert _p_part(right, inv, _sylow(right, inv, 3, 3), 3) == []


def test_corrupted_conjugation_column_fails_the_cycle_check(monkeypatch):
    right, inv = _a4_table()
    v4 = _sylow(right, inv, 2, 4)
    honest = oracles._conjugation_columns

    def corrupted(right, inv, sub, pair):
        # [a|b] alone has boundary [b] - [ab] + [a] != 0
        return honest(right, inv, sub, pair) + [{pair(sub[1], sub[2]): 1}]

    monkeypatch.setattr(oracles, "_conjugation_columns", corrupted)
    with pytest.raises(RuntimeError, match="not a cycle"):
        _p_part(right, inv, v4, 2)


def test_corrupted_sylow_inclusion_fails_its_checks():
    right, inv = _a4_table()
    v4 = _sylow(right, inv, 2, 4)
    c3 = _sylow(right, inv, 3, 3)
    with pytest.raises(RuntimeError, match="not 4"):
        _p_part(right, inv, v4[:2], 2)
    # the right size, but a 3-cycle times a double transposition leaves it
    with pytest.raises(RuntimeError, match="not closed"):
        _p_part(right, inv, v4[:3] + c3[1:2], 2)
