"""Exact Smith normal form on sparse integer matrices."""

import random

import pytest

from chevloops import SparseIntMatrix, smith_normal_form, snf


def test_diag_2_3():
    m = SparseIntMatrix.from_rows([[2, 0], [0, 3]])
    res = smith_normal_form(m)
    assert res.invariant_factors == [1, 6]
    assert res.free_rank == 0


def test_zero_matrix_keeps_all_generators_free():
    m = SparseIntMatrix(3, 3)
    res = smith_normal_form(m)
    assert res.invariant_factors == []
    assert res.free_rank == 3


def test_identity_matrix():
    m = SparseIntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = smith_normal_form(m)
    assert res.invariant_factors == [1, 1, 1]
    assert res.free_rank == 0


def test_upper_triangular_with_torsion():
    # diag entries 2 and 6 up to the divisibility exchange
    m = SparseIntMatrix.from_rows([[2, 4], [0, 6]])
    res = smith_normal_form(m)
    assert res.invariant_factors == [2, 6]


def test_divisibility_chain_holds():
    rng = random.Random("snf-chain")
    for _ in range(25):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        res = smith_normal_form(SparseIntMatrix.from_rows(rows))
        fs = res.invariant_factors
        assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))
        assert len(fs) + res.free_rank == 4


def test_invariant_under_permutations():
    rng = random.Random("snf-perm")
    for _ in range(15):
        nr, nc = rng.randint(2, 5), rng.randint(2, 5)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        m = SparseIntMatrix.from_rows(rows)
        base = smith_normal_form(m)
        rp = list(range(nr))
        cp = list(range(nc))
        rng.shuffle(rp)
        rng.shuffle(cp)
        permuted = m.permuted(rp, cp)
        again = smith_normal_form(permuted)
        assert again.invariant_factors == base.invariant_factors
        assert again.free_rank == base.free_rank


def test_transpose_shares_invariant_factors():
    rng = random.Random("snf-transpose")
    for _ in range(10):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]
        m = SparseIntMatrix.from_rows(rows)
        a = smith_normal_form(m)
        b = smith_normal_form(m.transpose())
        assert a.invariant_factors == b.invariant_factors


def test_awkward_pivots_without_unit_entries():
    # gcd of all entries is 2 and |det| = 20, so the Smith form is diag(2, 10)
    m = SparseIntMatrix.from_rows([[4, 6], [2, 8]])
    res = smith_normal_form(m)
    assert res.invariant_factors == [2, 10]
    # the rank cross-check takes the first primes above 10^6 that divide no
    # factor: it skips 1000003 for the first, and searches no prime above
    # the second, which is past MAX_PRIME_TEST
    for d in (2 * 1_000_003, 10 ** 25):
        res = smith_normal_form(SparseIntMatrix.from_rows([[d]]))
        assert (res.invariant_factors, res.free_rank) == ([d], 0)


def test_pivot_migration_without_unit_entries():
    # no entry divides its row/column peers, forcing remainder pivots
    res = smith_normal_form(SparseIntMatrix.from_rows([[2, 3], [5, 7]]))
    assert res.invariant_factors == [1, 1]
    # gcd of entries is 1 and |det| = 126
    res = smith_normal_form(SparseIntMatrix.from_rows([[6, 10], [15, 4]]))
    assert res.invariant_factors == [1, 126]


def test_wide_matrix_free_rank_counts_columns():
    m = SparseIntMatrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0]])
    assert smith_normal_form(m).free_rank == 4


def test_entries_accumulate_and_validate():
    m = SparseIntMatrix(2, 2, [(0, 0, 2), (0, 0, -2), (1, 1, 5)])
    assert (0, 0) not in m.entries
    assert m.entries[(1, 1)] == 5
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [(2, 0, 1)])


@pytest.mark.parametrize("corrupt", [lambda d: sorted(d)[1:],
                                     lambda d: sorted(d) + [5]],
                         ids=["factor_dropped", "factor_added"])
def test_rank_cross_check_refuses_a_wrong_diagonal(monkeypatch, corrupt):
    monkeypatch.setattr(snf, "_divisibility_chain", corrupt)
    with pytest.raises(RuntimeError, match="rank cross-check"):
        smith_normal_form(SparseIntMatrix.from_rows([[2, 0, 1], [0, 3, 0]]))
