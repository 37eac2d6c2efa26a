"""Group matrices: generators, relations, and exact determinants."""

import random
import time
from fractions import Fraction

import pytest

from chevloops import (GF, GroupMatrix, PolyRing, QQ, commutator, elem,
                       eval_matrix, h_elem, product_of_elementaries, w_elem)
from chevloops.chevalley import c_letter_seq

Q_T = PolyRing(QQ, ("T",))
F7_T = PolyRing(GF(7), ("T",))
LETTER_RINGS = {"Q": QQ, "F7": GF(7), "Q[T]": Q_T, "F7[T]": F7_T}


def _random_param(rng, ring):
    """A scalar in [-3, 3], or a + bT over k[T]; zero about a seventh of
    the time."""
    if isinstance(ring, PolyRing):
        t = ring.gen("T")
        return ring(rng.randint(-3, 3)) + ring(rng.randint(-3, 3)) * t
    return ring(rng.randint(-3, 3))


def _random_letters(rng, ring, n, count):
    """Letters with forced adjacent repeats and exact cancellations."""
    roots = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if i != j]
    letters = []
    while len(letters) < count:
        move = rng.random()
        if letters and move < 0.25:          # same root, new parameter
            letters.append((letters[-1][0], _random_param(rng, ring)))
        elif letters and move < 0.45:        # cancels the previous letter
            letters.append((letters[-1][0], -letters[-1][1]))
        else:
            letters.append((rng.choice(roots), _random_param(rng, ring)))
    return letters


def _definitional_product(ring, n, letters):
    """Left-to-right product of elem matrices, with entries summed by
    plain + and * (no merging, no fused kernel)."""
    acc = [[ring.one if i == j else ring.zero for j in range(n)]
           for i in range(n)]
    for root, param in letters:
        x = elem(root, param, n, ring).rows
        acc = [[sum((acc[i][k] * x[k][j] for k in range(n)), ring.zero)
                for j in range(n)] for i in range(n)]
    return acc


def test_elem_examples():
    assert elem((1, 2), 0, 2, QQ).is_identity()
    m = elem((1, 2), Fraction(5), 3, QQ) * elem((2, 3), Fraction(7), 3, QQ)
    assert m.entry(1, 3) == 35


def test_elem_additivity_randomized():
    rng = random.Random("additivity")
    for field in (QQ, GF(7)):
        for _ in range(25):
            a = field(rng.randint(-20, 20))
            b = field(rng.randint(-20, 20))
            lhs = elem((1, 3), a, 3, field) * elem((1, 3), b, 3, field)
            assert lhs == elem((1, 3), a + b, 3, field)


def test_elem_rejects_bad_roots():
    with pytest.raises(ValueError):
        elem((1, 1), 1, 2, QQ)
    with pytest.raises(ValueError):
        elem((1, 4), 1, 3, QQ)
    with pytest.raises(ValueError):
        elem((0, 1), 1, 2, QQ)
    # letters that merging would drop are still validated
    for ring in LETTER_RINGS.values():
        for bad in ((1, 1), (1, 4), (0, 1), (1, 2.0), 7):
            with pytest.raises(ValueError):
                product_of_elementaries(ring, 3, [((1, 2), 1), (bad, 0)])
            with pytest.raises(ValueError):
                product_of_elementaries(
                    ring, 3, [((1, 2), 1), (bad, 1), ((1, 2), -1)])
        with pytest.raises(ValueError):
            product_of_elementaries(ring, 3, [((1, 2), 1), ((1, 2), -1),
                                              ((2, 3), object())])


@pytest.mark.parametrize("name", sorted(LETTER_RINGS))
def test_product_of_elementaries_is_the_definitional_product(name):
    ring = LETTER_RINGS[name]
    rng = random.Random(f"letters-{name}")
    for _ in range(40):
        n = rng.randint(2, 4)
        letters = _random_letters(rng, ring, n, rng.randint(0, 14))
        got = product_of_elementaries(ring, n, letters)
        assert [list(r) for r in got.rows] == \
            _definitional_product(ring, n, letters)
    # merging must stop at a different root, commuting or not
    a, b, c = (_random_param(rng, ring) or ring.one for _ in range(3))
    for roots in (((1, 2), (2, 3), (1, 2)), ((1, 2), (1, 3), (1, 2)),
                  ((2, 1), (1, 2), (2, 1))):
        letters = list(zip(roots, (a, b, c)))
        assert [list(r) for r in
                product_of_elementaries(ring, 3, letters).rows] == \
            _definitional_product(ring, 3, letters)
    # c(u, 1) = h(u) h(1) h(u)^{-1} cancels to nothing, over k[T] with its
    # letters scaled by T as well
    field = ring.base if isinstance(ring, PolyRing) else ring
    for n in (2, 3, 4):
        letters = c_letter_seq((1, n), field(rng.randint(2, 6)), 1, field)
        if isinstance(ring, PolyRing):
            t = ring.gen("T")
            letters = [(root, t * ring(param)) for root, param in letters]
        assert product_of_elementaries(ring, n, letters).is_identity()
        assert _definitional_product(ring, n, letters) == \
            [list(r) for r in GroupMatrix.identity(ring, n).rows]


def test_commutator_relations_type_a():
    # [x_ij(a), x_kl(b)] = 1 when j != k and i != l
    # [x_ij(a), x_jl(b)] = x_il(ab) when i != l
    # [x_ij(a), x_ki(b)] = x_kj(-ab) when j != k
    rng = random.Random("chevalley-comm")
    for field in (QQ, GF(7)):
        for _ in range(20):
            a = field(rng.randint(-9, 9))
            b = field(rng.randint(-9, 9))
            x12 = elem((1, 2), a, 4, field)
            x34 = elem((3, 4), b, 4, field)
            assert commutator(x12, x34).is_identity()
            x23 = elem((2, 3), b, 4, field)
            assert commutator(x12, x23) == elem((1, 3), a * b, 4, field)
            x31 = elem((3, 1), b, 4, field)
            assert commutator(x12, x31) == elem((3, 2), -(a * b), 4, field)


def test_w_elem_sl2():
    w = w_elem((1, 2), Fraction(1), 2, QQ)
    assert w.rows == ((Fraction(0), Fraction(1)),
                      (Fraction(-1), Fraction(0)))


def test_w_elem_sl3_block():
    u = Fraction(5)
    w = w_elem((1, 2), u, 3, QQ)
    assert w.entry(1, 2) == u
    assert w.entry(2, 1) == Fraction(-1, 5)
    assert w.entry(1, 1) == 0 and w.entry(2, 2) == 0
    assert w.entry(3, 3) == 1


def test_w_elem_inverse_is_w_of_minus_u():
    rng = random.Random("w-inverse")
    for field in (QQ, GF(11)):
        for _ in range(15):
            u = field(rng.randint(1, 10))
            w = w_elem((1, 2), u, 2, field)
            assert w.inverse() == w_elem((1, 2), -u, 2, field)
            assert (w * w_elem((1, 2), -u, 2, field)).is_identity()


def test_w_elem_needs_a_unit():
    with pytest.raises(ZeroDivisionError):
        w_elem((1, 2), 0, 2, QQ)
    with pytest.raises(ZeroDivisionError):
        w_elem((1, 2), GF(7)(0), 2, GF(7))


def test_h_elem_is_the_expected_diagonal():
    u = Fraction(7, 2)
    h = h_elem((1, 2), u, 3, QQ)
    assert h.entry(1, 1) == u
    assert h.entry(2, 2) == Fraction(2, 7)
    assert h.entry(3, 3) == 1
    assert all(h.entry(i, j) == 0
               for i in range(1, 4) for j in range(1, 4) if i != j)
    assert h_elem((1, 2), 1, 3, QQ).is_identity()


def test_h_elem_multiplicative_over_f11():
    field = GF(11)
    units = field.units()
    rng = random.Random("h-mult")
    for _ in range(30):
        u = units[rng.randrange(len(units))]
        v = units[rng.randrange(len(units))]
        lhs = h_elem((2, 3), u, 3, field) * h_elem((2, 3), v, 3, field)
        assert lhs == h_elem((2, 3), u * v, 3, field)


def test_eval_matrix_examples():
    ring = PolyRing(QQ, ("T",))
    t = ring.gen("T")
    u = Fraction(4)
    m = elem((1, 2), t * u, 2, ring)
    assert eval_matrix(m, 0).is_identity()
    assert eval_matrix(m, 1) == elem((1, 2), u, 2, QQ)


def test_eval_commutes_with_multiplication():
    # eval_matrix reads T = 0 and T = 1 off the stored coefficients; at
    # those and at t0 it must also equal entrywise evaluate and the
    # definitional sum, zero entries included.  F_9 stores FqElements.
    for field in (GF(7), QQ, GF(9)):
        rng = random.Random("eval-mult")
        ring = PolyRing(field, ("T",))
        t = ring.gen("T")
        elements = None if field is QQ else list(field.elements())

        def draw():
            if field is GF(7):
                return field(rng.randint(0, 6))
            if elements is None:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            return rng.choice(elements)

        zeros = 0
        for _ in range(20):
            a = elem((1, 2), t * draw(), 3, ring)
            b = elem((2, 3), t * t * draw(), 3, ring)
            c = elem((3, 1), t * draw(), 3, ring)
            prod = a * b * c
            t0 = draw()
            assert eval_matrix(prod, t0) == \
                eval_matrix(a, t0) * eval_matrix(b, t0) * eval_matrix(c, t0)
            assert eval_matrix(prod, t0).det() == field.one
            for x in (field.zero, field.one, t0):
                got = eval_matrix(prod, x)
                for i in range(3):
                    for j in range(3):
                        entry = prod.rows[i][j]
                        zeros += not entry
                        want = field.zero
                        for (k,), coeff in entry.terms.items():
                            want = want + coeff * x ** k
                        assert got.rows[i][j] == \
                            entry.evaluate({"T": x}) == want
        assert zeros


def test_construction_checks_determinant():
    with pytest.raises(ValueError):
        GroupMatrix(QQ, [[2, 0], [0, 2]])
    GroupMatrix(QQ, [[2, 0], [0, Fraction(1, 2)]])
    # rows that already hold polynomials of the ring are still checked
    t, zero = Q_T.gen("T"), Q_T.zero
    with pytest.raises(ValueError, match="determinant is not 1"):
        GroupMatrix(Q_T, [[t, zero], [zero, t]])
    m = GroupMatrix(Q_T, [[t, Q_T.one], [t * t - 1, t]])
    assert m.rows == ((t, Q_T.one), (t * t - 1, t))
    # and polynomials of another ring, or mixed rows, are coerced
    with pytest.raises(ValueError, match="is not in"):
        GroupMatrix(Q_T, [[F7_T.one, F7_T.zero], [F7_T.zero, F7_T.one]])
    m = GroupMatrix(Q_T, [[t, 1], [t * t - 1, t]])
    assert all(x.ring is Q_T for row in m.rows for x in row)


def test_size_and_ring_mixing_is_an_error():
    a = elem((1, 2), 1, 2, QQ)
    b = elem((1, 2), 1, 3, QQ)
    with pytest.raises(ValueError):
        a * b
    c = elem((1, 2), 1, 2, GF(5))
    with pytest.raises(ValueError):
        a * c


def test_det_preserved_under_random_products():
    rng = random.Random("det-products")
    field = GF(7)
    roots = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    m = GroupMatrix.identity(field, 3)
    for _ in range(40):
        root = roots[rng.randrange(len(roots))]
        m = m * elem(root, field(rng.randint(0, 6)), 3, field)
        assert m.det() == field.one


def test_dense_8x8_inverse_over_q_t_is_fast():
    # x_L * x_U with every letter a + bT: no entry is zero
    ring = PolyRing(QQ, ("T",))
    t = ring.gen("T")
    rng = random.Random("dense-8x8")

    def letters(lower):
        return [((i, j), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 + rng.randint(1, 9) * t)
                for i in range(1, 9) for j in range(1, 9)
                if (i > j if lower else i < j)]

    m = (product_of_elementaries(ring, 8, letters(True))
         * product_of_elementaries(ring, 8, letters(False)))
    assert all(x for row in m.rows for x in row)
    t0 = time.perf_counter()
    inv = m.inverse()
    assert time.perf_counter() - t0 < 1.0
    assert (m * inv).is_identity() and (inv * m).is_identity()


@pytest.mark.parametrize("call, message", [
    (lambda: GroupMatrix(QQ, [[1, 0]]), "matrix must be square"),
    (lambda: eval_matrix(
        GroupMatrix.identity(PolyRing(QQ, ("X", "Y")), 2), 0),
     "eval_matrix needs a matrix over a univariate ring"),
], ids=["not-square", "eval-over-k[X,Y]"])
def test_matrix_refusals_name_the_problem(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
