"""Desk-scale brute-force oracles: tame symbols, Milnor K2 presentations of
finite fields, and bar-resolution Schur multipliers of small matrix groups.

These are deliberately independent of the loop and word layers: the tame
symbol is computed straight from valuations, the K2 presentations feed a
generators-and-relations matrix to exact Smith normal form, and H2 of a
finite group is ker d2 / im d3 of the normalized bar complex with integer
coefficients.  H2 is read off modular certificates rather than an integer
Smith form of d3: ranks at one prime not dividing |G| show it is finite,
and since |G| annihilates it (Brown, Cohomology of Groups, III.10.2) each
p-part for p | |G| comes from a local Smith form of d3 mod a power of p
(Dumas, Saunders and Villard, JSC 32, 2001).  Finite-field groups serve
as validation data only.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from .chevalley import GroupMatrix
from .rings import MAX_PRIME_TEST, _iroot, is_prime
from .snf import (SNFResult, SparseIntMatrix, _divisibility_chain,
                  _local_smith, _next_prime, smith_normal_form)


_SMALL_PRIMES = [p for p in range(2, 100) if is_prime(p)]


def _rho_divisor(n: int) -> int:
    """A proper divisor of a composite n with no prime factor below 100,
    by Pollard's rho with Brent's cycle search (Brent, BIT 20, 1980):
    x -> x^2 + c from x = 2, with c = 1, 2, ... in turn until one splits n.
    """
    c = 0
    while True:
        c += 1
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = math.gcd(acc, n)
                k += 128
            r *= 2
        if g == n:
            # the batched product hit 0 mod n: step again from ys one by one
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_factors(n: int) -> set[int]:
    """Primes dividing |n| (empty for 0 and +-1), for |n| < MAX_PRIME_TEST.

    Primes below 100 are divided out, the rest is split by Pollard-Brent
    rho, and every factor returned is proven prime by ``is_prime``.
    """
    n = abs(n)
    if n >= MAX_PRIME_TEST:
        raise ValueError(f"{n} is too large to factor "
                         f"(MAX_PRIME_TEST = {MAX_PRIME_TEST})")
    out: set[int] = set()
    if n < 2:
        return out
    for p in _SMALL_PRIMES:
        if n % p == 0:
            out.add(p)
            n = _strip_p(n, p)[0]
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if is_prime(m):
            out.add(m)
        else:
            d = _rho_divisor(m)
            todo += [d, m // d]
    return out


def _strip_p(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return n, v


@functools.lru_cache(maxsize=256)
def _checked_prime(p: int) -> bool:
    return is_prime(p)


def tame_symbol(a, b, p: int) -> int:
    """The tame symbol of {a, b} at p, as an integer in [1, p).

    For nonzero rationals with p-adic valuations v(a), v(b):

        (-1)^(v(a) v(b)) * a^v(b) * b^(-v(a))   reduced mod p.
    """
    if not _checked_prime(p):
        raise ValueError(f"{p} is not prime")
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ZeroDivisionError("tame symbols need nonzero arguments")
    na, va_n = _strip_p(a.numerator, p)
    da, va_d = _strip_p(a.denominator, p)
    nb, vb_n = _strip_p(b.numerator, p)
    db, vb_d = _strip_p(b.denominator, p)
    va = va_n - va_d
    vb = vb_n - vb_d
    a_unit = (na * pow(da, -1, p)) % p
    b_unit = (nb * pow(db, -1, p)) % p
    val = pow(-1, va * vb, p)
    val = (val * pow(a_unit, vb, p)) % p
    val = (val * pow(b_unit, -va, p)) % p
    return val


class AbelianGroupPresentation:
    """Generators plus an integer relation matrix (rows are relations).

    ``invariant_factors`` lists the torsion coefficients (each >= 2, in a
    divisibility chain); ``snf_diagonal`` keeps the full nonzero diagonal
    of the Smith form, including 1s.
    """

    def __init__(self, generators, relations: SparseIntMatrix, metadata=None):
        if relations.ncols != len(generators):
            raise ValueError("relation matrix width must match generators")
        snf: SNFResult = smith_normal_form(relations)
        self.generators = list(generators)
        self.relations = relations
        self.snf_diagonal = list(snf.invariant_factors)
        self.invariant_factors = snf.torsion
        self.free_rank = snf.free_rank
        self.metadata = dict(metadata or {})

    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0

    def __repr__(self):
        tor = " x ".join(f"Z/{d}" for d in self.invariant_factors)
        free = f"Z^{self.free_rank}" if self.free_rank else ""
        desc = " x ".join(x for x in (free, tor) if x) or "0"
        return f"AbelianGroupPresentation({desc})"


def milnor_k2_finite_field(q: int) -> AbelianGroupPresentation:
    """Presentation of the symbol group of F_q: generators {u, v} over all
    pairs of units, bilinearity in each slot, and {u, 1-u} = 0.

    Supported for prime powers q <= 16.  The Smith form comes out trivial
    for every such q, matching the classical vanishing.
    """
    from .rings import GF
    if q > 16:
        raise ValueError(f"q={q} is out of range; the field table stops at 16")
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
    one = field.one
    for u in units:
        w = one - u
        if w:
            entries.append((row, gi[(u, w)], 1))
            row += 1
    relations = SparseIntMatrix(row, len(labels), entries)
    return AbelianGroupPresentation(labels, relations, metadata={"q": q})


def _enumerate_group(gens: list[GroupMatrix], bound: int):
    """The group generated by ``gens``, breadth first from the identity;
    stops at bound + 1 elements, so a longer list means order > bound."""
    ring, n = gens[0].ring, gens[0].n
    for g in gens:
        if g.ring != ring or g.n != n:
            raise ValueError("generators must share one ring and size")
    identity = GroupMatrix.identity(ring, n)
    seen = {identity}
    order = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                x = g * h
                if x not in seen:
                    seen.add(x)
                    order.append(x)
                    if len(order) > bound:
                        return order, identity
                    nxt.append(x)
        frontier = nxt
    return order, identity


MAX_BAR_COLUMNS = 20_000   # (|G| - 1)^3 columns of d3; SL2(F3) needs 12,167
MAX_BAR_ORDER = 1 + _iroot(MAX_BAR_COLUMNS, 3)   # 28


def _bar_complex(elems, identity):
    """Columns of d2 and d3 of the normalized bar complex of the group
    ``elems``: sparse dicts over the bases [g] and [g|h] of non-identity
    elements, in the order (g, h) and (g, h, k) with the last slot fastest.
    """
    index = {g: i for i, g in enumerate(elems)}
    mul = [[index[a * b] for b in elems] for a in elems]
    e = index[identity]
    nontriv = [i for i in range(len(elems)) if i != e]
    m = len(nontriv)
    # basis position of [g] and, through slot[g] * m + slot[h], of [g|h]
    slot = [None] * len(elems)
    for s, i in enumerate(nontriv):
        slot[i] = s

    def column(terms):
        col: dict[int, int] = {}
        for r, s in terms:
            if r is None:
                continue
            col[r] = col.get(r, 0) + s
            if col[r] == 0:
                del col[r]
        return col

    def pair(g, h):
        return None if g == e or h == e else slot[g] * m + slot[h]

    # d2[g|h] = [h] - [gh] + [g], dropping the degenerate [e]
    d2_cols = [column(((slot[h], 1), (slot[mul[g][h]], -1), (slot[g], 1)))
               for g in nontriv for h in nontriv]
    # d3[g|h|k] = [h|k] - [gh|k] + [g|hk] - [g|h], dropping tuples with e
    d3_cols = [column(((pair(h, k), 1), (pair(mul[g][h], k), -1),
                       (pair(g, mul[h][k]), 1), (pair(g, h), -1)))
               for g in nontriv for h in nontriv for k in nontriv]
    return d2_cols, d3_cols


def _elimination_order(cols: list[dict[int, int]]) -> list[dict[int, int]]:
    """Distinct nonzero columns up to sign, shuffled with a fixed seed and
    then stably sorted by length: short columns first keeps fill low."""
    seen = set()
    out = []
    for col in cols:
        if not col:
            continue
        key = tuple(sorted(col.items()))
        if key[0][1] < 0:
            key = tuple((r, -v) for r, v in key)
        if key not in seen:
            seen.add(key)
            out.append(col)
    random.Random(0x5EED).shuffle(out)
    out.sort(key=len)
    return out


def _h2_torsion(d2_cols, d3_cols, order: int) -> list[int]:
    """Invariant factors of H_2 = ker d2 / im d3, from modular certificates.

    With m = order - 1, rank d2 = m and rank d3 = m^2 - m over F_l for
    one prime l not dividing the order certify both ranks over Q (d2 has
    m rows, and d2 . d3 = 0 caps rank d3), so H_2 is finite.  The order
    annihilates H_2, so only primes p | order occur, each with
    v_p(factor) <= v_p(order) = k - 1.  The Smith form of d3 is read mod
    p^(k+1), one power beyond that bound: it must have m^2 - m nonzero
    factors there (none lost to a valuation above k) and none of
    valuation k or more.
    """
    m = order - 1
    stop = m * m - m
    d2 = _elimination_order(d2_cols)
    d3 = _elimination_order(d3_cols)
    ell = _next_prime(10 ** 6)
    while order % ell == 0:
        ell = _next_prime(ell)
    if _local_smith(d2, ell, 1, m)[0] != m or \
            _local_smith(d3, ell, 1, stop)[0] != stop:
        raise RuntimeError(f"bar complex failed its rank check mod {ell}")
    parts = []
    for p in sorted(prime_factors(order)):
        k = _strip_p(order, p)[1] + 1
        units, valuations = _local_smith(d3, p, k + 1, stop)
        if units + len(valuations) != stop:
            raise RuntimeError(
                f"Smith form of d3 mod {p}^{k + 1} has "
                f"{units + len(valuations)} nonzero factors, not {stop}")
        if any(v >= k for v in valuations):
            raise RuntimeError(
                f"Smith form of d3 has a factor divisible by {p}^{k}, "
                f"which the group order {order} does not annihilate")
        parts.append([p ** v for v in valuations])
    return _merge_p_parts(parts)


def _merge_p_parts(parts: list[list[int]]) -> list[int]:
    """One divisibility chain, without 1s, from the p-parts' factors."""
    return [d for d in _divisibility_chain([d for part in parts for d in part])
            if d > 1]


def schur_multiplier(gens: list[GroupMatrix],
                     order_bound: int = 200) -> AbelianGroupPresentation:
    """H_2(G, Z) of the finite matrix group generated by ``gens``.

    Enumerates the group, stopping with an error past ``order_bound``
    elements or once d3 would have more than ``MAX_BAR_COLUMNS`` columns
    ((|G| - 1)^3, so |G| <= 28).  Assembles the normalized bar complex in
    degrees 1..3 over the integers, verifies d2 . d3 = 0 exactly, and
    reads off ker d2 / im d3 from modular certificates (see
    ``_h2_torsion``): ranks at one large prime, and a local Smith form of
    d3 at each prime dividing |G|.  Raises ``RuntimeError`` when a
    certificate fails.  The result is returned as a diagonal
    presentation.
    """
    if not gens:
        raise ValueError("at least one generator is required")
    elems, identity = _enumerate_group(
        gens, min(order_bound, MAX_BAR_ORDER))
    if len(elems) > order_bound:
        raise ValueError(f"order bound {order_bound} exceeded: the group has "
                         f"more than {order_bound} elements")
    if len(elems) > MAX_BAR_ORDER:
        raise ValueError(
            f"the group has more than {MAX_BAR_ORDER} elements, so d3 "
            f"would have more than {MAX_BAR_COLUMNS} columns "
            f"(MAX_BAR_COLUMNS = {MAX_BAR_COLUMNS})")
    d2_cols, d3_cols = _bar_complex(elems, identity)

    # the boundary must square to zero before any Smith form is trusted
    for coldict in d3_cols:
        acc: dict[int, int] = {}
        for r, v in coldict.items():
            for rr, w in d2_cols[r].items():
                acc[rr] = acc.get(rr, 0) + v * w
        if any(acc.values()):
            raise RuntimeError("bar-complex boundary does not square to zero")

    torsion = _h2_torsion(d2_cols, d3_cols, len(elems))
    labels = [f"h{i + 1}" for i in range(len(torsion))]
    relations = SparseIntMatrix(
        len(torsion), len(torsion),
        [(i, i, d) for i, d in enumerate(torsion)])
    meta = {
        "group_order": len(elems),
        "complex": "normalized bar, degrees 1..3",
        "note": "finite matrix group used as oracle-validation data only",
    }
    return AbelianGroupPresentation(labels, relations, metadata=meta)
