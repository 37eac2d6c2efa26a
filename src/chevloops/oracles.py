"""Desk-scale brute-force oracles: tame symbols, Milnor K2 presentations of
finite fields, and bar-resolution Schur multipliers of small matrix groups.

These are deliberately independent of the loop and word layers: the tame
symbol is computed straight from valuations, the K2 presentation of F_q
(bilinearity along a primitive root, 2(q-1)^2 + q - 2 rows, the same
relation lattice as all 2(q-1)^3 bilinearity rows) goes to exact Smith
normal form, and H2 of a finite group G is assembled from its Sylow
subgroups P.  The p-part of H2(G) embeds in H2(P) by transfer, and equals
the coinvariants of H2(P) under the normalizer when P is abelian (Brown,
Cohomology of Groups, III.9-10; Swan, Illinois J. Math. 4, 1960).  H2(P)
is ker d2 / im d3 of the normalized bar complex of P with integer
coefficients, d3 only on the cells [s|h|k] with s in a generating set of P,
which span im d3 (Brown, I.5).  It is read off modular certificates, not an
integer Smith form of d3: ranks at one prime not dividing |P| show it is
finite, and since |P| annihilates it (Brown, III.10.2) it comes from a local
Smith form of d3 mod a power of p (Dumas, Saunders and Villard, JSC 32, 2001).
That answer is a divisibility chain, so its diagonal presentation carries
itself as Smith form; only the K2 presentation calls ``smith_normal_form``.
Finite-field groups serve as validation data only.
"""

from __future__ import annotations

import functools
import math
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

    ``int`` and ``Fraction`` arguments are read as they are; anything else
    goes through ``Fraction`` first.
    """
    if not _checked_prime(p):
        raise ValueError(f"{p} is not prime")
    if type(a) is not int and type(a) is not Fraction:
        a = Fraction(a)
    if type(b) is not int and type(b) is not Fraction:
        b = Fraction(b)
    na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
    if not na or not nb:
        raise ZeroDivisionError("tame symbols need nonzero arguments")
    va = vb = 0
    while not na % p:
        na //= p
        va += 1
    while not da % p:
        da //= p
        va -= 1
    while not nb % p:
        nb //= p
        vb += 1
    while not db % p:
        db //= p
        vb -= 1
    val = pow(na * pow(da, -1, p), vb, p) if vb else 1
    if va:
        val = val * pow(nb * pow(db, -1, p), -va, p) % p
    # the sign (-1)^(v(a) v(b)) is -1 exactly when both valuations are odd
    return p - val if va & vb & 1 else val


class AbelianGroupPresentation:
    """Generators, an integer relation matrix (rows are relations) and its
    Smith form ``snf``, which the caller computes.

    ``invariant_factors`` lists the torsion coefficients (each >= 2, in a
    divisibility chain); ``snf_diagonal`` keeps the full nonzero diagonal
    of the Smith form, including 1s.
    """

    def __init__(self, generators, relations: SparseIntMatrix,
                 snf: SNFResult, metadata=None):
        if relations.ncols != len(generators):
            raise ValueError("relation matrix width must match generators")
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
    pairs of units, bilinearity along a primitive root g, and
    {u, 1-u} = 0.

    With m = q - 1 and g the first unit of order m, the relations are, in
    this order, {ug, v} - {u, v} - {g, v} and {u, vg} - {u, v} - {u, g}
    for every pair (u, v), then {u, 1-u} for u != 1: 2m^2 + m - 1 rows
    (464 at q = 16).  Each is a bilinearity row of the definitional
    presentation, and together they span all 2m^3 of them.  Write
    B(u1, u2, v) = {u1 u2, v} - {u1, v} - {u2, v}; then
    B(u, 1, v) = B(1, g, v) (both are -{1, v}) and
        B(u, g^(k+1), v) = B(u g^k, g, v) - B(g^k, g, v) + B(u, g^k, v),
    so, every unit being a power of g, induction on k reaches every
    first-slot row, and the second slot is the same.  The relation
    lattice, hence the Smith form, is the definitional one.

    Supported for prime powers q <= 16.  The Smith form comes out trivial
    for every such q, matching the classical vanishing.
    """
    from .rings import GF
    if q > 16:
        raise ValueError(f"q={q} is out of range; the field table stops at 16")
    field = GF(q)
    units = field.units()
    m = len(units)
    one = field.one
    pos = {u: a for a, u in enumerate(units)}
    g = next(u for u in units
             if all(u ** (m // p) != one for p in prime_factors(m)))
    ig = pos[g]
    times_g = [pos[u * g] for u in units]
    # index of 1 - u, or None for u = 1
    opp = [pos.get(one - u) for u in units]
    names = [str(u) for u in units]
    labels = [f"{{{s},{t}}}" for s in names for t in names]
    entries = []
    row = 0
    for a in range(m):
        ag = times_g[a] * m
        for b in range(m):
            entries += ((row, ag + b, 1), (row, a * m + b, -1),
                        (row, ig * m + b, -1))
            row += 1
    for a in range(m):
        for b in range(m):
            entries += ((row, a * m + times_g[b], 1), (row, a * m + b, -1),
                        (row, a * m + ig, -1))
            row += 1
    for a, w in enumerate(opp):
        if w is not None:
            entries.append((row, a * m + w, 1))
            row += 1
    relations = SparseIntMatrix(row, len(labels), entries)
    return AbelianGroupPresentation(labels, relations,
                                    smith_normal_form(relations),
                                    metadata={"q": q})


def _enumerate_group(gens: list[GroupMatrix], bound: int):
    """The group generated by ``gens``, breadth first from the identity.

    Returns ``(elems, act, parent)``: ``elems[0]`` is the identity,
    ``act[s][i]`` is the index of ``elems[i] * gens[s]``, and for i > 0
    ``parent[i] = (j, s)`` with j < i and ``elems[i] = elems[j] * gens[s]``.
    Stops at bound + 1 elements, so a longer list means order > bound
    (``act`` is then incomplete).
    """
    ring, n = gens[0].ring, gens[0].n
    for g in gens:
        if g.ring != ring or g.n != n:
            raise ValueError("generators must share one ring and size")
    identity = GroupMatrix.identity(ring, n)
    index = {identity: 0}
    elems = [identity]
    parent = [None]
    act: list[list[int]] = [[] for _ in gens]
    for i, g in enumerate(elems):        # elems grows: a breadth-first queue
        for s, h in enumerate(gens):
            x = g * h
            j = index.get(x)
            if j is None:
                j = index[x] = len(elems)
                elems.append(x)
                parent.append((i, s))
                if len(elems) > bound:
                    return elems, act, parent
            act[s].append(j)
    return elems, act, parent


def _cayley_table(act, parent) -> list[list[int]]:
    """``right[b][a]``, the index of a * b, so ``right[b]`` is right
    multiplication by b.  Built from integer lookups only: for
    b = parent(b) * s, a * b = act_s[a * parent(b)]."""
    right = [list(range(len(parent)))]
    for j, s in parent[1:]:
        right.append(list(map(act[s].__getitem__, right[j])))
    return right


# A refusal bound on the (|P| - 1)^3 columns of the full d3 of a Sylow P
MAX_BAR_COLUMNS = 20_000
MAX_BAR_ORDER = 1 + _iroot(MAX_BAR_COLUMNS, 3)   # 28
# Largest group the Schur oracle enumerates: SL2(F9) has 720 elements,
# and the Cayley table's |G|^2 slots stay under 8 MiB.
MAX_GROUP_ORDER = 1024


def _power(right, x: int, k: int) -> int:
    y = 0
    while k:
        if k & 1:
            y = right[x][y]
        x = right[x][x]
        k >>= 1
    return y


def _closure(right, gens: list[int]) -> list[int]:
    """The subgroup generated by ``gens``, the identity first."""
    sub, seen = [0], {0}
    for x in sub:
        for s in gens:
            y = right[s][x]
            if y not in seen:
                seen.add(y)
                sub.append(y)
    return sub


def _conjugate(right, inv, n: int, a: int) -> int:
    """n a n^-1."""
    return right[inv[n]][right[a][n]]


def _sylow(right, inv, p: int, size: int) -> list[int]:
    """A Sylow p-subgroup (``size`` elements), the identity first.

    It grows by one p-element at a time that normalizes the subgroup so
    far, so each step stays a p-group.  Such an element exists until the
    size is reached: a smaller p-subgroup is proper in its normalizer
    inside a Sylow subgroup that contains it.
    """
    p_elems = [x for x in range(1, len(right)) if _power(right, x, size) == 0]
    gens: list[int] = []
    sub = [0]
    while len(sub) < size:
        members = set(sub)
        gens.append(next(x for x in p_elems if x not in members and all(
            _conjugate(right, inv, x, a) in members for a in gens)))
        sub = _closure(right, gens)
    return sub


def _column(terms) -> dict[int, int]:
    col: dict[int, int] = {}
    for r, s in terms:
        if r is None:
            continue
        col[r] = col.get(r, 0) + s
        if col[r] == 0:
            del col[r]
    return col


def _generators(right, sub: list[int]) -> list[int]:
    """A generating set S of ``sub``, greedily in its order: an element
    joins when S does not yet generate it, at least doubling <S>."""
    gens: list[int] = []
    for x in sub:
        if x not in _closure(right, gens):
            gens.append(x)
    return gens


def _bar_complex(right, sub: list[int]):
    """Columns of d2 and d3 of the normalized bar complex of the subgroup
    ``sub`` of the group with Cayley table ``right`` (identity 0), d3 only
    on the cells [s|h|k] with s in S = ``_generators(right, sub)``.  These
    span im d3 over Z: for b, h, k in the subgroup, d3 d4 [s|b|h|k] = 0 is
        d3[sb|h|k] = d3[b|h|k] + d3[s|bh|k] - d3[s|b|hk] + d3[s|b|h],
    and induction on the first slot as a word in S reaches every cell (a
    cell with e in it is 0, and the identity holds there too).

    Returns ``(d2_cols, d3_cols, pair)``: sparse dicts over the bases [g]
    and [g|h] of the non-identity elements of ``sub``, in the order
    (g, h) and (g, h, k) with the last slot fastest, and ``pair(g, h)``,
    the row of [g|h] (None when g or h is the identity).  Raises
    ``RuntimeError`` when ``sub`` is not closed under multiplication.
    """
    members = set(sub)
    if any(right[h][g] not in members for g in sub for h in sub):
        raise RuntimeError(f"the {len(sub)}-element subgroup is not closed "
                           f"under multiplication")
    nontriv = [g for g in sub if g]
    m = len(nontriv)
    # basis position of [g] and, through slot[g] * m + slot[h], of [g|h]
    slot: list[int | None] = [None] * len(right)
    for s, g in enumerate(nontriv):
        slot[g] = s

    def pair(g, h):
        return None if not g or not h else slot[g] * m + slot[h]

    # d2[g|h] = [h] - [gh] + [g], dropping the degenerate [e]
    d2_cols = [_column(((slot[h], 1), (slot[right[h][g]], -1), (slot[g], 1)))
               for g in nontriv for h in nontriv]
    # d3[g|h|k] = [h|k] - [gh|k] + [g|hk] - [g|h], dropping tuples with e
    d3_cols = [_column(((pair(h, k), 1), (pair(right[h][g], k), -1),
                        (pair(g, right[k][h]), 1), (pair(g, h), -1)))
               for g in _generators(right, sub)
               for h in nontriv for k in nontriv]
    return d2_cols, d3_cols, pair


def _check_cycles(d2_cols, cols, message: str):
    """Raise ``RuntimeError(message)`` unless d2 kills every column.  On d3,
    d2 d3[s|h|k] = [(sh)k] - [s(hk)]: associativity at s in S, hence on P,
    since the a with a(hk) = (ah)k for all h, k are closed under products."""
    for coldict in cols:
        acc: dict[int, int] = {}
        for r, v in coldict.items():
            for rr, w in d2_cols[r].items():
                acc[rr] = acc.get(rr, 0) + v * w
        if any(acc.values()):
            raise RuntimeError(message)


def _conjugation_columns(right, inv, sub: list[int], pair):
    """Columns (c_n - 1)([a|b] - [b|a]) for n in the normalizer of the
    abelian subgroup ``sub`` and a, b in it, where c_n maps [a|b] to
    [n a n^-1 | n b n^-1].  They span the relations of the coinvariants
    H_2(P)_N, since [a|b] - [b|a] over a, b in P spans H_2(P) = Lambda^2 P
    modulo boundaries."""
    members = set(sub)
    out = []
    for n in range(len(right)):
        c = {a: _conjugate(right, inv, n, a) for a in sub}
        if not members.issuperset(c.values()):
            continue
        out += [_column(((pair(a, b), -1), (pair(b, a), 1),
                         (pair(c[a], c[b]), 1), (pair(c[b], c[a]), -1)))
                for i, a in enumerate(sub) for b in sub[i + 1:]]
    return out


def _h2_torsion(d2_cols, d3_cols, order: int, p: int) -> list[int]:
    """The p-part of H_2 = ker d2 / im d3 as sorted powers of p, from
    modular certificates.

    With m = order - 1, rank d2 = m and rank d3 = m^2 - m over F_l for
    one prime l not dividing the order certify both ranks over Q (d2 has
    m rows, and d2 . d3 = 0 caps rank d3), so H_2 is finite.  The order
    annihilates H_2, so each p-power factor has v_p <= v_p(order) = k - 1.
    The Smith form of d3 is read mod p^(k+1), one power beyond that bound:
    it must have m^2 - m nonzero factors there (none lost to a valuation
    above k) and none of valuation k or more.
    """
    m = order - 1
    stop = m * m - m
    # nonzero columns, short ones first (a stable sort): that keeps fill low
    d2, d3 = (sorted(filter(None, cols), key=len)
              for cols in (d2_cols, d3_cols))
    ell = _next_prime(10 ** 6)
    while order % ell == 0:
        ell = _next_prime(ell)
    if _local_smith(d2, ell, 1, m)[0] != m or \
            _local_smith(d3, ell, 1, stop)[0] != stop:
        raise RuntimeError(f"bar complex failed its rank check mod {ell}")
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
    return sorted(p ** v for v in valuations)


def _merge_p_parts(parts: list[list[int]]) -> list[int]:
    """One divisibility chain, without 1s, from the p-parts' factors."""
    return [d for d in _divisibility_chain([d for part in parts for d in part])
            if d > 1]


def _p_part(right, inv, sub: list[int], p: int) -> list[int]:
    """Invariant factors of the p-part of H_2 of the group with Cayley
    table ``right``, from ``sub``, which must be a Sylow p-subgroup P.

    Its bar complex carries every certificate of ``_h2_torsion`` and
    d2 . d3 = 0.  Then (Brown, Cohomology of Groups, III.9-10):
    - P = G: the p-part is H_2(P);
    - H_2(P) = 0: the p-part is 0, since it embeds in H_2(P) by transfer;
    - P abelian: it is the coinvariants H_2(P)_{N_G(P)} (Swan, Illinois
      J. Math. 4, 1960), read from d3 with ``_conjugation_columns``
      appended, each checked to be a cycle first;
    - otherwise ``ValueError``: that case needs stable elements.
    A ``sub`` of the wrong size or not closed raises ``RuntimeError``.
    """
    order = len(right)
    size = p ** _strip_p(order, p)[1]
    if len(sub) != size:
        raise RuntimeError(f"the Sylow {p}-subgroup has {len(sub)} elements, "
                           f"not {size}")
    d2_cols, d3_cols, pair = _bar_complex(right, sub)
    _check_cycles(d2_cols, d3_cols,
                  "bar-complex boundary does not square to zero")
    h2 = _h2_torsion(d2_cols, d3_cols, size, p)
    if size == order or not h2:
        return h2
    if any(right[a][b] != right[b][a] for a in sub for b in sub):
        raise ValueError(
            f"the Sylow {p}-subgroup is not abelian and has H_2 = "
            f"{' x '.join(f'Z/{d}' for d in h2)}; its p-part needs stable "
            f"elements, which are not implemented")
    cols = _conjugation_columns(right, inv, sub, pair)
    _check_cycles(d2_cols, cols, "a conjugation column is not a cycle")
    return _h2_torsion(d2_cols, d3_cols + cols, size, p)


def schur_multiplier(gens: list[GroupMatrix],
                     order_bound: int = 200) -> AbelianGroupPresentation:
    """H_2(G, Z) of the finite matrix group generated by ``gens``.

    Enumerates the group, stopping with an error past ``order_bound`` or
    ``MAX_GROUP_ORDER`` elements, and refuses it when a Sylow subgroup P
    would give d3 more than ``MAX_BAR_COLUMNS`` columns ((|P| - 1)^3, so
    |P| <= 28).  Builds the Cayley table from the generators' action on
    element indices, and reads each p-part of H_2 off a Sylow p-subgroup
    (see ``_p_part``).  Raises ``RuntimeError`` when a certificate fails.
    The result is returned as a diagonal presentation, which is its own
    Smith form, so no integer Smith form runs.
    """
    if not gens:
        raise ValueError("at least one generator is required")
    elems, act, parent = _enumerate_group(
        gens, min(order_bound, MAX_GROUP_ORDER))
    order = len(elems)
    if order > order_bound:
        raise ValueError(f"order bound {order_bound} exceeded: the group has "
                         f"more than {order_bound} elements")
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"the group has more than {MAX_GROUP_ORDER} "
                         f"elements (MAX_GROUP_ORDER)")
    sizes = {p: p ** _strip_p(order, p)[1]
             for p in sorted(prime_factors(order))}
    for p, size in sizes.items():
        if size > MAX_BAR_ORDER:
            raise ValueError(
                f"the Sylow {p}-subgroup has {size} elements, so d3 would "
                f"have more than {MAX_BAR_COLUMNS} columns "
                f"(MAX_BAR_COLUMNS = {MAX_BAR_COLUMNS})")
    right = _cayley_table(act, parent)
    inv = [r.index(0) for r in right]
    torsion = _merge_p_parts([
        _p_part(right, inv, list(range(order)) if size == order
                else _sylow(right, inv, p, size), p)
        for p, size in sizes.items()])
    labels = [f"h{i + 1}" for i in range(len(torsion))]
    relations = SparseIntMatrix(
        len(torsion), len(torsion),
        [(i, i, d) for i, d in enumerate(torsion)])
    meta = {
        "group_order": order,
        "complex": "normalized bar of each Sylow subgroup, degrees 1..3",
        "note": "finite matrix group used as oracle-validation data only",
    }
    return AbelianGroupPresentation(labels, relations, SNFResult(torsion, 0),
                                    metadata=meta)
