"""Sparse integer matrices and exact Smith normal form.

Both Smith forms here start with one sparse elimination, ``_unit_pivots``,
against pivots with a unit lead: over Z the units are +-1, over Z/p^k the
entries prime to p.  Its pivots are triangular until the first remainder
without a unit appears, and are kept fully reduced (Gauss-Jordan) from
then on, so every later column reduces in one pass.

``smith_normal_form`` splits the +-1 pivots off as unit invariant factors
and sends only the residual through a fraction-free Markowitz loop:
pivots of minimal absolute value (ties broken towards low fill), rows and
columns cleared with integer transvections, and the diagonal fixed up into
a divisibility chain by gcd/lcm exchanges.  A modular consistency check
recomputes the rank over the two smallest primes above 10^6 and every
invariant factor, eliminating the vectors of the longer side so that the
stop at full rank can fire, and refuses to return on a mismatch.

``_local_smith`` computes the Smith form over Z/p^k, eliminating the
non-unit remainders by minimal p-valuation.  With k = 1 it gives the ranks
of that cross-check; the Schur oracle reads the p-parts of H_2 from it.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Iterable, NamedTuple

from .rings import is_prime


class SparseIntMatrix:
    """Immutable sparse integer matrix with (row, col) -> value entries."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int,
                 entries: Iterable[tuple[int, int, int]] = ()):
        data: dict[tuple[int, int], int] = {}
        for i, j, v in entries:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i}, {j}) out of range")
            v = int(v)
            if v:
                w = data.get((i, j), 0) + v
                if w:
                    data[(i, j)] = w
                else:
                    data.pop((i, j), None)
        self.nrows = nrows
        self.ncols = ncols
        self.entries = data

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "SparseIntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        ent = [(i, j, v) for i, row in enumerate(rows)
               for j, v in enumerate(row) if v]
        return cls(nrows, ncols, ent)

    def permuted(self, row_perm: list[int], col_perm: list[int]):
        return SparseIntMatrix(
            self.nrows, self.ncols,
            [(row_perm[i], col_perm[j], v)
             for (i, j), v in self.entries.items()])

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(
            self.ncols, self.nrows,
            [(j, i, v) for (i, j), v in self.entries.items()])

    def __eq__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.entries) == \
            (other.nrows, other.ncols, other.entries)

    def __repr__(self):
        return (f"SparseIntMatrix({self.nrows}x{self.ncols}, "
                f"{len(self.entries)} nonzero)")


class SNFResult(NamedTuple):
    invariant_factors: list[int]   # nonzero diagonal, d1 | d2 | ...
    free_rank: int                 # columns (generators) minus rank

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def torsion(self) -> list[int]:
        return [d for d in self.invariant_factors if d > 1]


def _divisibility_chain(diag: list[int]) -> list[int]:
    # diag(a, b) ~ diag(gcd(a, b), lcm(a, b)); iterate to a chain
    d = sorted(abs(x) for x in diag)
    changed = True
    while changed:
        changed = False
        for a in range(len(d)):
            for b in range(a + 1, len(d)):
                if d[b] % d[a]:
                    g = math.gcd(d[a], d[b])
                    d[a], d[b] = g, d[a] * d[b] // g
                    changed = True
        d.sort()
    return d


def _sub(c: dict[int, int], f: int, piv: dict[int, int], q: int):
    """c -= f * piv in place, mod q (over Z when q = 0)."""
    for r, v in piv.items():
        nv = c.get(r, 0) - f * v
        if q:
            nv %= q
        if nv:
            c[r] = nv
        else:
            c.pop(r, None)


def _unit_pivots(cols: list[dict[int, int]], p: int, q: int,
                 stop: int) -> tuple[int, list[dict[int, int]]]:
    """Eliminate the sparse columns ``cols`` against pivots with a unit lead.

    Works over Z/q with q = p^k, where a unit is an entry prime to p, or
    over Z with p = q = 0, where a unit is +-1; either way each pivot step
    is invertible, so the pivots split off as unit invariant factors.
    Returns ``(units, rest)``: the number of pivots, and the nonzero
    remainders with no unit entry, reduced against every pivot so they
    vanish on all leads.  Once ``stop`` pivots exist the rest is not read
    and ``rest`` is empty.

    Pivots start triangular: pivot i is zero on the leads of pivots
    0..i-1, so a column is reduced against them in creation order, through
    chains of pivots.  The first nonzero remainder without a unit means the
    early stop may never fire; from then on the pivots are kept fully
    reduced (Gauss-Jordan): they are back-substituted once, so each is
    zero on every other lead, each later pivot clears its lead from the
    existing ones, and a column reduces in one pass.
    """
    pivots: list[dict[int, int]] = []
    leads: list[int] = []
    lead_of: dict[int, int] = {}
    rest: list[dict[int, int]] = []
    jordan = False

    def reduce(col: dict[int, int]) -> dict[int, int]:
        c = {r: v % q for r, v in col.items() if v % q} if q else dict(col)
        if jordan:
            for i, f in [(lead_of[r], v) for r, v in c.items()
                         if r in lead_of]:
                _sub(c, f, pivots[i], q)
            return c
        heap = [lead_of[r] for r in c if r in lead_of]
        heapify(heap)
        while heap:
            i = heappop(heap)
            f = c.get(leads[i])
            if not f:
                continue
            for r, v in pivots[i].items():
                nv = c.get(r, 0) - f * v
                if q:
                    nv %= q
                if nv:
                    if r not in c and r in lead_of:
                        heappush(heap, lead_of[r])
                    c[r] = nv
                else:
                    c.pop(r, None)
        return c

    for col in cols:
        c = reduce(col)
        # the highest unit row as lead: on the bar complexes this needs
        # 9-50% fewer entry updates than the first unit row
        if q:
            lead = max((r for r, v in c.items() if v % p), default=None)
        else:
            lead = max((r for r, v in c.items() if v in (1, -1)),
                       default=None)
        if lead is None:
            if c:
                rest.append(c)
                if not jordan:
                    jordan = True
                    # pivot i is zero on leads 0..i-1, and the later ones
                    # are already fully reduced
                    for i in range(len(pivots) - 2, -1, -1):
                        piv = pivots[i]
                        for j, f in [(lead_of[r], v) for r, v in piv.items()
                                     if lead_of.get(r, i) > i]:
                            _sub(piv, f, pivots[j], q)
            continue
        inv = pow(c[lead], -1, q) if q else c[lead]
        piv = {r: v * inv % q if q else v * inv for r, v in c.items()}
        if jordan:
            for other in pivots:
                f = other.get(lead)
                if f:
                    _sub(other, f, piv, q)
        lead_of[lead] = len(pivots)
        leads.append(lead)
        pivots.append(piv)
        if len(pivots) == stop:
            return stop, []
    return len(pivots), [c for c in map(reduce, rest) if c]


def _local_smith(cols: list[dict[int, int]], p: int, k: int,
                 stop: int) -> tuple[int, list[int]]:
    """Smith form over Z/p^k of the matrix with sparse columns ``cols``.

    Returns ``(units, valuations)``: the number of unit invariant factors
    and the p-valuations (each < k) of the others.  The unit pivots come
    from ``_unit_pivots`` (so once ``stop`` of them exist, valuations is
    empty); they split off as an invertible block, and the remainders,
    which vanish on every lead, are eliminated by minimal p-valuation.
    """
    q = p ** k
    units, rest = _unit_pivots(cols, p, q, stop)
    valuations: list[int] = []
    while rest:
        best = None
        for ci, c in enumerate(rest):
            for r, v in c.items():
                e = 0
                while v % p == 0:
                    v //= p
                    e += 1
                if best is None or e < best[0]:
                    best = (e, ci, r)
        e, ci, r = best
        pc = rest.pop(ci)
        pe = p ** e
        inv = pow(pc[r] // pe, -1, q)
        pc = {rr: v * inv % q for rr, v in pc.items()}
        valuations.append(e)
        kept = []
        for c in rest:
            b = c.get(r)
            if b:
                _sub(c, b // pe, pc, q)
            if c:
                kept.append(c)
        rest = kept
    return units, valuations


def _next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


def _markowitz_diagonal(entries: Iterable[tuple[int, int, int]]
                        ) -> list[int]:
    """A diagonal of the integer matrix with these (row, col, value)
    entries that is equivalent to it, not yet a divisibility chain."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, j, v in entries:
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, set()).add(i)

    def add_row(dst: int, src: int, c: int):
        rd = rows.setdefault(dst, {})
        for j, v in rows[src].items():
            nv = rd.get(j, 0) + c * v
            if nv:
                if j not in rd:
                    cols.setdefault(j, set()).add(dst)
                rd[j] = nv
            elif j in rd:
                del rd[j]
                cols[j].discard(dst)
                if not cols[j]:
                    del cols[j]
        if not rd:
            del rows[dst]

    def add_col(dst: int, src: int, c: int):
        for i in list(cols.get(src, ())):
            v = rows[i][src]
            ri = rows[i]
            nv = ri.get(dst, 0) + c * v
            if nv:
                if dst not in ri:
                    cols.setdefault(dst, set()).add(i)
                ri[dst] = nv
            elif dst in ri:
                del ri[dst]
                cols[dst].discard(i)
                if not cols[dst]:
                    del cols[dst]

    diag: list[int] = []
    while rows:
        # pivot: minimal |value|, then lowest fill (Markowitz), then position
        best_key = None
        pi = pj = -1
        for i, r in rows.items():
            li = len(r) - 1
            for j, v in r.items():
                key = (abs(v), li * (len(cols[j]) - 1), i, j)
                if best_key is None or key < best_key:
                    best_key = key
                    pi, pj = i, j
            if best_key is not None and best_key[:2] == (1, 0):
                break
        while True:
            v = rows[pi][pj]
            for i in list(cols[pj]):
                if i != pi:
                    add_row(i, pi, -(rows[i][pj] // v))
            for j in list(rows[pi]):
                if j != pj:
                    add_col(j, pj, -(rows[pi][j] // v))
            if len(rows[pi]) == 1 and len(cols[pj]) == 1:
                break
            # nonzero remainders survive: migrate the pivot to the smallest
            # of them; its absolute value strictly decreased, so this ends
            cand = [(abs(rows[i][pj]), i, pj) for i in cols[pj] if i != pi]
            cand += [(abs(rows[pi][j]), pi, j) for j in rows[pi] if j != pj]
            cand.append((abs(rows[pi][pj]), pi, pj))
            _, pi, pj = min(cand)
        diag.append(abs(rows[pi][pj]))
        del rows[pi]
        del cols[pj]

    return diag


def smith_normal_form(matrix: SparseIntMatrix) -> SNFResult:
    """Invariant factors (including 1s) and free rank of coker, columns
    read as generators and rows as relations.

    The columns first go through ``_unit_pivots`` over Z: a +-1 pivot is
    a unimodular step, so the Smith form is 1s for the pivots plus that
    of the residual, which alone goes through the Markowitz loop.  The
    rank cross-check mod two primes then eliminates the rows or the
    columns, whichever are more, and raises ``RuntimeError`` on a
    mismatch.
    """
    cols: dict[int, dict[int, int]] = {}
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in matrix.entries.items():
        cols.setdefault(j, {})[i] = v
        rows.setdefault(i, {})[j] = v
    full = min(matrix.nrows, matrix.ncols)
    units, residual = _unit_pivots(list(cols.values()), 0, 0, full)
    factors = [1] * units + _divisibility_chain(_markowitz_diagonal(
        (i, j, v) for j, c in enumerate(residual) for i, v in c.items()))
    free_rank = matrix.ncols - len(factors)

    # modular consistency: the rank over F_p equals the number of nonzero
    # invariant factors whenever p exceeds all of them.  On the longer
    # side there are more vectors than full rank, so the early stop can fire.
    first = _next_prime(max(factors + [10 ** 6]))
    vectors = list((rows if matrix.nrows > matrix.ncols else cols).values())
    for p in (first, _next_prime(first)):
        if _local_smith(vectors, p, 1, full)[0] != len(factors):
            raise RuntimeError(
                f"Smith normal form failed its mod-{p} rank cross-check")
    return SNFResult(factors, free_rank)
