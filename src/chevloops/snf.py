"""Sparse integer matrices and exact Smith normal form.

The elimination is fraction-free throughout: pivots are chosen by
minimal absolute value (ties broken towards low fill), rows and columns
are cleared with integer transvections, and the resulting diagonal is
fixed up into a divisibility chain by gcd/lcm exchanges.  A modular
consistency check recomputes the rank over the two smallest primes above
10^6 and every invariant factor, and refuses to return on a mismatch.

``_local_smith`` computes the Smith form over Z/p^k instead, by sparse
elimination against unit-lead pivots.  With k = 1 it gives the ranks of
that cross-check; the Schur oracle reads the p-parts of H_2 from it.
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


def _local_smith(cols: list[dict[int, int]], p: int, k: int,
                 stop: int) -> tuple[int, list[int]]:
    """Smith form over Z/p^k of the matrix with sparse columns ``cols``.

    Returns ``(units, valuations)``: the number of unit invariant factors
    and the p-valuations (each < k) of the others.  Columns are reduced in
    the order given against pivots with a unit lead; pivot i is zero on
    the leads of pivots 0..i-1, so reducing in creation order terminates.
    Once ``stop`` unit pivots exist the rest is not read and valuations
    is empty.  Otherwise the non-unit remainders are reduced again against
    every pivot (they then vanish on all leads, and the unit pivots split
    off as an invertible triangular block) and eliminated by minimal
    p-valuation.
    """
    q = p ** k
    pivots: list[dict[int, int]] = []
    leads: list[int] = []
    lead_of: dict[int, int] = {}

    def reduce(col: dict[int, int]) -> dict[int, int]:
        c = {r: v % q for r, v in col.items() if v % q}
        heap = [lead_of[r] for r in c if r in lead_of]
        heapify(heap)
        while heap:
            i = heappop(heap)
            f = c.get(leads[i])
            if not f:
                continue
            for r, v in pivots[i].items():
                nv = (c.get(r, 0) - f * v) % q
                if nv:
                    if r not in c and r in lead_of:
                        heappush(heap, lead_of[r])
                    c[r] = nv
                else:
                    c.pop(r, None)
        return c

    rest: list[dict[int, int]] = []
    for col in cols:
        c = reduce(col)
        # the highest unit row as lead: on the bar complexes this needs
        # 9-50% fewer entry updates than the first unit row
        lead = max((r for r, v in c.items() if v % p), default=None)
        if lead is None:
            if c:
                rest.append(c)
            continue
        inv = pow(c[lead], -1, q)
        lead_of[lead] = len(pivots)
        leads.append(lead)
        pivots.append({r: v * inv % q for r, v in c.items()})
        if len(pivots) == stop:
            return stop, []

    rest = [c for c in map(reduce, rest) if c]
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
                t = b // pe
                for rr, v in pc.items():
                    nv = (c.get(rr, 0) - t * v) % q
                    if nv:
                        c[rr] = nv
                    else:
                        c.pop(rr, None)
            if c:
                kept.append(c)
        rest = kept
    return len(pivots), valuations


def _next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


def smith_normal_form(matrix: SparseIntMatrix) -> SNFResult:
    """Invariant factors (including 1s) and free rank of coker, columns
    read as generators and rows as relations."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (i, j), v in matrix.entries.items():
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

    factors = _divisibility_chain(diag)
    free_rank = matrix.ncols - len(factors)

    # modular consistency: the rank over F_p equals the number of nonzero
    # invariant factors whenever p exceeds all of them
    first = _next_prime(max(factors + [10 ** 6]))
    cols: dict[int, dict[int, int]] = {}
    for (i, j), v in matrix.entries.items():
        cols.setdefault(j, {})[i] = v
    full = min(matrix.nrows, matrix.ncols)
    for p in (first, _next_prime(first)):
        if _local_smith(list(cols.values()), p, 1, full)[0] != len(factors):
            raise RuntimeError(
                f"Smith normal form failed its mod-{p} rank cross-check")
    return SNFResult(factors, free_rank)
