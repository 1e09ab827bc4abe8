"""Exact integer Smith normal form and abelian-quotient arithmetic.

Everything runs on Python's arbitrary-precision integers; surgery
coefficients can be large and overflow must be impossible.  Invariant
factors are computed on sparse rows: unit pivots are eliminated first,
and only the core they leave reaches the dense Smith normal form.  The
rows of a presentation are its exponent rows, keyed by generator name
(presentations.exponent_row); any sortable column key will do, since
the invariant factors do not depend on the order of the columns.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

Matrix = list[list[int]]
Row = dict[Any, int]  # column key, of any sortable type -> nonzero entry


def smith_normal_form(matrix: Matrix) -> list[int]:
    """The nonzero diagonal d1 | d2 | ... (positive, a divisibility chain) that
    unimodular row and column operations bring an integer matrix to."""
    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]

    def row_add(dst, src, q):
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]

    def col_add(dst, src, q):
        for row in A:
            row[dst] += q * row[src]

    def smallest_to_pivot(t):
        """Move the smallest nonzero entry of the trailing block to (t, t)."""
        entries = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not entries:
            return False
        _, i, j = min(entries)
        swap_rows(t, i)
        swap_cols(t, j)
        return True

    t = 0
    while t < min(m, n) and smallest_to_pivot(t):
        while True:
            p = A[t][t]
            for i in range(t + 1, m):
                if A[i][t]:
                    row_add(i, t, -(A[i][t] // p))
            for j in range(t + 1, n):
                if A[t][j]:
                    col_add(j, t, -(A[t][j] // p))
            # A remainder left in row or column t is smaller than the pivot.
            # Taking the smallest entry of the whole block as the next pivot,
            # rather than each remainder as it appears, keeps the entries of
            # the block from growing without bound.
            if any(A[i][t] for i in range(t + 1, m)) or any(A[t][j] for j in range(t + 1, n)):
                smallest_to_pivot(t)
                continue
            if abs(p) == 1:  # every integer is divisible by a unit
                break
            offender = next((i for i in range(t + 1, m)
                             if any(A[i][j] % p for j in range(t + 1, n))), None)
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1

    return [abs(A[i][i]) for i in range(min(m, n)) if A[i][i]]


def sparse_invariants(rows: Iterable[Row], n_generators: int) -> tuple[int, ...]:
    """Invariant factors of Z^n modulo the lattice spanned by sparse rows,
    whose keys name at most n columns; 0 encodes a Z factor.

    A +-1 entry at row r, column j removes row r and generator j: row
    operations clear column j in the other rows, after which row r splits
    off a trivial factor.  This is the abelian shadow of removing a
    generator by solving a relator for it.  The dense Smith normal form
    then runs only on the core that is left, with its empty columns
    dropped.
    """
    rows = [dict(row) for row in rows if row]
    where: defaultdict[Any, set[int]] = defaultdict(set)  # column -> rows using it
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    units = 0
    pending = list(range(len(rows)))
    while pending:
        r = pending.pop()
        row = rows[r]
        j = next((j for j, a in row.items() if a in (1, -1)), None)
        if j is None:
            continue
        for i in where.pop(j) - {r}:
            other = rows[i]
            f = other.pop(j) * row[j]  # other - f * row clears column j
            for k, a in row.items():
                if k == j:
                    continue
                b = other.get(k, 0) - f * a
                if b:
                    other[k] = b
                    where[k].add(i)
                else:
                    del other[k]
                    where[k].discard(i)
            pending.append(i)
        for k in row:
            if k != j:
                where[k].discard(r)
        rows[r] = {}
        units += 1
    core = [row for row in rows if row]
    diag: list[int] = []
    if core:
        cols = sorted(set().union(*core))
        diag = smith_normal_form([[row.get(j, 0) for j in cols] for row in core])
    free = n_generators - units - len(diag)
    return tuple([d for d in diag if d > 1] + [0] * free)

