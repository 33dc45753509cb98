"""Insertion and pattern-search kernels: the hot loops of the library.

Rows of an insertion state are kept sorted, so the bump target is found with
bisect.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import permutations

Rows = tuple[tuple[int, ...], ...]


def sch_rows(values) -> tuple[Rows, Rows]:
    """Run triangular-cell insertion, returning (insertion rows, recording rows).

    Case analysis per bumped value alpha landing in row i:

    * alpha exceeds the whole row: append it (cell type forced by parity).
    * target cell is a lower triangle: swap contents, bump onward.
    * target is an upper triangle with a twin: the twin's content is bumped,
      the upper content slides into the twin, alpha takes the upper cell.
    * target is a lonely upper cell: alpha takes it, the displaced value
      fills a newly appended twin and the bump chain stops; the recording
      tableau grows at the appended cell.
    """
    rows: list[list[int]] = []
    qrows: list[list[int]] = []
    for k, alpha in enumerate(values, start=1):
        i = 0
        while True:
            if i == len(rows):
                rows.append([alpha])
                qrows.append([k])
                break
            row = rows[i]
            if alpha > row[-1]:
                row.append(alpha)
                qrows[i].append(k)
                break
            j = bisect_right(row, alpha)
            if (j + 1) % 2 == 0:  # lower triangle
                alpha, row[j] = row[j], alpha
                i += 1
            elif j + 1 < len(row):  # upper triangle with twin
                beta = row[j + 1]
                row[j + 1] = row[j]
                row[j] = alpha
                alpha = beta
                i += 1
            else:  # lonely upper cell
                row.append(row[j])
                row[j] = alpha
                qrows[i].append(k)
                break
    return tuple(tuple(r) for r in rows), tuple(tuple(q) for q in qrows)


def rs_rows(values) -> tuple[Rows, Rows]:
    """Classical row insertion, returning (insertion rows, recording rows)."""
    rows: list[list[int]] = []
    qrows: list[list[int]] = []
    for k, alpha in enumerate(values, start=1):
        i = 0
        while True:
            if i == len(rows):
                rows.append([alpha])
                qrows.append([k])
                break
            row = rows[i]
            if alpha > row[-1]:
                row.append(alpha)
                qrows[i].append(k)
                break
            j = bisect_right(row, alpha)
            alpha, row[j] = row[j], alpha
            i += 1
    return tuple(tuple(r) for r in rows), tuple(tuple(q) for q in qrows)


def contains_pattern(values, pattern) -> bool:
    """True iff some subsequence of ``values`` is order-isomorphic to ``pattern``."""
    k = len(pattern)
    n = len(values)
    if k == 0:
        return True
    if k > n:
        return False
    chosen = [0] * k

    def rec(m: int, start: int) -> bool:
        for idx in range(start, n - (k - m) + 1):
            v = values[idx]
            if all((pattern[t] < pattern[m]) == (chosen[t] < v) for t in range(m)):
                chosen[m] = v
                if m + 1 == k or rec(m + 1, idx + 1):
                    return True
        return False

    return rec(0, 0)


def single_row_predicate(values) -> bool:
    """Positions 2i+1, 2i+2 hold exactly the values 2i+1, 2i+2; for odd length
    the final element must be the maximum."""
    n = len(values)
    for i in range(0, n - 1, 2):
        a, b = values[i], values[i + 1]
        lo, hi = (a, b) if a < b else (b, a)
        if lo != i + 1 or hi != i + 2:
            return False
    if n % 2 and values[-1] != n:
        return False
    return True


def single_column_predicate(values) -> bool:
    """True iff ``values`` avoids 123 and 213, decided in one pass: an entry
    above two earlier entries closes one of the patterns, so no entry may
    exceed the second-smallest entry before it."""
    lo = hi = float("inf")  # smallest and second-smallest entry so far
    for v in values:
        if v > hi:
            return False
        if v < lo:
            lo, hi = v, lo
        else:
            hi = v
    return True


def sweep_row_col(n: int):
    """Aggregate the single-row and single-column statistics over all
    permutations of 1..n.

    Returns (row_count, col_count, row_mismatches, col_mismatches) where the
    counts tally insertion shapes with one row / one square-column and the
    mismatch lists hold permutations where shape membership disagrees with
    the corresponding predicate (pair condition / avoidance of 123 and 213).
    """
    if n < 1:
        raise ValueError("sweep supports n >= 1")
    row_count = 0
    col_count = 0
    row_mismatches = []
    col_mismatches = []
    for perm in permutations(range(1, n + 1)):
        shape_rows, _ = sch_rows(perm)
        ins_row = len(shape_rows) == 1
        ins_col = len(shape_rows[0]) <= 2
        if ins_row:
            row_count += 1
        if ins_col:
            col_count += 1
        if ins_row != single_row_predicate(perm):
            row_mismatches.append(perm)
        if ins_col != single_column_predicate(perm):
            col_mismatches.append(perm)
    return row_count, col_count, row_mismatches, col_mismatches


def sweep_rs_shapes(n: int) -> dict[tuple[int, ...], int]:
    """Count classical insertion shapes over all permutations of 1..n."""
    counts: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(1, n + 1)):
        rows, _ = rs_rows(perm)
        shape = tuple(len(r) for r in rows)
        counts[shape] = counts.get(shape, 0) + 1
    return counts


def backend() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "pure"
