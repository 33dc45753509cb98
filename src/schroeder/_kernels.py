"""Insertion kernels, the single-row and single-column predicates and the
S_n sweeps: the hot loops of the library.

Rows of an insertion state are kept sorted, so the bump target is found with
bisect.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import permutations

Rows = tuple[tuple[int, ...], ...]


def _sch_step(rows: list[list[int]], alpha: int) -> int:
    """Insert ``alpha`` into the insertion rows in place by triangular-cell
    insertion, and return the index of the row that grew by one cell.

    Case analysis per bumped value alpha landing in row i:

    * alpha exceeds the whole row: append it (cell type forced by parity).
    * target cell is a lower triangle: swap contents, bump onward.
    * target is an upper triangle with a twin: the twin's content is bumped,
      the upper content slides into the twin, alpha takes the upper cell.
    * target is a lonely upper cell: alpha takes it, the displaced value
      fills a newly appended twin and the bump chain stops.
    """
    i = 0
    while True:
        if i == len(rows):
            rows.append([alpha])
            return i
        row = rows[i]
        if alpha > row[-1]:
            row.append(alpha)
            return i
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
            return i


def sch_rows(values) -> tuple[Rows, Rows]:
    """Run triangular-cell insertion, returning (insertion rows, recording
    rows); the recording tableau grows where the insertion tableau does."""
    rows: list[list[int]] = []
    qrows: list[list[int]] = []
    for k, alpha in enumerate(values, start=1):
        i = _sch_step(rows, alpha)
        if i == len(qrows):
            qrows.append([k])
        else:
            qrows[i].append(k)
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
    mismatch lists hold permutations, in lexicographic order, where shape
    membership disagrees with the corresponding predicate (pair condition /
    avoidance of 123 and 213).

    The permutations are walked depth-first by prefix, each child inserting
    one more value into a copy of its parent's rows.  Four flags ride down
    the walk, each a necessary condition for some completion of the prefix to
    have its property; a prefix with all four false has no permutation below
    it that is counted or listed, so its subtree is skipped.  Three of them
    look ahead at the values still to come:

    * **One row.**  While there is one row its set of values only grows (a
      step appends, or fills the lonely upper cell and moves the old content
      into a new twin).  A later value with two row entries above it lands in
      a lower triangle or in a twinned upper cell and opens row 1, which is
      never removed.  So every value still to come must exceed the second
      largest entry of the row.
    * **Row 0 at most 2 long.**  While row 0 has length 2 its last entry
      never grows (a step appends, or writes a smaller value into the row),
      and a later value above it would be appended.  So once row 0 has
      length 2, every value still to come must be below its last entry.
    * **The pair blocks.**  Positions 2b, 2b+1 (0-based) hold the values
      2b+1, 2b+2; no look-ahead, a misplaced value stays misplaced.
    * **No 123 or 213.**  A value above two earlier ones closes a pattern,
      and the second-smallest value of the prefix only falls.  So every value
      still to come must be at most the prefix's second-smallest value.

    A child's flag requires its parent's, so a flag once false stays false.
    Only the first two read the insertion rows, so a prefix whose first two
    flags are false is walked without inserting.
    """
    if n < 1:
        raise ValueError("sweep supports n >= 1")
    row_count = col_count = 0
    row_mismatches: list[tuple[int, ...]] = []
    col_mismatches: list[tuple[int, ...]] = []
    perm: list[int] = []
    rest = list(range(1, n + 1))  # the values still to come, increasing

    def walk(rows, one_row, one_col, pairs, avoids, lo, hi):
        # lo, hi: smallest and second-smallest value of the prefix
        nonlocal row_count, col_count
        i = len(perm)
        if i == n:
            row_count += one_row
            col_count += one_col
            if one_row != pairs:
                row_mismatches.append(tuple(perm))
            if one_col != avoids:
                col_mismatches.append(tuple(perm))
            return
        block = i // 2
        last = n - i - 1
        for k in range(last + 1):
            v = rest[k]
            # the least and the greatest value still to come after v
            low = rest[k == 0] if last else n + 1
            high = rest[last - (k == last)] if last else 0
            c_lo, c_hi = (v, lo) if v < lo else (lo, v)
            c_pairs = pairs and (v - 1) // 2 == block
            # v itself is at most hi, by the parent's look-ahead
            c_avoids = avoids and high <= c_hi
            child = rows
            c_row = c_col = False
            if one_row or one_col:
                child = [r[:] for r in rows]
                _sch_step(child, v)
                row0 = child[0]
                c_row = one_row and len(child) == 1 and (len(row0) < 2 or low > row0[-2])
                c_col = one_col and (len(row0) < 2 or len(row0) == 2 and high < row0[-1])
            if not (c_row or c_col or c_pairs or c_avoids):
                continue
            del rest[k]
            perm.append(v)
            walk(child, c_row, c_col, c_pairs, c_avoids, c_lo, c_hi)
            perm.pop()
            rest.insert(k, v)

    walk([], True, True, True, True, n + 1, n + 1)
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
