"""Interval orders, the intervals of a tableau, and the grid-downset
correspondence: an interval order arises from a tableau exactly when it
weakly contains a grid down-set of its size.

Grid coordinates are (row, column) with (1, 1) top-left; a down-set is given
by its row lengths, i.e. a partition.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .partitions import Partition, partitions_of
from .errors import LimitError
from .posets import FinitePoset, _embedding
from .tableaux import SchroderTableau, is_standard, lonely_cells

Interval = tuple[int, int]

DOWNSET_LIMIT = 30


def check_intervals(data: Sequence[Sequence[int]]) -> tuple[Interval, ...]:
    """The intervals as tuples, each a pair of integers 1 <= a < b; bools and
    floats are refused, so JSON input reaches the order only as integers."""
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"intervals must be a list of pairs, got {data!r}")
    for iv in data:
        if not (
            isinstance(iv, (list, tuple))
            and len(iv) == 2
            and all(type(x) is int and x >= 1 for x in iv)
        ):
            raise ValueError(f"intervals must be pairs of positive integers, got {iv}")
        if iv[0] >= iv[1]:
            raise ValueError(f"interval endpoints must satisfy a < b, got {iv}")
    return tuple(map(tuple, data))


def check_size(n: int) -> None:
    """Refuse an interval set or poset too large for the down-set search."""
    if n > DOWNSET_LIMIT:
        raise LimitError(f"size {n} exceeds limit {DOWNSET_LIMIT}")


def interval_order(intervals: Sequence[Sequence[int]]) -> FinitePoset:
    """Order the intervals by complete precedence: I < J iff max(I) < min(J)."""
    ivs = check_intervals(intervals)
    # every interval has a < b, so precedence is irreflexive and transitive
    # (b < a' < b' < a'' gives b < a''): the masks need no closure
    up = tuple(sum(1 << j for j, (a, _) in enumerate(ivs) if b < a) for _, b in ivs)
    return FinitePoset._from_masks(len(ivs), up)


def _down_chain(p: FinitePoset) -> list[int] | None:
    """The distinct strict down-sets of ``p`` from smallest to largest, or
    None when they do not form a chain under inclusion.

    They form a chain exactly when ``p`` has no induced 2+2, i.e. when ``p``
    is an interval order (P. C. Fishburn, J. Math. Psych. 7 (1970)).  A mask
    is smaller than every proper superset, so sorting by value puts a chain
    in inclusion order, and a chain is nested at each neighbouring pair.
    """
    down_sets = sorted(set(p.down))
    if any(smaller & ~larger for smaller, larger in zip(down_sets, down_sets[1:])):
        return None
    return down_sets


def is_interval_order(p: FinitePoset) -> bool:
    """True iff ``p`` has no induced subposet isomorphic to 2+2."""
    return _down_chain(p) is not None


def intervals_of_tableau(t: SchroderTableau) -> tuple[Interval, ...]:
    """One interval per twin pair (its two entries) and one per lonely cell
    (its entry paired with n+1), in row-major order."""
    if not is_standard(t):
        raise ValueError("tableau is not standard")
    n = t.size
    return tuple(
        (row[j], row[j + 1] if j + 1 < len(row) else n + 1)
        for row in t.rows
        for j in range(0, len(row), 2)
    )


def intervals_to_json(intervals: Iterable[Interval]) -> dict:
    return {"intervals": [list(iv) for iv in intervals]}


def intervals_from_json(data: dict) -> tuple[Interval, ...]:
    if not isinstance(data, dict) or "intervals" not in data:
        raise ValueError("interval JSON must be an object with an 'intervals' field")
    return check_intervals(data["intervals"])


def grid_downsets(n: int) -> list[Partition]:
    """All n-cell down-sets of the grid, as row-length partitions, enumerated
    by decreasing first-row length."""
    check_size(n)
    return list(partitions_of(n))


def downset_cells(d: Partition) -> list[tuple[int, int]]:
    """Cells (row, column) of the down-set in row-major order, 1-based."""
    return [(r + 1, c + 1) for r, length in enumerate(d) for c in range(length)]


def downset_poset(d: Partition) -> FinitePoset:
    """The componentwise order on the cells of the down-set, cells numbered
    row-major."""
    cells = downset_cells(d)
    # the componentwise order is a partial order: the masks need no closure
    up = tuple(
        sum(1 << j for j, (r2, c2) in enumerate(cells) if j != i and r1 <= r2 and c1 <= c2)
        for i, (r1, c1) in enumerate(cells)
    )
    return FinitePoset._from_masks(len(cells), up)


class Witness(NamedTuple):
    """A grid down-set weakly contained in an interval order: ``mapping[k]``
    is the poset element assigned to the k-th row-major cell."""

    downset: Partition
    mapping: tuple[int, ...]


def has_schroder_preimage(p: FinitePoset) -> Witness | None:
    """A witness down-set weakly contained in ``p``, or None.

    A witness exists exactly when some tableau's interval set induces ``p``.
    The size is checked first, so oversized input is refused before the
    interval-order test.
    """
    check_size(p.n)
    if not is_interval_order(p):
        raise ValueError("poset is not an interval order")
    for d in grid_downsets(p.n):
        # cells in row-major order and increasing host candidates make the
        # first mapping found the lexicographically smallest one
        image = _embedding(p, downset_poset(d), order=range(p.n))
        if image is not None:
            return Witness(d, tuple(w + 1 for w in image))
    return None


def realize_intervals(p: FinitePoset) -> tuple[Interval, ...]:
    """Closed intervals realizing the interval order ``p``, with all 2n
    endpoints distinct and forming 1..2n, element k getting the k-th interval.

    Left values come from the rank of each element's predecessor set in the
    inclusion chain of predecessor sets; the right value of x is the largest
    left value among elements not above x.
    """
    down_sets = _down_chain(p)
    if down_sets is None:
        raise ValueError("poset is not an interval order")
    rank = {m: i for i, m in enumerate(down_sets)}
    left = [rank[p.down[v]] for v in range(p.n)]
    right = [
        max(left[w] for w in range(p.n) if not (p.up[v] >> w & 1))
        for v in range(p.n)
    ]
    # spread endpoints: left endpoints of a value sort before right endpoints
    endpoints = sorted(
        [(left[v], 0, v) for v in range(p.n)] + [(right[v], 1, v) for v in range(p.n)]
    )
    coord = [[0, 0] for _ in range(p.n)]
    for pos, (_, side, v) in enumerate(endpoints, start=1):
        coord[v][side] = pos
    intervals = tuple(map(tuple, coord))
    rebuilt = interval_order(intervals)
    assert rebuilt.up == p.up, "interval realization failed to reproduce the order"
    return intervals


def tableau_from_witness(
    p: FinitePoset, downset: Partition, mapping: Iterable[int]
) -> SchroderTableau:
    """Build a tableau whose interval set induces ``p``: a twin pair per cell
    of ``downset``, filled with the endpoints of the mapped element's interval.

    The output has no lonely cells and is standard.
    """
    mapping = tuple(mapping)
    cells = downset_cells(downset)
    if sorted(mapping) != list(range(1, p.n + 1)) or len(cells) != p.n:
        raise ValueError("mapping must be a bijection from the down-set onto p")
    for i, j in downset_poset(downset).strict_pairs():
        if not p.less(mapping[i - 1], mapping[j - 1]):
            raise ValueError("mapping is not order-preserving")
    intervals = realize_intervals(p)
    rows: list[list[int]] = [[] for _ in downset]
    # cells and mapping are both in row-major order
    for (r, _), x in zip(cells, mapping):
        rows[r - 1].extend(intervals[x - 1])
    shape = tuple(2 * part for part in downset)
    t = SchroderTableau(shape, rows)
    assert is_standard(t), "witness construction produced a non-standard filling"
    assert not lonely_cells(t.shape)
    return t
