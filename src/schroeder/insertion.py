"""Permutation insertion algorithms and shape classification."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from . import _kernels
from .errors import LimitError
from .partitions import Partition, conjugate
from .tableaux import SchroderTableau

Permutation = tuple[int, ...]
Rows = tuple[tuple[int, ...], ...]

# insertion grows faster than quadratically in the length; the decreasing
# permutation of this length inserts in 0.9-1.4 s on a 2-core host
PERMUTATION_LIMIT = 4000


def check_permutation(values: Iterable[int]) -> Permutation:
    p = tuple(values)
    if len(p) > PERMUTATION_LIMIT:
        raise LimitError(f"length {len(p)} exceeds limit {PERMUTATION_LIMIT}")
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def parse_permutation(text: str) -> Permutation:
    """Parse a permutation given as a digit string (n <= 9) or comma-separated."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if "," in text:
        values = [int(tok) for tok in text.split(",")]
    else:
        values = [int(ch) for ch in text]
    return check_permutation(values)


def rs_insert(p: Sequence[int]) -> tuple[Rows, Rows]:
    """Classical row insertion: (insertion tableau, recording tableau) rows."""
    p = check_permutation(p)
    return _kernels.rs_rows(p)


def sch_insert(p: Sequence[int]) -> tuple[SchroderTableau, SchroderTableau]:
    """Triangular-cell insertion: (insertion tableau, recording tableau)."""
    p = check_permutation(p)
    p_rows, q_rows = _kernels.sch_rows(p)
    shape = tuple(len(r) for r in p_rows)
    return SchroderTableau(shape, p_rows), SchroderTableau(shape, q_rows)


def pattern_of(values: Sequence[int]) -> Permutation:
    """Relabel a sequence of distinct values to the permutation of its ranks."""
    rank = {v: i + 1 for i, v in enumerate(sorted(values))}
    return tuple(rank[v] for v in values)


def has_hook_decomposition(p: Sequence[int]) -> bool:
    """True iff ``p`` is a 2-rooted shuffle of a permutation satisfying the
    single-row predicate and one satisfying the single-column predicate.

    The split is forced: the row side must keep the root as its two smallest
    values, and a suffix value above both root values on the column side
    would close a 123 or 213 with them."""
    p = check_permutation(p)
    if len(p) < 2:
        return False
    root_max = max(p[0], p[1])
    row_side = p[:2] + tuple(v for v in p[2:] if v > root_max)
    col_side = p[:2] + tuple(v for v in p[2:] if v < root_max)
    return _kernels.single_row_predicate(pattern_of(row_side)) and (
        _kernels.single_column_predicate(col_side)
    )


def classify_shape(p: Sequence[int]) -> str:
    """Classify the insertion shape family of ``p`` from predicates alone:
    ``single_row``, ``single_column``, ``hook`` or ``other``."""
    p = check_permutation(p)
    if _kernels.single_row_predicate(p):
        return "single_row"
    if _kernels.single_column_predicate(p):
        return "single_column"
    if has_hook_decomposition(p):
        return "hook"
    return "other"


def count_standard_young(shape: Partition) -> int:
    """Number of standard Young tableaux of ``shape``, by the hook-length
    formula n! / prod of hook lengths."""
    cols = conjugate(shape)
    hooks = 1
    for i, length in enumerate(shape):
        for j in range(length):
            hooks *= (length - j) + (cols[j] - i) - 1
    return math.factorial(sum(shape)) // hooks
