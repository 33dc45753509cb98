"""Permutation insertion algorithms, patterns, shuffles and shape classification."""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterable, Sequence

from . import _kernels
from .errors import LimitError
from .partitions import Partition, conjugate
from .tableaux import SchroderTableau

Permutation = tuple[int, ...]
Rows = tuple[tuple[int, ...], ...]

AV_LIMIT = 9
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


def _check_distinct(values: Iterable[int]) -> tuple[int, ...]:
    t = tuple(values)
    if len(set(t)) != len(t):
        raise ValueError(f"pattern search needs distinct values: {t}")
    return t


def contains_pattern(t: Sequence[int], s: Sequence[int]) -> bool:
    """True iff some subsequence of ``t`` is order-isomorphic to ``s``."""
    return _kernels.contains_pattern(_check_distinct(t), _check_distinct(s))


def avoids(t: Sequence[int], *patterns: Sequence[int]) -> bool:
    """True iff ``t`` contains none of the given patterns."""
    t = _check_distinct(t)
    return not any(
        _kernels.contains_pattern(t, _check_distinct(s)) for s in patterns
    )


def enumerate_av(n: int, patterns: Sequence[Sequence[int]]) -> int:
    """Number of permutations of length ``n`` avoiding all ``patterns``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > AV_LIMIT:
        raise LimitError(f"n={n} exceeds limit {AV_LIMIT}")
    pats = [tuple(s) for s in patterns]
    return sum(
        1
        for perm in permutations(range(1, n + 1))
        if not any(_kernels.contains_pattern(perm, s) for s in pats)
    )


def pattern_of(values: Sequence[int]) -> Permutation:
    """Relabel a sequence of distinct values to the permutation of its ranks."""
    rank = {v: i + 1 for i, v in enumerate(sorted(values))}
    return tuple(rank[v] for v in values)


def single_row_predicate(p: Sequence[int]) -> bool:
    """Positions 2i+1, 2i+2 hold exactly the values 2i+1, 2i+2 (the final
    element equals n when n is odd)."""
    return _kernels.single_row_predicate(tuple(p))


def single_column_predicate(p: Sequence[int]) -> bool:
    """True iff ``p`` avoids both 123 and 213."""
    return _kernels.single_column_predicate(tuple(p))


def _rooted_split_exists(p: Permutation, s: Permutation, t: Permutation, k: int) -> bool:
    """Decide whether positions k.. of ``p`` split into two subsequences that,
    prefixed with p[:k], are order-isomorphic to ``s`` and ``t``."""
    n = len(p)
    cs = list(p[:k])
    ct = list(p[:k])

    def extends(pattern: Permutation, chosen: list[int], v: int) -> bool:
        m = len(chosen)
        return all((pattern[i] < pattern[m]) == (chosen[i] < v) for i in range(m))

    def rec(pos: int) -> bool:
        if pos == n:
            return True
        v = p[pos]
        if len(cs) < len(s) and extends(s, cs, v):
            cs.append(v)
            if rec(pos + 1):
                return True
            cs.pop()
        if len(ct) < len(t) and extends(t, ct, v):
            ct.append(v)
            if rec(pos + 1):
                return True
            ct.pop()
        return False

    return rec(k)


def is_shuffle(p: Sequence[int], s: Sequence[int], t: Sequence[int]) -> bool:
    """True iff ``p`` is covered by two disjoint subsequences order-isomorphic
    to ``s`` and ``t``."""
    p, s, t = check_permutation(p), check_permutation(s), check_permutation(t)
    if len(p) != len(s) + len(t):
        raise ValueError(f"length mismatch: {len(p)} != {len(s)} + {len(t)}")
    return _rooted_split_exists(p, s, t, 0)


def is_k_rooted_shuffle(
    p: Sequence[int], s: Sequence[int], t: Sequence[int], k: int
) -> bool:
    """True iff ``p`` starts with the common k-element root pattern of ``s``
    and ``t`` and its remainder is a shuffle of their suffixes (root positions
    are shared by both copies)."""
    p, s, t = check_permutation(p), check_permutation(s), check_permutation(t)
    if k < 0 or k > min(len(s), len(t)):
        raise ValueError(f"invalid root size k={k}")
    if len(p) != len(s) + len(t) - k:
        raise ValueError(f"length mismatch: {len(p)} != {len(s)} + {len(t)} - {k}")
    if pattern_of(s[:k]) != pattern_of(t[:k]):
        raise ValueError("the k-element prefixes of s and t are not order-isomorphic")
    if pattern_of(p[:k]) != pattern_of(s[:k]):
        return False
    return _rooted_split_exists(p, s, t, k)


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
    if single_row_predicate(p):
        return "single_row"
    if single_column_predicate(p):
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
