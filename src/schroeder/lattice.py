"""The distributive lattice of partitions with simple odd parts.

Comparison is componentwise containment of diagrams.  Cover relations are
computed from the up-free/down-free classification of parts:

* every odd part is both up-free and down-free;
* an even part ``p[i]`` is up-free when the part above it (infinity for the
  first part) is neither ``p[i]`` nor ``p[i]+1``, and down-free when the part
  below it (0 for the last part) is neither ``p[i]`` nor ``p[i]-1``;
* a new part 1 may be appended exactly when the current last part is not 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .errors import LimitError
from .partitions import (
    Partition,
    check_schroeder,
    enumerate_schroeder_partitions,
    is_schroeder,
    order,
)

# The memo holds every valid partition inside the shape, which grows like
# exp(c * sqrt(order)); the worst shape found at order 64,
# (18, 12, 10, 8, 6, 4, 2, 2, 2), has 69,473 of them and takes about 2.4 s
# on a 2-core host with a cold memo.  The memo is bounded above that count,
# so one query never evicts its own entries.
CHAIN_ORDER_LIMIT = 64
CHAIN_MEMO_SIZE = 1 << 17


class CoverSets(NamedTuple):
    up_covers: tuple[Partition, ...]
    down_covers: tuple[Partition, ...]


def leq(a: Partition, b: Partition) -> bool:
    """True iff the diagram of ``a`` fits inside the diagram of ``b``."""
    return len(a) <= len(b) and all(map(operator.le, a, b))


def join(a: Partition, b: Partition) -> Partition:
    """Partwise maximum.  Inputs must have simple odd parts; so does the result."""
    a = check_schroeder(a)
    b = check_schroeder(b)
    result = _join(a, b)
    assert is_schroeder(result), f"join closure violated: {a} v {b} = {result}"
    return result


def meet(a: Partition, b: Partition) -> Partition:
    """Partwise minimum, truncated to the common length."""
    a = check_schroeder(a)
    b = check_schroeder(b)
    result = _meet(a, b)
    assert is_schroeder(result), f"meet closure violated: {a} ^ {b} = {result}"
    return result


# The private helpers trust their inputs to be partition tuples with simple
# odd parts; the public functions above and below validate at the boundary.

def _join(a: Partition, b: Partition) -> Partition:
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(max, a, b)) + a[len(b) :]


def _meet(a: Partition, b: Partition) -> Partition:
    return tuple(map(min, a, b))


def covers(p: Partition) -> CoverSets:
    """Up and down covers of ``p`` in the lattice, each tuple lexicographically
    decreasing."""
    p = check_schroeder(p)
    cs = _covers(p)
    for q in cs.up_covers + cs.down_covers:
        assert is_schroeder(q), f"cover of {p} is not valid: {q}"
    return cs


def _covers(p: Partition) -> CoverSets:
    """Up covers add 1 to an up-free part (or append a new part 1 when
    allowed); down covers subtract 1 from a down-free part.  Editing the
    parts left to right yields the up covers in decreasing order, the
    appended part 1 last, and the down covers in increasing order.
    """
    ups = []
    downs = []
    for i, part in enumerate(p):
        # parts do not increase, so "neither part nor part+1 above" and
        # "neither part nor part-1 below" are strict gaps
        if part % 2 or i == 0 or p[i - 1] > part + 1:
            ups.append(p[:i] + (part + 1,) + p[i + 1 :])
        if part % 2 or (p[i + 1] if i + 1 < len(p) else 0) < part - 1:
            downs.append(p[:i] + ((part - 1,) if part > 1 else ()) + p[i + 1 :])
    if not p or p[-1] != 1:
        ups.append(p + (1,))
    downs.reverse()
    return CoverSets(tuple(ups), tuple(downs))


def count_chains(p: Partition) -> int:
    """Number of saturated chains from the empty partition up to ``p``, for
    orders up to CHAIN_ORDER_LIMIT."""
    p = check_schroeder(p)
    if order(p) > CHAIN_ORDER_LIMIT:
        raise LimitError(f"order {order(p)} exceeds limit {CHAIN_ORDER_LIMIT}")
    return _count_chains(p)


@lru_cache(maxsize=CHAIN_MEMO_SIZE)
def _count_chains(p: Partition) -> int:
    if not p:
        return 1
    return sum(map(_count_chains, _covers(p).down_covers))


@dataclass
class DifferentialReport:
    """Outcome of sweeping the cover-degree bounds and the common-cover condition."""

    partitions_checked: int = 0
    pairs_checked: int = 0
    violations: list[str] = field(default_factory=list)
    lower_bound_witness: Partition | None = None
    upper_bound_witness: Partition | None = None
    min_slack_high: int | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_differential(max_order: int) -> DifferentialReport:
    """Check for every nonempty valid partition of order <= max_order that the
    number of up covers l and down covers k satisfy ceil((k+1)/2) <= l <= 2k,
    and that distinct partitions of equal order have as many common up covers
    as common down covers.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    report = DifferentialReport()
    for n in range(1, max_order + 1):
        # each partition's cover sets, built once for all its pairs
        layer = []
        for p in enumerate_schroeder_partitions(n):
            cs = _covers(p)
            ups, downs = set(cs.up_covers), set(cs.down_covers)
            layer.append((p, ups, downs))
            k = len(downs)
            l = len(ups)
            low = (k + 2) // 2  # ceil((k+1)/2)
            high = 2 * k
            report.partitions_checked += 1
            slack_high = high - l
            if l == low and report.lower_bound_witness is None:
                report.lower_bound_witness = p
            if report.min_slack_high is None or slack_high < report.min_slack_high:
                report.min_slack_high = slack_high
            if slack_high == 0 and report.upper_bound_witness is None:
                report.upper_bound_witness = p
            if not low <= l <= high:
                report.violations.append(
                    f"degree bounds fail at {p}: k={k}, l={l}, want [{low},{high}]"
                )
        for i, (p, ups_p, downs_p) in enumerate(layer):
            for q, ups_q, downs_q in layer[i + 1 :]:
                common_up = len(ups_p & ups_q)
                common_down = len(downs_p & downs_q)
                report.pairs_checked += 1
                if common_up != common_down:
                    report.violations.append(
                        f"common covers differ for {p}, {q}: "
                        f"{common_down} below vs {common_up} above"
                    )
    return report
