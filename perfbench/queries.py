"""The seeded query stream of the ``queries`` workload and the independent
checks of its answers.

Inputs are made here, from the seed alone, without the program: random
permutations, partitions with simple odd parts, and interval sets.  Shapes
are drawn from a small pool, so inputs repeat and the program's memo caches
are warm for part of the stream; ``repeat_share`` measures how much.
"""

from __future__ import annotations

import random

KINDS = (
    "sch_insert",
    "classify_shape",
    "count_tableaux",
    "covers",
    "count_chains",
    "preimage",
)
INSERT_SIZES = (100, 300)
CLASSIFY_SIZES = (10, 14)
SHAPE_ORDERS = (1, 12)
INTERVAL_SIZES = (4, 7)


def shapes_of_order(n: int) -> list[tuple[int, ...]]:
    """Partitions of n whose odd parts are distinct, lexicographically
    decreasing."""
    out = []

    def rec(remaining, bound, prefix):
        if remaining == 0:
            odd = [x for x in prefix if x % 2]
            if len(odd) == len(set(odd)):
                out.append(tuple(prefix))
            return
        for part in range(min(bound, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return out


def _permutation(rng: random.Random, n: int) -> list[int]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return p


def _intervals(rng: random.Random, n: int) -> list[list[int]]:
    """n intervals with distinct endpoints 1..2n: a chain of disjoint
    intervals with a random number of adjacent endpoints swapped.  About
    two thirds of these interval orders have a tableau preimage."""
    seq = [(i, side) for i in range(n) for side in (0, 1)]
    for _ in range(rng.randint(0, 2 * n)):
        j = rng.randrange(len(seq) - 1)
        if seq[j][0] != seq[j + 1][0]:
            seq[j], seq[j + 1] = seq[j + 1], seq[j]
    pos = {end: k for k, end in enumerate(seq, start=1)}
    return [[pos[(i, 0)], pos[(i, 1)]] for i in range(n)]


def make_queries(seed: int | str, count: int) -> list[list]:
    """``count`` queries [kind, input], each kind equally likely."""
    rng = random.Random(seed)
    shapes = [s for n in range(SHAPE_ORDERS[0], SHAPE_ORDERS[1] + 1)
              for s in shapes_of_order(n)]
    queries = []
    for _ in range(count):
        kind = rng.choice(KINDS)
        if kind == "sch_insert":
            data = _permutation(rng, rng.randint(*INSERT_SIZES))
        elif kind == "classify_shape":
            data = _permutation(rng, rng.randint(*CLASSIFY_SIZES))
        elif kind == "preimage":
            data = _intervals(rng, rng.randint(*INTERVAL_SIZES))
        else:
            data = list(rng.choice(shapes))
        queries.append([kind, data])
    return queries


def repeat_share(queries: list[list]) -> float:
    """Share of queries whose kind and input already occurred earlier."""
    seen = set()
    repeats = 0
    for kind, data in queries:
        key = (kind, repr(data))
        repeats += key in seen
        seen.add(key)
    return repeats / len(queries)


def argument(kind: str, data: list):
    """The library argument for one query, built before the timed loop."""
    if kind == "preimage":
        from schroeder.posets import FinitePoset

        # interval i lies below interval j when it ends before j starts
        pairs = [
            (i + 1, j + 1)
            for i, (_, b) in enumerate(data)
            for j, (a, _) in enumerate(data)
            if b < a
        ]
        return FinitePoset(len(data), pairs)
    return tuple(data)


def _contained(p, q) -> bool:
    return len(p) <= len(q) and all(a <= b for a, b in zip(p, q))


def check_answer(kind: str, arg, answer) -> bool:
    """True iff ``answer`` agrees with an independent computation."""
    from schroeder import insertion, intervals, lattice, tableaux

    try:
        if kind == "sch_insert":
            p_tab, q_tab = answer
            return (
                p_tab.shape == q_tab.shape
                and sum(p_tab.shape) == len(arg)
                and tableaux.is_standard(p_tab)
                and tableaux.is_standard(q_tab)
            )
        if kind == "classify_shape":
            # the single-row and single-column classes match the insertion
            # shape exactly; hook and other are not told apart here
            shape = insertion.sch_insert(arg)[0].shape
            if answer == "single_row":
                return len(shape) == 1
            if answer == "single_column":
                return len(shape) > 1 and shape[0] <= 2
            return answer in ("hook", "other") and len(shape) > 1 and shape[0] > 2
        if kind == "count_tableaux":
            return answer == lattice.count_chains(arg)
        if kind == "count_chains":
            return answer == tableaux.count_tableaux(arg)
        if kind == "covers":
            n = sum(arg)
            up = [q for q in shapes_of_order(n + 1) if _contained(arg, q)]
            down = [q for q in shapes_of_order(n - 1) if _contained(q, arg)]
            return list(answer.up_covers) == up and list(answer.down_covers) == down
        if kind == "preimage":
            if answer is None:
                return True  # a negative answer has no cheap independent check
            built = intervals.tableau_from_witness(arg, answer.downset, answer.mapping)
            rebuilt = intervals.interval_order(intervals.intervals_of_tableau(built))
            return rebuilt.isomorphic(arg)
    except Exception:  # a crash in the check is a wrong answer
        return False
    return False
