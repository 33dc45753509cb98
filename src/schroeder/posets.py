"""Finite posets: canonical forms, enumeration, weak containment and strong
avoidance, and the poset of unlabeled posets ordered by weak containment.

Elements are 1..n in the public API; relations are strict pairs (i, j)
meaning i < j.  Internally each poset stores, per element, bitmasks of the
elements strictly above and strictly below it; relations are always
transitively closed.  Only pairs input, ``FinitePoset(n, pairs)``, is closed
and checked for cycles; derived posets are built from masks already closed.
Structural questions (flat unions, ordered splits) are answered from these
masks, and the poset of size-n posets keeps each element's up-set as a mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

from .errors import LimitError

SIZE_LIMIT = 6

Masks = tuple[int, ...]


def _closure(n: int, up: list[int]) -> list[int]:
    """Warshall's transitive closure, in place: for each k, every element
    with k above it also gets everything above k."""
    for k in range(n):
        bit, row = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= row
    return up


def _down_masks(n: int, up: Masks) -> Masks:
    down = [0] * n
    for i in range(n):
        m = up[i]
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            down[j] |= 1 << i
    return tuple(down)


class FinitePoset:
    """An immutable strict partial order on the ground set 1..n."""

    __slots__ = ("n", "up", "down", "_canon", "_order")

    def __init__(self, n: int, strict_pairs: Iterable[tuple[int, int]] = ()):
        up = [0] * n
        for i, j in strict_pairs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"element out of range in pair ({i}, {j})")
            if i == j:
                raise ValueError(f"reflexive pair ({i}, {j}) not allowed")
            up[i - 1] |= 1 << (j - 1)
        _closure(n, up)
        for i in range(n):
            if up[i] >> i & 1:
                raise ValueError("relation has a cycle (antisymmetry violated)")
        self.n = n
        self.up = tuple(up)
        self.down = _down_masks(n, self.up)
        self._canon: Masks | None = None
        self._order: tuple[int, ...] | None = None

    @classmethod
    def _from_masks(cls, n: int, up: Masks) -> "FinitePoset":
        self = object.__new__(cls)
        self.n = n
        self.up = up
        self.down = _down_masks(n, up)
        self._canon = None
        self._order = None
        return self

    def less(self, i: int, j: int) -> bool:
        """True iff element i is strictly below element j."""
        return bool(self.up[i - 1] >> (j - 1) & 1)

    def strict_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i + 1, j + 1) for i in range(self.n) for j in range(self.n) if self.up[i] >> j & 1
        )

    def pair_count(self) -> int:
        return sum(m.bit_count() for m in self.up)

    def canonical_form(self) -> tuple:
        """Isomorphism-complete invariant: equal forms iff isomorphic posets."""
        if self._canon is None:
            self._canon = _canonical_masks(self.n, self.up)
        return (self.n, self._canon)

    def isomorphic(self, other: "FinitePoset") -> bool:
        return self.canonical_form() == other.canonical_form()

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.n == other.n
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.n, self.up))

    def __repr__(self):
        return f"FinitePoset({self.n}, {list(self.strict_pairs())})"


def _refine_colors(n: int, up: Masks, down: Masks) -> list[int]:
    color = [0] * n
    while True:
        keys = []
        for v in range(n):
            up_colors = sorted(color[j] for j in _bits(up[v]))
            down_colors = sorted(color[j] for j in _bits(down[v]))
            keys.append((color[v], tuple(up_colors), tuple(down_colors)))
        ranks = {key: r for r, key in enumerate(sorted(set(keys)))}
        new_color = [ranks[k] for k in keys]
        if new_color == color:
            return color
        color = new_color


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _canonical_masks(n: int, up: Masks) -> Masks:
    if n <= 1:
        return up
    down = _down_masks(n, up)
    color = _refine_colors(n, up, down)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(color):
        classes.setdefault(c, []).append(v)
    slots: list[list[int]] = [classes[c] for c in sorted(classes)]

    best: Masks | None = None
    position = [0] * n  # position[v] = new label of vertex v

    def assign(slot_idx: int, offset: int):
        nonlocal best
        if slot_idx == len(slots):
            code = [0] * n
            for v in range(n):
                mask = 0
                for j in _bits(up[v]):
                    mask |= 1 << position[j]
                code[position[v]] = mask
            candidate = tuple(code)
            if best is None or candidate < best:
                best = candidate
            return
        members = slots[slot_idx]
        for order_perm in permutations(members):
            for k, v in enumerate(order_perm):
                position[v] = offset + k
            assign(slot_idx + 1, offset + len(members))

    assign(0, 0)
    assert best is not None
    return best


def poset_from_json(data: dict) -> FinitePoset:
    if not isinstance(data, dict) or "size" not in data:
        raise ValueError("poset JSON must be an object with 'size' and 'relations'")
    size, relations = data["size"], data.get("relations", [])
    if type(size) is not int or size < 0:
        raise ValueError(f"poset size must be a nonnegative integer, got {size!r}")
    if size > SIZE_LIMIT:
        raise LimitError(f"size {size} exceeds limit {SIZE_LIMIT}")
    # bool and float entries are refused by type, as a JSON 2.0 equals 2
    if not isinstance(relations, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair)
        for pair in relations
    ):
        raise ValueError("relations must be a list of pairs of integers")
    return FinitePoset(size, [tuple(pair) for pair in relations])


def poset_to_json(p: FinitePoset) -> dict:
    return {"size": p.n, "relations": [list(pair) for pair in p.strict_pairs()]}


# ---------------------------------------------------------------------------
# small constructors

def chain(n: int) -> FinitePoset:
    return FinitePoset(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def antichain(n: int) -> FinitePoset:
    return FinitePoset(n, [])


def vee() -> FinitePoset:
    """One minimum below two incomparable maxima."""
    return FinitePoset(3, [(1, 2), (1, 3)])


def single_cover(n: int) -> FinitePoset:
    """1 < 2 plus n-2 isolated elements."""
    if n < 2:
        raise ValueError("single cover poset needs size >= 2")
    return FinitePoset(n, [(1, 2)])


def disjoint_union(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    return FinitePoset._from_masks(p.n + q.n, p.up + tuple(m << p.n for m in q.up))


def linear_sum(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    above = ((1 << q.n) - 1) << p.n
    up = tuple(m | above for m in p.up) + tuple(m << p.n for m in q.up)
    return FinitePoset._from_masks(p.n + q.n, up)


def induced_subposet(p: FinitePoset, elements: Sequence[int]) -> FinitePoset:
    """Restriction of ``p`` to the given elements, relabeled 1..k in sorted order."""
    elems = sorted(set(elements))
    up = tuple(
        sum(1 << j for j, f in enumerate(elems) if p.up[e - 1] >> (f - 1) & 1)
        for e in elems
    )
    return FinitePoset._from_masks(len(elems), up)


# ---------------------------------------------------------------------------
# structural operations

def connected_components(p: FinitePoset) -> list[list[int]]:
    """Components of the comparability graph, each sorted, ordered by minimum."""
    adj = [p.up[i] | p.down[i] for i in range(p.n)]
    seen = 0
    components = []
    for start in range(p.n):
        if seen >> start & 1:
            continue
        comp = 1 << start
        frontier = comp
        while frontier:
            new = 0
            for v in _bits(frontier):
                new |= adj[v]
            frontier = new & ~comp
            comp |= new
        seen |= comp
        components.append([v + 1 for v in _bits(comp)])
    return components


def is_connected(p: FinitePoset) -> bool:
    return p.n <= 1 or len(connected_components(p)) == 1


def height(p: FinitePoset) -> int:
    """Maximum cardinality of a chain."""
    memo = [0] * p.n
    for v in sorted(range(p.n), key=lambda v: p.down[v].bit_count()):
        memo[v] = 1 + max((memo[w] for w in _bits(p.down[v])), default=0)
    return max(memo, default=0)


def is_disjoint_union_of_flats(p: FinitePoset) -> bool:
    """True iff every component is an antichain with one added maximum: no
    element has two above it (so none has one above and one below)."""
    return all(not up & (up - 1) for up in p.up)


def _mask_of(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << (e - 1)
    return mask


def is_weakly_below(p: FinitePoset, first: Iterable[int], second: Iterable[int]) -> bool:
    """True iff no element of ``first`` is >= any element of ``second``."""
    fs, ss = _mask_of(first), _mask_of(second)
    return not fs & ss and not any(p.up[y] & fs for y in _bits(ss))


def is_below(p: FinitePoset, first: Iterable[int], second: Iterable[int]) -> bool:
    """True iff every element of ``first`` is strictly below every element
    of ``second``; so the two share no element unless one is empty."""
    ss = _mask_of(second)
    return all(not ss & ~p.up[x] for x in _bits(_mask_of(first)))


# ---------------------------------------------------------------------------
# pattern containment

def _embedding(
    host: FinitePoset, pat: FinitePoset, order: Sequence[int] | None = None
) -> tuple[int, ...] | None:
    """The first injective order-preserving map from ``pat`` into ``host``,
    as the host vertices of the pattern vertices 0..pat.n-1, or None.

    Pattern vertices are assigned in ``order``, by default most relations
    first, an order sorted once per pattern and kept on it.  A vertex's
    candidates are one bitmask: the unused host vertices, cut by
    ``host.up[x]`` for each assigned pattern vertex below it with image x and
    by ``host.down[x]`` for each above it.  Candidates are tried
    in increasing order, skipping those with fewer host relations up or down
    than the pattern vertex has, so with ``order=range(pat.n)`` the result is
    the lexicographically smallest map.
    """
    if pat.n > host.n:
        return None
    if order is None:
        order = pat._order
        if order is None:
            order = pat._order = tuple(
                sorted(
                    range(pat.n),
                    key=lambda v: -(pat.up[v].bit_count() + pat.down[v].bit_count()),
                )
            )
    host_up, host_down, pat_up, pat_down = host.up, host.down, pat.up, pat.down
    image = [0] * pat.n  # image[v] = host vertex assigned to pattern vertex v

    def rec(k: int, unused: int) -> bool:
        if k == pat.n:
            return True
        v = order[k]
        candidates = unused
        for t in range(k):
            u = order[t]
            x = image[u]
            if pat_up[u] >> v & 1:
                candidates &= host_up[x]
            elif pat_down[u] >> v & 1:
                candidates &= host_down[x]
        need_up, need_down = pat_up[v].bit_count(), pat_down[v].bit_count()
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            w = low.bit_length() - 1
            if need_up <= host_up[w].bit_count() and need_down <= host_down[w].bit_count():
                image[v] = w
                if rec(k + 1, unused ^ low):
                    return True
        return False

    return tuple(image) if rec(0, (1 << host.n) - 1) else None


def _induced_form_mask(
    q: FinitePoset, pattern_bit: dict, max_k: int, memo: dict
) -> int:
    """The union of ``pattern_bit[form]`` over the canonical forms of the
    induced subposets of ``q`` on 1..max_k elements, so ``q`` contains a
    pattern induced iff the pattern's bit is set.  ``pattern_bit`` holds
    every form of those sizes; ``memo`` maps labeled masks to their bit."""
    up = q.up
    mask = 0
    for k in range(1, min(max_k, q.n) + 1):
        for elems in combinations(range(q.n), k):
            sub = tuple(
                sum(1 << b for b, f in enumerate(elems) if up[e] >> f & 1)
                for e in elems
            )
            bit = memo.get(sub)
            if bit is None:
                bit = memo[sub] = pattern_bit[k, _canonical_masks(k, sub)]
            mask |= bit
    return mask


def weakly_contains(q: FinitePoset, p: FinitePoset) -> bool:
    """True iff an injective order-preserving map p -> q exists."""
    return _embedding(q, p) is not None


def strongly_avoids(q: FinitePoset, p: FinitePoset) -> bool:
    """True iff ``q`` does not weakly contain ``p``."""
    return not weakly_contains(q, p)


# ---------------------------------------------------------------------------
# enumeration

def _down_sets(n: int, down: Masks) -> list[int]:
    """Every subset of 0..n-1 closed downward under ``down``, as a mask."""
    return [s for s in range(1 << n) if all(down[v] & ~s == 0 for v in _bits(s))]


def _extensions(smaller_masks: Iterable[Masks], n: int) -> Iterator[Masks]:
    """Every poset on n elements whose first n-1 elements induce one of
    ``smaller_masks``: the new element goes above a down-set and below an
    up-set, with everything below it below everything above it."""
    bit_new = 1 << (n - 1)
    for up in smaller_masks:
        ideals = _down_sets(n - 1, _down_masks(n - 1, up))
        filters = _down_sets(n - 1, up)  # up-sets are down-sets of the dual
        for d in ideals:
            for u in filters:
                if d & u:
                    continue
                if any(u & ~up[v] for v in _bits(d)):
                    continue
                new_up = [up[v] | (bit_new if d >> v & 1 else 0) for v in range(n - 1)]
                new_up.append(u)
                yield tuple(new_up)


@lru_cache(maxsize=None)
def _labeled_masks(n: int) -> tuple[Masks, ...]:
    if n == 0:
        return ((),)
    return tuple(_extensions(_labeled_masks(n - 1), n))


@lru_cache(maxsize=None)
def _unlabeled_masks(n: int) -> tuple[Masks, ...]:
    """The canonical masks of every poset of size n, sorted.

    Every nonempty finite poset has a maximal element, and deleting it
    leaves a poset on n-1 elements in which its down-set is a down-set.  So
    each isomorphism class of size n arises from a canonical poset of size
    n-1 and one new maximal element placed above one of its down-sets: the
    one-point extension of Brinkmann and McKay, "Posets on up to 16
    points", Order 19 (2002), restricted to a new element with empty
    up-set.  Canonical forms then merge the isomorphic extensions.
    """
    if n == 0:
        return ((),)
    bit_new = 1 << (n - 1)
    forms = set()
    for up in _unlabeled_masks(n - 1):
        for d in _down_sets(n - 1, _down_masks(n - 1, up)):
            new_up = tuple(m | bit_new if d >> v & 1 else m for v, m in enumerate(up))
            forms.add(_canonical_masks(n, new_up + (0,)))
    return tuple(sorted(forms))


def enumerate_posets(n: int, labeled: bool = True) -> list[FinitePoset]:
    """All posets on 1..n (labeled) or one canonical representative per
    isomorphism class (unlabeled), in a fixed deterministic order."""
    if n < 0:
        raise ValueError("size must be >= 0")
    if n > SIZE_LIMIT:
        raise LimitError(f"size {n} exceeds limit {SIZE_LIMIT}")
    masks = _labeled_masks(n) if labeled else _unlabeled_masks(n)
    return [FinitePoset._from_masks(n, up) for up in masks]


@dataclass(frozen=True)
class WeakPatternPoset:
    """All unlabeled posets of one size, ordered by weak containment: bit j
    of ``above[i]`` is set iff ``elements[j]`` weakly contains ``elements[i]``."""

    n: int
    elements: tuple[FinitePoset, ...]
    above: Masks
    hasse_edges: tuple[tuple[int, int], ...]

    def minimum(self) -> int:
        full = (1 << len(self.elements)) - 1
        (m,) = [i for i, mask in enumerate(self.above) if mask == full]
        return m

    def maximum(self) -> int:
        (m,) = [i for i, mask in enumerate(self.above) if mask == 1 << i]
        return m

    def atoms(self) -> list[int]:
        bottom = self.minimum()
        return [j for i, j in self.hasse_edges if i == bottom]


def build_weak_pattern_poset(n: int) -> WeakPatternPoset:
    elements = tuple(enumerate_posets(n, labeled=False))
    k = len(elements)
    above = tuple(
        sum(1 << j for j in range(k) if i == j or weakly_contains(elements[j], elements[i]))
        for i in range(k)
    )
    # transitive reduction: j covers i iff j is strictly above i and not
    # strictly above any m strictly above i
    strict = [mask & ~(1 << i) for i, mask in enumerate(above)]
    edges = []
    for i in range(k):
        beyond = 0
        for m in _bits(strict[i]):
            beyond |= strict[m]
        edges.extend((i, j) for j in _bits(strict[i] & ~beyond))
    return WeakPatternPoset(n=n, elements=elements, above=above, hasse_edges=tuple(edges))


def sav_count(n: int, pattern: FinitePoset, labeled: bool = True) -> int:
    """Number of size-n posets in the chosen mode strongly avoiding ``pattern``."""
    return sum(
        1
        for q in enumerate_posets(n, labeled=labeled)
        if strongly_avoids(q, pattern)
    )
