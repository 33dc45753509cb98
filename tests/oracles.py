"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written with a different algorithm than the
code under test: direct filters, exhaustive injections, and first-principles
recurrences.  The small predicates and constructors at the end are used by
tests alone.
"""

from itertools import combinations, permutations


def partitions_by_smallest_part(n, smallest=1):
    """All partitions of n, built by recursion on the smallest part."""
    if n == 0:
        return [()]
    result = []
    for part in range(smallest, n + 1):
        for rest in partitions_by_smallest_part(n - part, part):
            result.append(rest + (part,))
    return result


def simple_odd_parts(p):
    odds = [x for x in p if x % 2]
    return len(odds) == len(set(odds))


def brute_schroeder_partitions(n):
    """Set of partitions of n with simple odd parts, via the independent generator."""
    return {p for p in partitions_by_smallest_part(n) if simple_odd_parts(p)}


def filtered_schroeder_partitions(n):
    """Partitions of n with simple odd parts, lexicographically decreasing,
    by filtering every partition of n."""
    from schroeder.partitions import is_schroeder, partitions_of

    return [p for p in partitions_of(n) if is_schroeder(p)]


def conjugate_cluster_map(p, n):
    """Block sums of the column lengths of ``p``, read off its conjugate:
    the i-th part is the sum of columns i*n+1 .. i*n+n, empty blocks
    dropped."""
    from schroeder.partitions import conjugate

    if n < 1:
        raise ValueError("n must be >= 1")
    cols = conjugate(p)
    return tuple(
        s for s in (sum(cols[i : i + n]) for i in range(0, len(cols), n)) if s
    )


def brute_up_covers(p, leq, is_valid, partitions_of):
    n = sum(p)
    return sorted(
        (q for q in partitions_of(n + 1) if is_valid(q) and leq(p, q)), reverse=True
    )


def brute_down_covers(p, leq, is_valid, partitions_of):
    n = sum(p)
    if n == 0:
        return []
    return sorted(
        (q for q in partitions_of(n - 1) if is_valid(q) and leq(q, p)), reverse=True
    )


def all_fillings(shape):
    """Every bijective filling of the shape with 1..n, as row tuples."""
    n = sum(shape)
    for perm in permutations(range(1, n + 1)):
        rows = []
        pos = 0
        for length in shape:
            rows.append(tuple(perm[pos : pos + length]))
            pos += length
        yield tuple(rows)


def brute_is_standard(rows):
    """Standardness read off the definition: every row increases, and so
    does every square-column of the first row, read top to bottom with the
    upper triangle before the lower one in each row."""
    sequences = list(rows)
    for j in range(0, len(rows[0]) if rows else 0, 2):
        sequences.append([x for row in rows for x in row[j : j + 2]])
    return all(a < b for seq in sequences for a, b in zip(seq, seq[1:]))


def placement_fillings(shape):
    """Yield the row contents of every standard filling of ``shape``, by
    placing 1..n in increasing order; a value may extend row i when the cell
    it would occupy has its reading-order predecessor already filled.  For an
    upper triangle below row 0 that predecessor is the lower twin in the row
    above."""
    n = sum(shape)
    filled = [0] * len(shape)
    rows = [[] for _ in shape]

    def placeable(i):
        p = filled[i] + 1
        if p > shape[i]:
            return False
        if i > 0 and p % 2 and filled[i - 1] < p + 1:
            return False
        return True

    def rec(value):
        if value > n:
            yield tuple(tuple(r) for r in rows)
            return
        for i in range(len(shape)):
            if placeable(i):
                filled[i] += 1
                rows[i].append(value)
                yield from rec(value + 1)
                filled[i] -= 1
                rows[i].pop()

    yield from rec(1)


def enumeration_count(shape):
    """Number of standard fillings of ``shape``, by walking every one."""
    return sum(1 for _ in placement_fillings(shape))


def chain_to_tableau(chain):
    """Fill cells in the order they are added along a saturated chain of
    ``lattice.covers`` from (): the cell added at step k receives entry k."""
    from schroeder.lattice import covers
    from schroeder.partitions import check_schroeder
    from schroeder.tableaux import SchroderTableau

    chain = [check_schroeder(p) for p in chain]
    if not chain or chain[0] != ():
        raise ValueError("chain must start at the empty partition")
    rows = []
    for k in range(1, len(chain)):
        prev, cur = chain[k - 1], chain[k]
        if cur not in covers(prev).up_covers:
            raise ValueError(f"chain step {prev} -> {cur} is not a cover")
        if len(cur) > len(prev):
            rows.append([k])
        else:
            grown = next(i for i in range(len(prev)) if cur[i] != prev[i])
            rows[grown].append(k)
    return SchroderTableau(chain[-1], tuple(tuple(r) for r in rows))


def tableau_to_chain(t):
    """Shapes of the subfillings with entries 1..k, for k = 0..n."""
    from schroeder.tableaux import is_standard

    if not is_standard(t):
        raise ValueError("tableau is not standard")
    chain = []
    for k in range(t.size + 1):
        shape_k = tuple(
            count for count in (sum(1 for x in row if x <= k) for row in t.rows) if count
        )
        chain.append(shape_k)
    return chain


def brute_contains_pattern(values, pattern):
    """Pattern containment by scanning all index combinations."""
    k = len(pattern)
    if k > len(values):
        return False
    target = rank_pattern(pattern)
    return any(
        rank_pattern([values[i] for i in idx]) == target
        for idx in combinations(range(len(values)), k)
    )


def rank_pattern(values):
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def brute_avoids_123_213(values):
    """Av(123, 213) by scanning all index triples."""
    return not brute_contains_pattern(values, (1, 2, 3)) and not brute_contains_pattern(
        values, (2, 1, 3)
    )


def search_contains_pattern(values, pattern):
    """Pattern containment by a backtracking search that extends a partial
    occurrence one value at a time, left to right."""
    k = len(pattern)
    n = len(values)
    if k == 0:
        return True
    if k > n:
        return False
    chosen = [0] * k

    def rec(m, start):
        for idx in range(start, n - (k - m) + 1):
            v = values[idx]
            if all((pattern[t] < pattern[m]) == (chosen[t] < v) for t in range(m)):
                chosen[m] = v
                if m + 1 == k or rec(m + 1, idx + 1):
                    return True
        return False

    return rec(0, 0)


def search_avoids_123_213(values):
    """Av(123, 213) by two backtracking pattern searches."""
    return not search_contains_pattern(
        values, (1, 2, 3)
    ) and not search_contains_pattern(values, (2, 1, 3))


def subset_hook_decomposition(p):
    """The 2-rooted shuffle test by trying every subset of the suffix values
    above the root as the row side; the rest, with the root, is the column
    side."""
    from schroeder import _kernels

    if len(p) < 2:
        return False
    root, suffix = list(p[:2]), p[2:]
    eligible = [i for i, v in enumerate(suffix) if v > max(root)]
    for mask in range(1 << len(eligible)):
        picked = {eligible[b] for b in range(len(eligible)) if mask >> b & 1}
        row = root + [suffix[i] for i in eligible if i in picked]
        col = root + [v for i, v in enumerate(suffix) if i not in picked]
        if _kernels.single_row_predicate(rank_pattern(row)) and search_avoids_123_213(col):
            return True
    return False


def brute_sweep_row_col(n):
    """The S_n sweep of ``_kernels.sweep_row_col``, inserting every
    permutation of 1..n from scratch in lexicographic order."""
    from schroeder import _kernels

    row_count = 0
    col_count = 0
    row_mismatches = []
    col_mismatches = []
    for perm in permutations(range(1, n + 1)):
        shape_rows, _ = _kernels.sch_rows(perm)
        ins_row = len(shape_rows) == 1
        ins_col = len(shape_rows[0]) <= 2
        row_count += ins_row
        col_count += ins_col
        if ins_row != _kernels.single_row_predicate(perm):
            row_mismatches.append(perm)
        if ins_col != _kernels.single_column_predicate(perm):
            col_mismatches.append(perm)
    return row_count, col_count, row_mismatches, col_mismatches


def brute_rsk_failures(max_n):
    """The rsk suite's validity and hook checks, inserting every permutation
    of length 1..max_n from scratch in lexicographic order and deciding the
    hook decomposition by ``insertion.has_hook_decomposition``.

    Returns (validity failures, hook mismatches), each in the order found.
    """
    from schroeder import _kernels, insertion, tableaux
    from schroeder.partitions import is_schroeder

    validity_bad = []
    hook_mism = []
    for n in range(1, max_n + 1):
        entries = list(range(1, n + 1))
        for perm in permutations(entries):
            p_rows, q_rows = _kernels.sch_rows(perm)
            shape = tuple(len(r) for r in p_rows)
            if (
                tuple(len(r) for r in q_rows) != shape
                or not is_schroeder(shape)
                or sorted(x for r in p_rows for x in r) != entries
                or sorted(x for r in q_rows for x in r) != entries
                or not tableaux.is_standard_rows(p_rows)
                or not tableaux.is_standard_rows(q_rows)
            ):
                validity_bad.append(perm)
            shape_hook = tableaux.is_hook_shape(shape) and sum(shape) >= 2
            if shape_hook != insertion.has_hook_decomposition(perm):
                hook_mism.append(perm)
    return validity_bad, hook_mism


def brute_weakly_contains(host, pat):
    """Weak containment by trying every injective assignment."""
    if pat.n > host.n:
        return False
    for image in permutations(range(1, host.n + 1), pat.n):
        if all(
            host.less(image[i - 1], image[j - 1])
            for i in range(1, pat.n + 1)
            for j in range(1, pat.n + 1)
            if pat.less(i, j)
        ):
            return True
    return False


def brute_contains_induced(host, pat):
    if pat.n > host.n:
        return False
    for image in permutations(range(1, host.n + 1), pat.n):
        ok = True
        for i in range(1, pat.n + 1):
            for j in range(1, pat.n + 1):
                if i == j:
                    continue
                if pat.less(i, j) != host.less(image[i - 1], image[j - 1]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def pairwise_embedding(host, pat, induced, order=None):
    """``posets._embedding`` by testing each host vertex against every
    assigned pattern vertex pair by pair: the same assignment order, the same
    degree filter and the same increasing candidate order, so the same first
    image.  When ``induced``, the map must reflect the order too: the
    reference for induced containment, which the library does not search."""
    if pat.n > host.n:
        return None
    if order is None:
        order = sorted(
            range(pat.n),
            key=lambda v: -(pat.up[v].bit_count() + pat.down[v].bit_count()),
        )
    image = [0] * pat.n
    used = [False] * host.n

    def feasible(v, w):
        if pat.up[v].bit_count() > host.up[w].bit_count():
            return False
        if pat.down[v].bit_count() > host.down[w].bit_count():
            return False
        return True

    def rec(k):
        if k == pat.n:
            return True
        v = order[k]
        for w in range(host.n):
            if used[w] or not feasible(v, w):
                continue
            ok = True
            for t in range(k):
                u = order[t]
                x = image[u]
                pat_uv = pat.up[u] >> v & 1
                pat_vu = pat.up[v] >> u & 1
                host_xw = host.up[x] >> w & 1
                host_wx = host.up[w] >> x & 1
                if pat_uv and not host_xw:
                    ok = False
                elif pat_vu and not host_wx:
                    ok = False
                elif induced and not pat_uv and not pat_vu and (host_xw or host_wx):
                    ok = False
                if not ok:
                    break
            if ok:
                image[v] = w
                used[w] = True
                if rec(k + 1):
                    return True
                used[w] = False
        return False

    return tuple(image) if rec(0) else None


def pairs_disjoint_union(p, q):
    """Disjoint union through strict pairs and ``FinitePoset(n, pairs)``."""
    from schroeder.posets import FinitePoset

    pairs = list(p.strict_pairs()) + [(i + p.n, j + p.n) for i, j in q.strict_pairs()]
    return FinitePoset(p.n + q.n, pairs)


def pairs_linear_sum(p, q):
    """Linear sum (all of ``p`` below all of ``q``) through strict pairs."""
    from schroeder.posets import FinitePoset

    pairs = list(p.strict_pairs()) + [(i + p.n, j + p.n) for i, j in q.strict_pairs()]
    pairs += [(i, j + p.n) for i in range(1, p.n + 1) for j in range(1, q.n + 1)]
    return FinitePoset(p.n + q.n, pairs)


def pairs_induced_subposet(p, elements):
    """Restriction to ``elements``, relabeled in sorted order, through strict pairs."""
    from schroeder.posets import FinitePoset

    elems = sorted(set(elements))
    index = {e: i + 1 for i, e in enumerate(elems)}
    pairs = [(index[i], index[j]) for i in elems for j in elems if i != j and p.less(i, j)]
    return FinitePoset(len(elems), pairs)


def extension_unlabeled_masks(n):
    """The canonical masks of the posets of size n, sorted, from every
    one-point extension of the size n-1 classes: the new element above any
    down-set and below any compatible up-set."""
    from schroeder.posets import _canonical_masks, _extensions

    if n == 0:
        return ((),)
    extended = _extensions(extension_unlabeled_masks(n - 1), n)
    return tuple(sorted({_canonical_masks(n, up) for up in extended}))


def search_upset_avoided(q, upset):
    """True iff ``q`` contains no poset of ``upset`` induced, by one
    embedding search per poset."""
    return not any(pairwise_embedding(q, r, True) is not None for r in upset)


def fixpoint_closure(n, pairs):
    """The up masks of the transitive closure of ``pairs`` on 1..n, by
    repeating one-step extensions until nothing changes; ``ValueError`` on a
    cycle or a reflexive pair."""
    up = [0] * n
    for i, j in pairs:
        up[i - 1] |= 1 << (j - 1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            extra = 0
            for j in range(n):
                if up[i] >> j & 1:
                    extra |= up[j]
            if extra & ~up[i]:
                up[i] |= extra
                changed = True
    if any(up[i] >> i & 1 for i in range(n)):
        raise ValueError("relation has a cycle")
    return tuple(up)


def is_flat(p):
    """True iff ``p`` is an antichain with one added maximum."""
    if p.n == 0:
        return False
    tops = [v for v in range(p.n) if p.up[v] == 0]
    if len(tops) != 1:
        return False
    top = tops[0]
    full = (1 << p.n) - 1
    if p.down[top] != full ^ (1 << top):
        return False
    return all(
        v == top or (p.up[v] == 1 << top and p.down[v] == 0) for v in range(p.n)
    )


def components_are_flat(p):
    """True iff every connected component of ``p`` induces a flat poset."""
    from schroeder.posets import connected_components

    return all(is_flat(pairs_induced_subposet(p, comp)) for comp in connected_components(p))


def pairwise_is_below(p, first, second):
    """Every element of ``first`` strictly below every element of
    ``second``, one ``less`` call per pair."""
    return all(x != y and p.less(x, y) for x in set(first) for y in set(second))


def pairwise_is_weakly_below(p, first, second):
    """No element of ``first`` at or above any element of ``second``, one
    ``less`` call per pair."""
    return not any(x == y or p.less(y, x) for x in set(first) for y in set(second))


def upset_in_Xn(p):
    """The size-|p| unlabeled posets weakly containing ``p``, in enumeration
    order, by one containment search per poset."""
    from schroeder.posets import enumerate_posets

    return [q for q in enumerate_posets(p.n, labeled=False) if brute_weakly_contains(q, p)]


def matrix_weak_pattern_poset(n):
    """X_n as a k x k matrix, ``leq[i][j]`` iff ``elements[j]`` weakly
    contains ``elements[i]``, and its Hasse edges (i, j) in increasing order:
    the pairs with no third element between them."""
    from schroeder.posets import enumerate_posets

    elements = enumerate_posets(n, labeled=False)
    k = len(elements)
    leq = [
        [i == j or brute_weakly_contains(elements[j], elements[i]) for j in range(k)]
        for i in range(k)
    ]
    edges = [
        (i, j)
        for i in range(k)
        for j in range(k)
        if i != j
        and leq[i][j]
        and not any(leq[i][m] and leq[m][j] for m in range(k) if m != i and m != j)
    ]
    return leq, edges


def pairs_interval_order(intervals):
    """Complete precedence of intervals through strict pairs and
    ``FinitePoset(n, pairs)``, which closes the relation and checks it for
    cycles."""
    from schroeder.posets import FinitePoset

    ivs = [tuple(iv) for iv in intervals]
    pairs = [
        (i + 1, j + 1)
        for i, (_, b) in enumerate(ivs)
        for j, (a, _) in enumerate(ivs)
        if b < a
    ]
    return FinitePoset(len(ivs), pairs)


def pairs_downset_poset(d):
    """The componentwise order on the row-major cells of a down-set, through
    strict pairs."""
    from schroeder.posets import FinitePoset

    cells = [(r + 1, c + 1) for r, length in enumerate(d) for c in range(length)]
    pairs = [
        (i + 1, j + 1)
        for i, (r1, c1) in enumerate(cells)
        for j, (r2, c2) in enumerate(cells)
        if (r1, c1) != (r2, c2) and r1 <= r2 and c1 <= c2
    ]
    return FinitePoset(len(cells), pairs)


def cell_intervals_of_tableau(t):
    """One interval per twin pair (its two entries) and one per lonely cell
    (its entry paired with n+1), keyed by (row, position) and sorted."""
    n = t.size
    by_cell = {}
    for i, length in enumerate(t.shape):
        for j in range(1, length // 2 + 1):
            by_cell[(i, 2 * j - 1)] = (t.rows[i][2 * j - 2], t.rows[i][2 * j - 1])
        if length % 2:
            by_cell[(i, length)] = (t.rows[i][length - 1], n + 1)
    return tuple(by_cell[cell] for cell in sorted(by_cell))


def brute_first_witness(p):
    """The first (down-set, mapping) for a poset ``p``: down-sets with p.n
    cells in lexicographically decreasing order of their row lengths, and
    for each the first permutation of 1..n, in lexicographic order, that
    maps the row-major cells order-preservingly into ``p``; None when no
    down-set embeds."""
    n = p.n
    for d in sorted(partitions_by_smallest_part(n), reverse=True):
        cells = [(r, c) for r, length in enumerate(d) for c in range(length)]
        below = [
            (i, j)
            for i, (r1, c1) in enumerate(cells)
            for j, (r2, c2) in enumerate(cells)
            if i != j and r1 <= r2 and c1 <= c2
        ]
        for image in permutations(range(1, n + 1)):
            if all(p.less(image[i], image[j]) for i, j in below):
                return d, image
    return None


def bell_by_binomial(n):
    """Bell numbers via B_{k+1} = sum_j C(k, j) B_j, independent of the triangle."""
    from math import comb

    bells = [1]  # B_0
    for k in range(n):
        bells.append(sum(comb(k, j) * bells[j] for j in range(k + 1)))
    return bells[1:]


def sch_shape(p):
    """Shape of the triangular insertion tableau of the permutation ``p``."""
    from schroeder import _kernels
    from schroeder.insertion import check_permutation

    rows, _ = _kernels.sch_rows(check_permutation(p))
    return tuple(len(r) for r in rows)


def is_single_row_shape(shape):
    return len(shape) <= 1


def is_single_column_shape(shape):
    """True iff every cell lies in the first square-column."""
    return not shape or shape[0] <= 2


def is_standard_young(rows):
    """True iff the rows form a standard Young tableau: a partition shape
    filled bijectively with 1..n, increasing along rows and down columns."""
    shape = tuple(len(r) for r in rows)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        return False
    entries = sorted(x for row in rows for x in row)
    if entries != list(range(1, sum(shape) + 1)):
        return False
    for row in rows:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for i in range(len(rows) - 1):
        if any(rows[i][j] >= rows[i + 1][j] for j in range(len(rows[i + 1]))):
            return False
    return True


def wedge():
    """Two incomparable minima below one maximum."""
    from schroeder.posets import FinitePoset

    return FinitePoset(3, [(1, 3), (2, 3)])


def two_plus_two():
    """Two disjoint 2-element chains."""
    from schroeder.posets import FinitePoset

    return FinitePoset(4, [(1, 2), (3, 4)])
