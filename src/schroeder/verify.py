"""Verification suites: exhaustive desk-scale checks of every enumerative
claim the package implements, with brute-force cross-checks.

Each suite returns a VerifyReport.  ``violations`` are failed assertions of
stated claims and make the report (and the CLI) fail; ``findings`` record the
outcomes of empirical certifications that are reported but never fatal.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

from . import _kernels, insertion, intervals, lattice, posets, tableaux
from .errors import LimitError
from .partitions import (
    cluster_map,
    enumerate_schroeder_partitions,
    gf_coefficients,
    is_schroeder,
    partitions_of,
    satisfies_cn_condition,
)

# the fixed parts of the suites; only each suite's depth is an argument
GF_MAX = 40  # counts: generating-function orders checked against enumeration
C2_MAX = 20  # counts: partition orders of the double-cluster fixed points
TRIPLES = 10000  # lattice: seeded random triples for the lattice laws
COVERS_MAX = 14  # lattice: orders whose covers meet the one-cell edits
CHAINS_MAX = 10  # lattice: orders whose chain counts meet the tableau counts
TABLEAU_MAX = 9  # interval-theorem: tableau orders whose interval orders are checked


@dataclass
class VerifyReport:
    suite: str
    params: dict
    checks: int = 0
    violations: list[tuple[str, str]] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(
        self, claim: str, condition: bool, witness: Callable[[], str] | None = None
    ) -> None:
        """Count one check; a failed one records its witness, which is
        formatted only then."""
        self.checks += 1
        if not condition:
            self.violations.append((claim, witness() if witness else ""))

    def summary_lines(self) -> list[str]:
        lines = [
            f"suite={self.suite} checks={self.checks} "
            f"violations={len(self.violations)}"
        ]
        for claim, witness in self.violations:
            lines.append(f"violation: {claim}" + (f" [witness: {witness}]" if witness else ""))
        for note in self.findings:
            lines.append(f"finding: {note}")
        return lines


def _bell_numbers(count: int) -> list[int]:
    """Bell numbers B_1..B_count via the Bell triangle."""
    bells = []
    row = [1]
    for _ in range(count):
        bells.append(row[-1])
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return bells


def run_counts(max_n: int = 9) -> VerifyReport:
    """Single-row/single-column counts and sets, the generating function
    against enumeration, and the double-cluster fixed points."""
    _check_depth("counts", max_n)
    report = VerifyReport("counts", {"max": max_n, "gf_max": GF_MAX, "c2_max": C2_MAX})

    for n in range(1, max_n + 1):
        rows, cols, row_mism, col_mism = _kernels.sweep_row_col(n)
        report.check(
            f"single-row insertion count at n={n} is 2^(n//2)",
            rows == 2 ** (n // 2),
            lambda: f"got {rows}",
        )
        report.check(
            f"single-column insertion count at n={n} is 2^(n-1)",
            cols == 2 ** (n - 1),
            lambda: f"got {cols}",
        )
        report.check(
            f"single-row set matches pair predicate elementwise at n={n}",
            not row_mism,
            lambda: f"{len(row_mism)} mismatches, first {row_mism[:3]}",
        )
        report.check(
            f"single-column set matches Av(123,213) elementwise at n={n}",
            not col_mism,
            lambda: f"{len(col_mism)} mismatches, first {col_mism[:3]}",
        )

    coeffs = gf_coefficients(GF_MAX)
    for k in range(GF_MAX + 1):
        report.check(
            f"gf coefficient equals enumeration at order {k}",
            coeffs[k] == len(enumerate_schroeder_partitions(k)),
            lambda: f"gf={coeffs[k]}",
        )

    for order_n in range(C2_MAX + 1):
        for p in partitions_of(order_n):
            for n in range(1, 5):
                fixed = cluster_map(cluster_map(p, n), n) == p
                if n == 2:
                    report.check(
                        "double 2-cluster fixed points are the simple-odd-part partitions",
                        fixed == is_schroeder(p),
                        lambda: str(p),
                    )
                report.check(
                    f"double {n}-cluster fixed points match the block condition",
                    fixed == satisfies_cn_condition(p, n),
                    lambda: str(p),
                )

    return report


def run_differential(max_order: int = 18) -> VerifyReport:
    """Cover-degree bounds, the common-cover condition, and attainment of
    both bounds."""
    _check_depth("differential", max_order)
    report = VerifyReport("differential", {"max": max_order})
    result = lattice.verify_differential(max_order)
    report.checks += result.partitions_checked + result.pairs_checked
    for violation in result.violations:
        report.violations.append(("differential bounds", violation))
    report.check(
        "lower bound ceil((k+1)/2) attained in range",
        result.lower_bound_witness is not None,
    )
    report.check(
        "upper bound 2k attained in range",
        result.upper_bound_witness is not None,
    )
    if result.lower_bound_witness:
        report.findings.append(f"lower bound attained at {result.lower_bound_witness}")
    if result.upper_bound_witness:
        report.findings.append(f"upper bound attained at {result.upper_bound_witness}")
    if result.violations and result.min_slack_high == -1:
        report.findings.append(
            "every up-degree in range satisfies the corrected bound l <= 2k+1; "
            "stacked blocks (2a, 2a-1) attain it"
        )
    return report


def run_rsk(max_n: int = 8) -> VerifyReport:
    """The worked insertion example, the squared-count identity for classical
    insertion, empirical validity of the triangular insertion, and the hook
    certification."""
    _check_depth("rsk", max_n)
    report = VerifyReport("rsk", {"max": max_n})

    p_tab, q_tab = insertion.sch_insert(insertion.parse_permutation("465193287"))
    report.check(
        "worked example insertion tableau",
        p_tab.rows == ((1, 2, 7, 8), (3, 4, 9), (5, 6)),
        lambda: str(p_tab.rows),
    )
    report.check(
        "worked example recording tableau",
        q_tab.rows == ((1, 2, 5, 8), (3, 4, 9), (6, 7)),
        lambda: str(q_tab.rows),
    )

    for n in range(1, min(max_n, 7) + 1):
        shape_counts = _kernels.sweep_rs_shapes(n)
        total = 0
        for shape in partitions_of(n):
            f = insertion.count_standard_young(shape)
            total += f * f
            report.check(
                f"classical insertion shape statistics at n={n}",
                shape_counts.get(shape, 0) == f * f,
                lambda: f"shape {shape}: swept {shape_counts.get(shape, 0)}, tableau count {f}",
            )
        report.check(
            f"sum of squared tableau counts is {n}! at n={n}",
            total == math.factorial(n),
        )

    visited, validity_bad, hook_mism = _rsk_walk(max_n)
    report.checks += 2 * visited
    if validity_bad[0]:
        report.findings.append(
            f"insertion validity failed for {validity_bad[0]} permutations "
            f"(first {validity_bad[1]})"
        )
    else:
        report.findings.append(
            f"insertion outputs standard with equal shapes for all n <= {max_n}"
        )
    if hook_mism[0]:
        report.findings.append(
            f"hook certification: {hook_mism[0]} permutations with hook-shaped "
            f"insertion tableau but no rooted-shuffle decomposition through "
            f"n <= {max_n} (first {hook_mism[1]}); the rooted-shuffle "
            f"characterization of hook shapes fails under the strict reading"
        )
    else:
        report.findings.append(f"hook certification clean for all n <= {max_n}")

    return report


def _rsk_walk(max_n: int):
    """Check the insertion of every permutation of length 1..max_n once, by a
    depth-first walk of the generating tree of permutations.

    A node of depth k is a permutation of 1..k; its child for v in 1..k+1
    shifts the values >= v up by one and appends v.  Insertion compares
    values only, so the child's insertion rows are the parent's under the
    same shift plus one insertion step, and its recording rows are the
    parent's plus the cell k+1 in the row the step grew.

    Each node gets the six validity checks and the hook comparison.  The
    recording rows are standard iff the parent's are and no lower row
    reaches the square-column of the new cell, which holds the largest
    entry.  The forced split of ``insertion.has_hook_decomposition`` is
    carried as prefix flags.  The row side is the root and the values above
    the root maximum m, so a new row-side value v has rank r = v - m + 2
    among its L row-side values, and the side keeps the pair form iff r = L
    for odd L and r >= L - 1 for even L.  The column side is the values
    1..m, so a new column-side value v keeps it in Av(123, 213) iff v <= 2,
    that is iff v does not exceed the second-smallest value before it.

    Returns (nodes visited, validity tally, hook-mismatch tally), each tally
    as kept by ``_tally``.
    """
    step = _kernels._sch_step
    is_standard_rows = tableaux.is_standard_rows
    entries = [list(range(1, n + 1)) for n in range(max_n + 1)]
    # shape -> (simple odd parts, hook shape of order >= 2)
    shape_flags: dict[tuple[int, ...], tuple[bool, bool]] = {}
    validity_bad: list = [0, []]
    hook_mism: list = [0, []]
    visited = 0

    def walk(perm, rows, qrows, q_ok, root_max, row_ok, col_ok):
        # root_max, the larger root value, is unused below depth 2
        nonlocal visited
        n = len(perm) + 1
        for v in range(1, n + 1):
            child = [x + (x >= v) for x in perm]
            child.append(v)
            p_rows = [[x + (x >= v) for x in r] for r in rows]
            i = step(p_rows, v)
            q_rows = [r[:] for r in qrows]
            if i == len(q_rows):
                q_rows.append([n])
            else:
                q_rows[i].append(n)
            # 0-based start of the new cell's square-column
            col = (len(q_rows[i]) - 1) & ~1
            c_q_ok = q_ok and not (
                col < len(q_rows[0]) and max(map(len, q_rows[i + 1 :]), default=0) > col
            )

            if n <= 2:
                c_root, c_row, c_col = 2, True, True
            elif v > root_max:
                size, rank = n - root_max + 2, v - root_max + 2
                c_root, c_col = root_max, col_ok
                c_row = row_ok and (rank == size if size % 2 else rank >= size - 1)
            else:
                c_root, c_row = root_max + 1, row_ok
                c_col = col_ok and v <= 2

            shape = tuple(map(len, p_rows))
            flags = shape_flags.get(shape)
            if flags is None:
                flags = shape_flags[shape] = (
                    is_schroeder(shape),
                    tableaux.is_hook_shape(shape) and n >= 2,
                )
            visited += 1
            if (
                tuple(map(len, q_rows)) != shape
                or not flags[0]
                or sorted(chain.from_iterable(p_rows)) != entries[n]
                or sorted(chain.from_iterable(q_rows)) != entries[n]
                or not is_standard_rows(p_rows)
                or not c_q_ok
            ):
                _tally(validity_bad, tuple(child))
            if flags[1] != (n >= 2 and c_row and c_col):
                _tally(hook_mism, tuple(child))
            if n < max_n:
                walk(child, p_rows, q_rows, c_q_ok, c_root, c_row, c_col)

    walk([], [], [], True, 0, True, True)
    return visited, validity_bad, hook_mism


def _tally(tally: list, item: tuple) -> None:
    """Count ``item`` in ``tally`` = [count, the three smallest items by
    (length, items)], whatever the order items arrive in."""
    tally[0] += 1
    kept = tally[1]
    if len(kept) < 3 or (len(item), item) < (len(kept[-1]), kept[-1]):
        kept.append(item)
        kept.sort(key=lambda p: (len(p), p))
        del kept[3:]


def run_lattice(max_order: int = 15, seed: int = 0) -> VerifyReport:
    """Join/meet closure, distributive-lattice laws on seeded random triples,
    covers against the one-cell-edit definition, and chain counts against
    tableau counts."""
    _check_depth("lattice", max_order)
    report = VerifyReport("lattice", {"max": max_order, "triples": TRIPLES, "seed": seed})
    universe = [
        p for n in range(max_order + 1) for p in enumerate_schroeder_partitions(n)
    ]
    # the universe holds valid partitions only, so the unchecked helpers apply
    join, meet, leq = lattice._join, lattice._meet, lattice.leq
    for a in universe:
        for b in universe:
            j = join(a, b)
            m = meet(a, b)
            report.check(
                "join closure", is_schroeder(j) and leq(a, j) and leq(b, j),
                lambda: f"{a} v {b}",
            )
            report.check(
                "meet closure", is_schroeder(m) and leq(m, a) and leq(m, b),
                lambda: f"{a} ^ {b}",
            )

    rng = random.Random(seed)
    for _ in range(TRIPLES):
        a, b, c = (rng.choice(universe) for _ in range(3))
        report.check(
            "distributivity",
            join(a, meet(b, c)) == meet(join(a, b), join(a, c)),
            lambda: f"{a}, {b}, {c}",
        )
        report.check(
            "absorption",
            join(a, meet(a, b)) == a and meet(a, join(a, b)) == a,
            lambda: f"{a}, {b}",
        )

    for n in range(COVERS_MAX + 1):
        for p in enumerate_schroeder_partitions(n):
            cs = lattice.covers(p)
            brute_up = [
                q
                for q in enumerate_schroeder_partitions(n + 1)
                if lattice.leq(p, q)
            ]
            report.check(
                "covers match one-cell edits",
                list(cs.up_covers) == brute_up,
                lambda: str(p),
            )

    for n in range(CHAINS_MAX + 1):
        for p in enumerate_schroeder_partitions(n):
            report.check(
                "saturated chain count equals standard filling count",
                lattice.count_chains(p) == tableaux.count_tableaux(p),
                lambda: str(p),
            )

    return report


def run_sav(max_size: int = 6) -> VerifyReport:
    """Weak-pattern poset structure, strong-avoidance characterizations, the
    up-set reduction, and the union/sum/connectedness laws."""
    _check_depth("sav", max_size)
    report = VerifyReport("sav", {"max": max_size})

    expected_sizes = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}
    xps = {}
    for n in range(1, min(max_size, 5) + 1):
        xp = xps[n] = posets.build_weak_pattern_poset(n)
        report.check(
            f"unlabeled poset count at size {n}",
            len(xp.elements) == expected_sizes[n],
            lambda: f"got {len(xp.elements)}",
        )
        bottom = xp.minimum()
        top = xp.maximum()
        report.check(
            f"weak-pattern poset minimum is discrete at size {n}",
            xp.elements[bottom].pair_count() == 0,
        )
        report.check(
            f"weak-pattern poset maximum is the chain at size {n}",
            xp.elements[top].pair_count() == n * (n - 1) // 2,
        )
        report.check(
            f"weak-pattern poset has exactly one atom at size {n}",
            len(xp.atoms()) == 1 if n >= 2 else len(xp.atoms()) == 0,
            lambda: f"atoms {xp.atoms()}",
        )
        report.check(
            f"every cover adds exactly one strict pair at size {n}",
            all(
                xp.elements[j].pair_count() - xp.elements[i].pair_count() == 1
                for i, j in xp.hasse_edges
            ),
        )

    vee = posets.vee()
    bells = _bell_numbers(5)
    for n in range(1, min(max_size, 5) + 1):
        labeled = posets.enumerate_posets(n, labeled=True)
        avoiders = [q for q in labeled if posets.strongly_avoids(q, vee)]
        report.check(
            f"labeled strong avoiders of the vee are the flat unions at n={n}",
            all(posets.is_disjoint_union_of_flats(q) for q in avoiders)
            and sum(posets.is_disjoint_union_of_flats(q) for q in labeled)
            == len(avoiders),
        )
        report.check(
            f"labeled strong-avoider count of the vee is the Bell number at n={n}",
            len(avoiders) == bells[n - 1],
            lambda: f"got {len(avoiders)}, Bell {bells[n - 1]}",
        )

    hosts = [
        q
        for n in range(1, max_size + 1)
        for q in posets.enumerate_posets(n, labeled=False)
    ]
    # avoided[n, up][h]: whether hosts[h] strongly avoids the pattern of size
    # n <= 4 with canonical masks ``up``; every check below reads it
    avoided = {
        (p.n, p.up): [posets.strongly_avoids(q, p) for q in hosts]
        for n in range(1, 5)
        for p in posets.enumerate_posets(n, labeled=False)
    }
    for k in range(1, 5):
        chain_row = avoided[posets.chain(k).canonical_form()]
        discrete_row = avoided[posets.antichain(k).canonical_form()]
        cover_row = avoided[posets.single_cover(k).canonical_form()] if k >= 2 else None
        for h, q in enumerate(hosts):
            report.check(
                f"strong avoidance of the {k}-chain is the height filter",
                chain_row[h] == (posets.height(q) <= k - 1),
                lambda: f"host {q.strict_pairs()}",
            )
            report.check(
                f"strong avoidance of the discrete poset of size {k}",
                discrete_row[h] == (q.n <= k - 1),
                lambda: f"host {q.strict_pairs()}",
            )
            if k >= 2:
                expected = q.n <= k - 1 or q.pair_count() == 0
                report.check(
                    f"strong avoidance of the single-cover poset of size {k}",
                    cover_row[h] == expected,
                    lambda: f"host {q.strict_pairs()}",
                )

    # the patterns are X_1..X_4's elements in order; bit i of a mask stands for
    # patterns[i], so an up-set is an ``above`` mask shifted past smaller sizes
    patterns: list[posets.FinitePoset] = []
    upset_masks = []
    for n in range(1, min(max_size, 4) + 1):
        upset_masks.extend(mask << len(patterns) for mask in xps[n].above)
        patterns.extend(xps[n].elements)
    pattern_bit = {(p.n, p.up): 1 << i for i, p in enumerate(patterns)}
    form_memo: dict[posets.Masks, int] = {}
    host_masks = [
        posets._induced_form_mask(q, pattern_bit, min(max_size, 4), form_memo)
        for q in hosts
    ]
    for pat, upset_mask in zip(patterns, upset_masks):
        for q, lhs, host_mask in zip(hosts, avoided[pat.n, pat.up], host_masks):
            report.check(
                "strong avoidance reduces to induced avoidance of the up-set",
                lhs == (not upset_mask & host_mask),
                lambda: f"pattern {pat.strict_pairs()}, host {q.strict_pairs()}",
            )

    small_patterns = [
        p
        for n in range(1, min(max_size, 3) + 1)
        for p in posets.enumerate_posets(n, labeled=False)
    ]
    union_hosts = [q for q in hosts if q.n <= min(max_size, 5)]
    # keyed on masks, not on the posets, so each host's split sub-posets are
    # freed once the host is done
    avoid_memo: dict[tuple, bool] = {}

    def memo_avoids(sub: posets.FinitePoset, pat: posets.FinitePoset) -> bool:
        key = (sub.n, sub.up, pat.n, pat.up)
        if key not in avoid_memo:
            avoid_memo[key] = posets.strongly_avoids(sub, pat)
        return avoid_memo[key]

    pattern_pairs = [
        (pa, pb, posets.disjoint_union(pa, pb), posets.linear_sum(pa, pb))
        for pa in small_patterns
        for pb in small_patterns
    ]
    for q in union_hosts:
        ground = list(range(1, q.n + 1))
        # each split: its two sub-posets, and whether it is ordered and weakly ordered
        split_posets = []
        for b1 in _subsets(ground):
            b2 = [e for e in ground if e not in b1]
            s1, s2 = posets.induced_subposet(q, b1), posets.induced_subposet(q, b2)
            below, weakly_below = posets.is_below(q, b1, b2), posets.is_weakly_below(q, b1, b2)
            split_posets.append((s1, s2, below, weakly_below))
        for pa, pb, union, lsum in pattern_pairs:
            avoid_union = memo_avoids(q, union)
            split_ok = all(
                memo_avoids(s1, pa) or memo_avoids(s2, pb) for s1, s2, _, _ in split_posets
            )
            report.check(
                "disjoint-union avoidance law",
                avoid_union == split_ok,
                lambda: f"{pa.strict_pairs()} u {pb.strict_pairs()} in {q.strict_pairs()}",
            )

            if memo_avoids(q, lsum):
                ordered_ok = all(
                    memo_avoids(s1, pa) or memo_avoids(s2, pb)
                    for s1, s2, below, _ in split_posets
                    if below
                )
                report.check(
                    "linear-sum avoidance law (ordered partitions)",
                    ordered_ok,
                    lambda: f"{pa.strict_pairs()} + {pb.strict_pairs()} in {q.strict_pairs()}",
                )
            else:
                witnessed = any(
                    weakly_below and not memo_avoids(s1, pa) and not memo_avoids(s2, pb)
                    for s1, s2, _, weakly_below in split_posets
                )
                report.check(
                    "linear-sum containment witnessed by weakly ordered partition",
                    witnessed,
                    lambda: f"{pa.strict_pairs()} + {pb.strict_pairs()} in {q.strict_pairs()}",
                )

    for pat in patterns:
        if not posets.is_connected(pat):
            continue
        for q, avoids in zip(hosts, avoided[pat.n, pat.up]):
            if not avoids:
                continue
            components = posets.connected_components(q)
            # a connected host is its one component, known to avoid ``pat``
            report.check(
                "components of an avoider avoid a connected pattern",
                len(components) == 1
                or all(
                    posets.strongly_avoids(posets.induced_subposet(q, comp), pat)
                    for comp in components
                ),
                lambda: f"pattern {pat.strict_pairs()}, host {q.strict_pairs()}",
            )

    return report


def _subsets(items):
    n = len(items)
    for mask in range(1 << n):
        yield [items[i] for i in range(n) if mask >> i & 1]


def run_interval_theorem(max_size: int = 5) -> VerifyReport:
    """The tableau-preimage decision against exhaustive search, the worked
    interval set, and lonely-cell-freeness of constructed witnesses."""
    _check_depth("interval-theorem", max_size)
    report = VerifyReport("interval-theorem", {"max": max_size, "tableau_max": TABLEAU_MAX})

    q_tab = tableaux.SchroderTableau((4, 3, 2), ((1, 2, 5, 8), (3, 4, 9), (6, 7)))
    report.check(
        "worked example interval set",
        intervals.intervals_of_tableau(q_tab)
        == ((1, 2), (5, 8), (3, 4), (9, 10), (6, 7)),
        lambda: str(intervals.intervals_of_tableau(q_tab)),
    )

    for n in range(TABLEAU_MAX + 1):
        for shape in enumerate_schroeder_partitions(n):
            for t in tableaux.enumerate_tableaux(shape):
                po = intervals.interval_order(intervals.intervals_of_tableau(t))
                report.check(
                    "tableau interval sets induce interval orders",
                    intervals.is_interval_order(po),
                    lambda: str(t.rows),
                )
                report.check(
                    "tableau-induced orders admit a witness",
                    intervals.has_schroder_preimage(po) is not None,
                    lambda: str(t.rows),
                )

    for n in range(1, max_size + 1):
        # canonical forms of the orders of tableaux with no lonely cell
        no_lonely = {
            intervals.interval_order(intervals.intervals_of_tableau(t)).canonical_form()
            for shape in enumerate_schroeder_partitions(2 * n)
            if not any(part % 2 for part in shape)
            for t in tableaux.enumerate_tableaux(shape)
        }
        for p in posets.enumerate_posets(n, labeled=False):
            if not intervals.is_interval_order(p):
                continue
            witness = intervals.has_schroder_preimage(p)
            report.check(
                f"witness decision matches exhaustive search at size {n}",
                (witness is not None) == (p.canonical_form() in no_lonely),
                lambda: str(p.strict_pairs()),
            )
            if witness is not None:
                built = intervals.tableau_from_witness(p, witness.downset, witness.mapping)
                report.check(
                    "constructed tableau has no lonely cell",
                    not tableaux.lonely_cells(built.shape),
                    lambda: str(built.shape),
                )
                rebuilt = intervals.interval_order(intervals.intervals_of_tableau(built))
                report.check(
                    "constructed tableau reproduces the order",
                    rebuilt.isomorphic(p),
                    lambda: str(p.strict_pairs()),
                )

    return report


SUITES = {
    "counts": run_counts,
    "differential": run_differential,
    "rsk": run_rsk,
    "lattice": run_lattice,
    "sav": run_sav,
    "interval-theorem": run_interval_theorem,
}

# the largest depth of each suite that finishes in about a minute on a 2-core
# host (counts 14: 39 s, 15: 120 s; differential 38: 13-16 s; lattice 23:
# 10-14 s, 25: 26-31 s, 26: 43 s, its pair loop growing with the square of
# the partition count; rsk 9: 5 s, and each further n multiplies its S_n
# walk by n + 1); the poset suites stop where poset enumeration does
MAX_DEPTH = {
    "counts": 14,
    "differential": 38,
    "rsk": 9,
    "lattice": 25,
    "sav": posets.SIZE_LIMIT,
    "interval-theorem": posets.SIZE_LIMIT,
}


def _check_depth(suite: str, depth: int) -> None:
    if depth < 1:
        raise ValueError(f"suite {suite} depth must be >= 1, got {depth}")
    if depth > MAX_DEPTH[suite]:
        raise LimitError(f"suite {suite} depth {depth} exceeds limit {MAX_DEPTH[suite]}")


def run_suite(name: str, max_size: int | None = None, seed: int = 0) -> VerifyReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    runner = SUITES[name]
    depth = () if max_size is None else (max_size,)
    return runner(*depth, seed=seed) if name == "lattice" else runner(*depth)
