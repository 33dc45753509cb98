"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (integer identities); the stated wall-clock budgets are
asserted too.  Two criteria fail by design of the checks themselves: the
cover-degree upper bound and the Bell-number count are genuinely false claims
(see the verification suite findings and the failure messages below), and the
tests state them faithfully rather than weakening them.
"""

import functools
import time
from itertools import permutations

from schroeder import _kernels, insertion, lattice, posets, tableaux, verify
from schroeder.partitions import (
    enumerate_schroeder_partitions,
    gf_coefficients,
    cluster_map,
    is_schroeder,
    partitions_of,
    satisfies_cn_condition,
)

from oracles import bell_by_binomial, brute_schroeder_partitions, sch_shape


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {name}{suffix}")


@functools.cache
def _sweep_row_col(n: int):
    """The S_n sweep, computed once for criteria 03 and 04."""
    return _kernels.sweep_row_col(n)


def test_criterion_01_worked_example():
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        p_tab, q_tab = insertion.sch_insert((4, 6, 5, 1, 9, 3, 2, 8, 7))
        best = min(best, time.perf_counter() - t0)
    ok = (
        p_tab.rows == ((1, 2, 7, 8), (3, 4, 9), (5, 6))
        and q_tab.rows == ((1, 2, 5, 8), (3, 4, 9), (6, 7))
        and best < 0.001
    )
    _report(1, "worked insertion example", ok, f"best run {best * 1e6:.0f}us")
    assert p_tab.rows == ((1, 2, 7, 8), (3, 4, 9), (5, 6))
    assert q_tab.rows == ((1, 2, 5, 8), (3, 4, 9), (6, 7))
    assert best < 0.001


def test_criterion_02_rs_identity():
    t0 = time.monotonic()
    for n in range(1, 8):
        counts = _kernels.sweep_rs_shapes(n)
        factorial = 1
        for i in range(2, n + 1):
            factorial *= i
        total = 0
        for shape in partitions_of(n):
            f = insertion.count_standard_young(shape)
            assert counts.get(shape, 0) == f * f, (n, shape)
            total += f * f
        assert total == factorial, n
    elapsed = time.monotonic() - t0
    _report(2, "squared tableau counts sum to n! for n<=7", True, f"{elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_03_single_row_counts():
    t0 = time.monotonic()
    for n in range(1, 10):
        rows, _, row_mism, _ = _sweep_row_col(n)
        assert rows == 2 ** (n // 2), (n, rows)
        assert not row_mism, (n, row_mism[:3])
    elapsed = time.monotonic() - t0
    _report(3, "single-row insertion sets for n<=9", True, f"{elapsed:.1f}s")
    assert elapsed < 180


def test_criterion_04_single_column_counts():
    t0 = time.monotonic()
    for n in range(1, 10):
        _, cols, _, col_mism = _sweep_row_col(n)
        assert cols == 2 ** (n - 1), (n, cols)
        assert not col_mism, (n, col_mism[:3])
    elapsed = time.monotonic() - t0
    _report(4, "single-column insertion sets match Av(123,213) for n<=9", True, f"{elapsed:.1f}s")
    assert elapsed < 180


def test_criterion_05_hook_certification():
    t0 = time.monotonic()
    findings = []
    for n in range(1, 9):
        mismatches = []
        for perm in permutations(range(1, n + 1)):
            shape = sch_shape(perm)
            shape_hook = tableaux.is_hook_shape(shape) and sum(shape) >= 2
            if shape_hook != insertion.has_hook_decomposition(perm):
                mismatches.append(perm)
        if mismatches:
            findings.append(f"n={n}: {len(mismatches)} mismatches, first {mismatches[0]}")
        # the decomposition direction always holds: it forces a hook shape
        assert all(
            tableaux.is_hook_shape(sch_shape(p))
            for p in mismatches
        )
    elapsed = time.monotonic() - t0
    detail = "; ".join(findings) if findings else "clean"
    _report(
        5,
        "hook certification ran for n<=8; mismatches reported as findings",
        True,
        f"{elapsed:.1f}s; finding: hook-shaped but undecomposable exist: {detail}",
    )
    assert elapsed < 300


def test_criterion_06_generating_function():
    t0 = time.monotonic()
    coeffs = gf_coefficients(40)
    for k in range(41):
        assert coeffs[k] == len(brute_schroeder_partitions(k)), k
    elapsed = time.monotonic() - t0
    _report(6, "generating function matches enumeration for k<=40", True, f"{elapsed:.1f}s")
    assert elapsed < 10


def test_criterion_07_double_cluster_fixed_points():
    t0 = time.monotonic()
    for total in range(21):
        for p in partitions_of(total):
            assert (cluster_map(cluster_map(p, 2), 2) == p) == is_schroeder(p), p
            for n in range(1, 5):
                fixed = cluster_map(cluster_map(p, n), n) == p
                assert fixed == satisfies_cn_condition(p, n), (p, n)
    elapsed = time.monotonic() - t0
    _report(7, "double-cluster fixed points for orders<=20", True, f"{elapsed:.1f}s")
    assert elapsed < 30


def test_criterion_08_lattice_closure_and_laws():
    t0 = time.monotonic()
    report = verify.run_lattice(max_order=15, seed=0)
    elapsed = time.monotonic() - t0
    _report(
        8,
        "join/meet closure for orders<=15 and laws on 10000 seeded triples",
        report.ok,
        f"{report.checks} checks, {elapsed:.1f}s",
    )
    assert report.ok, report.violations[:5]
    assert elapsed < 60


def test_criterion_09_differential_bounds():
    t0 = time.monotonic()
    result = lattice.verify_differential(18)
    elapsed = time.monotonic() - t0
    attained = (
        result.lower_bound_witness is not None
        and result.upper_bound_witness is not None
    )
    _report(
        9,
        "cover-degree bounds for orders<=18",
        result.ok and attained,
        f"{len(result.violations)} violations, e.g. "
        + (result.violations[0] if result.violations else "none")
        + f"; {elapsed:.1f}s",
    )
    assert elapsed < 120
    assert attained
    # The upper bound 2k is a genuinely false claim: (4, 3) covers only
    # (4, 2) yet is covered by (5, 3), (4, 4) and (4, 3, 1).  The check is
    # stated faithfully and fails on that family.
    assert result.ok, result.violations


def test_criterion_10_chains_equal_tableaux():
    t0 = time.monotonic()
    for n in range(11):
        for shape in enumerate_schroeder_partitions(n):
            assert lattice.count_chains(shape) == tableaux.count_tableaux(shape), shape
    elapsed = time.monotonic() - t0
    _report(10, "saturated chains equal standard fillings for orders<=10", True, f"{elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_11_weak_pattern_poset():
    t0 = time.monotonic()
    sizes = {3: 5, 4: 16}
    for n, expected in sizes.items():
        xp = posets.build_weak_pattern_poset(n)
        assert len(xp.elements) == expected, n
    for n in range(2, 6):
        xp = posets.build_weak_pattern_poset(n)
        assert xp.elements[xp.minimum()].pair_count() == 0
        assert xp.elements[xp.maximum()].pair_count() == n * (n - 1) // 2
        assert len(xp.atoms()) == 1
        assert all(
            xp.elements[j].pair_count() - xp.elements[i].pair_count() == 1
            for i, j in xp.hasse_edges
        )
    elapsed = time.monotonic() - t0
    _report(11, "weak-pattern poset structure for n<=5", True, f"{elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_12_strong_avoidance_suite():
    t0 = time.monotonic()
    report = verify.run_sav(max_size=6)
    elapsed = time.monotonic() - t0
    bell = bell_by_binomial(5)
    vee_counts = [
        posets.sav_count(n, posets.vee(), labeled=True) for n in range(1, 6)
    ]
    _report(
        12,
        "strong-avoidance suite",
        report.ok,
        f"{report.checks} checks; labeled avoider counts of the vee are "
        f"{vee_counts} vs Bell {bell}; {elapsed:.1f}s",
    )
    assert elapsed < 300
    # Everything except the Bell count holds; the count is a genuinely false
    # claim (a labeled flat of size k admits k labelings, so the map onto set
    # partitions is not injective) and the faithful check fails.
    non_bell = [v for v in report.violations if "Bell" not in v[0]]
    assert not non_bell, non_bell[:5]
    assert report.ok, report.violations


def test_criterion_13_interval_theorem():
    t0 = time.monotonic()
    report = verify.run_interval_theorem(max_size=5)
    elapsed = time.monotonic() - t0
    _report(
        13,
        "tableau preimage decision matches exhaustive search for sizes<=5",
        report.ok,
        f"{report.checks} checks, {elapsed:.1f}s",
    )
    assert report.ok, report.violations[:5]
    assert elapsed < 300
