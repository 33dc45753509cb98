import math
import random
from bisect import bisect_right
from itertools import permutations

import pytest

from oracles import brute_rsk_failures
from schroeder import _kernels, tableaux, verify
from schroeder.errors import LimitError


def test_counts_suite_clean():
    report = verify.run_counts(max_n=6)
    assert report.ok
    assert report.checks > 0


def test_differential_suite_detects_bound_failure():
    clean = verify.run_differential(6)
    assert clean.ok
    failing = verify.run_differential(7)
    assert not failing.ok
    assert any("(4, 3)" in witness for _, witness in failing.violations)
    assert any("lower bound attained" in f for f in failing.findings)


def test_rsk_suite_reports_hook_findings():
    report = verify.run_rsk(max_n=5)
    assert report.ok
    assert any("insertion outputs standard" in f for f in report.findings)
    assert any("hook certification" in f for f in report.findings)
    # the certification finds counterexamples from n=4 on
    assert any("hook-shaped" in f for f in report.findings)


def test_rsk_suite_validity_at_full_depth():
    report = verify.run_rsk(max_n=8)
    assert report.ok
    assert any(
        "standard with equal shapes for all n <= 8" in f for f in report.findings
    )


def _keep_every_failure(tally, item):
    tally[0] += 1
    tally[1].append(item)


def _by_length(perms):
    """Permutations by length, then lexicographically."""
    return sorted(perms, key=lambda p: (len(p), p))


def _twin_overwrite_step(rows, alpha):
    """``_kernels._sch_step`` with one fault: in the twin case alpha, not the
    upper cell's content, is written into the twin."""
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
        if (j + 1) % 2 == 0:
            alpha, row[j] = row[j], alpha
            i += 1
        elif j + 1 < len(row):
            beta = row[j + 1]
            row[j + 1] = alpha
            row[j] = alpha
            alpha = beta
            i += 1
        else:
            row.append(row[j])
            row[j] = alpha
            return i


def _refill_step(rows, alpha):
    """A step that grows the rows 0, 1, 1, 0, 0, 1, 2 in turn and refills
    them with the sorted values: the insertion rows stay standard, while the
    recording rows stop being standard at the fourth cell."""
    values = sorted([x for r in rows for x in r] + [alpha])
    i = (0, 1, 1, 0, 0, 1, 2)[len(values) - 1]
    if i == len(rows):
        rows.append([])
    rows[i].append(0)
    pos = 0
    for row in rows:
        row[:] = values[pos : pos + len(row)]
        pos += len(row)
    return i


@pytest.mark.parametrize(
    "step, validity_count, hook_count",
    [(None, 0, 4024), (_twin_overwrite_step, 5156, 4192), (_refill_step, 5906, 1080)],
    ids=["real-step", "twin-overwrite-step", "refill-step"],
)
def test_rsk_walk_matches_brute_force(monkeypatch, step, validity_count, hook_count):
    if step is not None:
        monkeypatch.setattr(_kernels, "_sch_step", step)
    validity_bad, hook_mism = brute_rsk_failures(7)
    assert (len(validity_bad), len(hook_mism)) == (validity_count, hook_count)
    monkeypatch.setattr(verify, "_tally", _keep_every_failure)
    visited, walk_validity, walk_hook = verify._rsk_walk(7)
    assert visited == sum(math.factorial(n) for n in range(1, 8))
    assert _by_length(walk_validity[1]) == validity_bad
    assert _by_length(walk_hook[1]) == hook_mism


def test_rsk_walk_visits_every_permutation_once(monkeypatch):
    # with every node failing validity, the failures are the visited nodes
    monkeypatch.setattr(tableaux, "is_standard_rows", lambda rows: False)
    monkeypatch.setattr(verify, "_tally", _keep_every_failure)
    visited, validity_bad, _ = verify._rsk_walk(6)
    expected = [p for n in range(1, 7) for p in permutations(range(1, n + 1))]
    assert visited == len(expected)
    assert _by_length(validity_bad[1]) == expected


def test_tally_keeps_the_first_three_in_any_order():
    perms = [p for n in (4, 5) for p in permutations(range(1, n + 1))]
    lexicographic: list = [0, []]
    for p in perms:
        verify._tally(lexicographic, p)
    assert lexicographic == [144, [(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4)]]
    for seed in range(5):
        shuffled = perms[:]
        random.Random(seed).shuffle(shuffled)
        tally: list = [0, []]
        for p in shuffled:
            verify._tally(tally, p)
        assert tally == lexicographic


def test_check_formats_a_callable_witness_only_on_failure():
    formatted = []

    def witness():
        formatted.append(1)
        return "host ((1, 2),)"

    report = verify.VerifyReport("t", {})
    report.check("holds", True, witness)
    assert formatted == []
    report.check("fails", False, witness)
    report.check("fails without witness", False)
    assert formatted == [1]
    assert report.checks == 3
    assert report.violations == [
        ("fails", "host ((1, 2),)"),
        ("fails without witness", ""),
    ]


def test_lattice_suite_clean():
    report = verify.run_suite("lattice", 9, seed=1)
    assert report.ok
    assert report.params["seed"] == 1


def test_sav_suite_flags_only_bell():
    report = verify.run_sav(max_size=4)
    assert not report.ok
    assert all("Bell" in claim for claim, _ in report.violations)


def test_interval_suite_clean():
    report = verify.run_interval_theorem(max_size=3)
    assert report.ok


def test_run_suite_dispatch():
    report = verify.run_suite("counts", max_size=4)
    assert report.suite == "counts" and report.ok
    # without a depth, run_suite runs the runner's default depth
    assert verify.run_suite("differential") == verify.run_differential()
    with pytest.raises(ValueError):
        verify.run_suite("nope")


def test_runners_bound_their_depth():
    # direct library calls are held to the same depths as the CLI
    with pytest.raises(ValueError):
        verify.run_lattice(max_order=-1)
    with pytest.raises(LimitError):
        verify.run_counts(max_n=verify.MAX_DEPTH["counts"] + 1)


def test_bell_oracle_matches_independent_recurrence():
    from oracles import bell_by_binomial

    assert verify._bell_numbers(8) == bell_by_binomial(8)
