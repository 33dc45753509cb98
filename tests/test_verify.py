import pytest

from schroeder import verify
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
