import random

import pytest

from oracles import brute_down_covers, brute_up_covers
from schroeder import lattice
from schroeder.errors import LimitError
from schroeder.lattice import (
    count_chains,
    covers,
    join,
    leq,
    meet,
    verify_differential,
)
from schroeder.partitions import (
    enumerate_schroeder_partitions,
    is_schroeder,
    partitions_of,
)
from schroeder.tableaux import count_tableaux


def test_leq_examples():
    assert leq((), (3, 1))
    assert leq((2, 1), (3, 1))
    assert not leq((3,), (2, 1))
    assert not leq((2, 1), (3,))


def test_join_meet_examples():
    assert join((3,), (2, 1)) == (3, 1)
    assert meet((3,), (2, 1)) == (2,)
    assert join((4, 3), (4, 3)) == (4, 3)
    assert meet((), (5, 2)) == ()
    with pytest.raises(ValueError):
        join((4, 3), (3, 3))
    with pytest.raises(ValueError):
        meet((3, 3), (4, 3))
    with pytest.raises(ValueError):
        covers((3, 3))
    with pytest.raises(ValueError):
        covers([2, 1, 1])


def test_unchecked_join_meet_equal_public():
    universe = [p for n in range(13) for p in enumerate_schroeder_partitions(n)]
    for a in universe:
        for b in universe:
            assert lattice._join(a, b) == join(a, b), (a, b)
            assert lattice._meet(a, b) == meet(a, b), (a, b)


def test_cover_examples():
    assert covers(()).up_covers == ((1,),)
    assert covers(()).down_covers == ()
    assert set(covers((2,)).up_covers) == {(3,), (2, 1)}
    assert covers((2, 1)).down_covers == ((2,),)
    # the sentinel part: appending 1 is blocked exactly when the last part is 1
    assert (2, 1, 1) not in covers((2, 1)).up_covers
    assert (4, 3, 1) in covers((4, 3)).up_covers


def test_covers_against_brute_force():
    for n in range(15):
        for p in enumerate_schroeder_partitions(n):
            cs = covers(p)
            assert list(cs.up_covers) == brute_up_covers(
                p, leq, is_schroeder, partitions_of
            ), p
            assert list(cs.down_covers) == brute_down_covers(
                p, leq, is_schroeder, partitions_of
            ), p


def test_closure_exhaustive_small():
    universe = [p for n in range(11) for p in enumerate_schroeder_partitions(n)]
    for a in universe:
        for b in universe:
            j, m = join(a, b), meet(a, b)
            assert is_schroeder(j) and is_schroeder(m)
            assert leq(a, j) and leq(b, j)
            assert leq(m, a) and leq(m, b)


def test_lattice_laws_random_triples():
    universe = [p for n in range(13) for p in enumerate_schroeder_partitions(n)]
    rng = random.Random(0)
    for _ in range(2000):
        a, b, c = (rng.choice(universe) for _ in range(3))
        assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a


def test_chain_counts():
    assert count_chains(()) == 1
    assert count_chains((1,)) == 1
    assert count_chains((2, 1)) == 1
    assert count_chains((3, 1)) == 2


def test_chain_count_validates_at_the_boundary():
    assert count_chains([2, 1]) == 1
    with pytest.raises(ValueError):
        count_chains([3, 3, 2])
    with pytest.raises(ValueError):
        count_chains((2, 3))
    with pytest.raises(LimitError):
        count_chains((65,))


def test_chain_memo_is_bounded():
    # bounded, yet above the 69,473 sub-partitions of the worst order-64 shape
    maxsize = lattice._count_chains.cache_info().maxsize
    assert maxsize is not None and maxsize >= 69473


def test_chains_equal_tableaux_counts():
    for n in range(9):
        for p in enumerate_schroeder_partitions(n):
            assert count_chains(p) == count_tableaux(p), p


def test_differential_report_common_covers_hold():
    report = verify_differential(12)
    assert report.partitions_checked > 0 and report.pairs_checked > 0
    assert all("common covers" not in v for v in report.violations)


def test_differential_report_fields():
    report = verify_differential(3)
    assert vars(report) == {
        "partitions_checked": 4,
        "pairs_checked": 1,
        "violations": [],
        "lower_bound_witness": (1,),
        "upper_bound_witness": (2,),
        "min_slack_high": 0,
    }
    # the attributes keep their order
    assert list(vars(report)) == [
        "partitions_checked",
        "pairs_checked",
        "violations",
        "lower_bound_witness",
        "upper_bound_witness",
        "min_slack_high",
    ]
    assert report.ok and report == verify_differential(3)
    assert report != verify_differential(4)


def test_differential_bounds_known_counterexample():
    # the stated upper bound 2k fails for the family (2a, 2a-1): k=1 but l=3
    cs = covers((4, 3))
    assert len(cs.down_covers) == 1
    assert len(cs.up_covers) == 3
    report = verify_differential(7)
    assert any("(4, 3)" in v for v in report.violations)


def test_differential_bound_attainment():
    report = verify_differential(6)
    assert report.lower_bound_witness is not None
    assert report.upper_bound_witness is not None


def test_spec_example_degrees_for_two():
    cs = covers((2,))
    assert len(cs.down_covers) == 1
    assert len(cs.up_covers) == 2
