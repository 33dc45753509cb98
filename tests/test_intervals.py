import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_first_witness,
    cell_intervals_of_tableau,
    pairs_downset_poset,
    pairs_interval_order,
    pairwise_embedding,
    two_plus_two,
)
from schroeder.errors import LimitError
from schroeder.intervals import (
    DOWNSET_LIMIT,
    downset_cells,
    downset_poset,
    grid_downsets,
    has_schroder_preimage,
    interval_order,
    intervals_from_json,
    intervals_of_tableau,
    intervals_to_json,
    is_interval_order,
    realize_intervals,
    tableau_from_witness,
)
from schroeder.partitions import enumerate_schroeder_partitions, partitions_of
from schroeder.posets import (
    FinitePoset,
    _unlabeled_masks,
    antichain,
    chain,
    enumerate_posets,
)
from schroeder.tableaux import SchroderTableau, enumerate_tableaux, lonely_cells


def paper_tableau():
    return SchroderTableau((4, 3, 2), ((1, 2, 5, 8), (3, 4, 9), (6, 7)))


def test_interval_order_examples():
    assert interval_order([(1, 2), (3, 4)]) == chain(2)
    assert interval_order([(1, 3), (2, 4)]) == antichain(2)
    po = interval_order([(1, 2), (5, 8), (3, 4), (9, 10), (6, 7)])
    assert po.strict_pairs() == (
        (1, 2),
        (1, 3),
        (1, 4),
        (1, 5),
        (2, 4),
        (3, 2),
        (3, 4),
        (3, 5),
        (5, 4),
    )
    with pytest.raises(ValueError):
        interval_order([(3, 2)])


def test_interval_order_matches_pairs_oracle():
    # every list of at most 3 intervals with endpoints in 1..7, then seeded
    # sets of 4..30 intervals
    pool = [(a, b) for a in range(1, 8) for b in range(a + 1, 8)]
    for k in range(4):
        for ivs in itertools.product(pool, repeat=k):
            assert interval_order(ivs).up == pairs_interval_order(ivs).up, ivs
    rng = random.Random(0)
    for _ in range(500):
        n = rng.randint(4, 30)
        ivs = []
        for _ in range(n):
            a = rng.randint(1, 3 * n)
            ivs.append((a, a + rng.randint(1, n)))
        assert interval_order(ivs).up == pairs_interval_order(ivs).up, ivs


def test_is_interval_order():
    assert not is_interval_order(two_plus_two())
    assert is_interval_order(chain(4))
    assert is_interval_order(antichain(3))


def test_down_set_chain_matches_two_plus_two_search():
    """The down-set chain test equals "no induced 2+2" on every unlabeled
    poset of size <= 7 and every labeled poset of size <= 5; the unlabeled
    interval orders number 1, 1, 2, 5, 15, 53, 217, 1014 (OEIS A022493)."""
    checked, counts = 0, []
    for n in range(8):
        unlabeled = [FinitePoset._from_masks(n, up) for up in _unlabeled_masks(n)]
        labeled = enumerate_posets(n, labeled=True) if n <= 5 else []
        for p in unlabeled + labeled:
            assert is_interval_order(p) == (
                pairwise_embedding(p, two_plus_two(), True) is None
            ), p
        checked += len(unlabeled) + len(labeled)
        counts.append(sum(map(is_interval_order, unlabeled)))
    assert checked == 6925
    assert counts == [1, 1, 2, 5, 15, 53, 217, 1014]


def test_intervals_of_tableau_examples():
    assert intervals_of_tableau(paper_tableau()) == (
        (1, 2),
        (5, 8),
        (3, 4),
        (9, 10),
        (6, 7),
    )
    assert intervals_of_tableau(SchroderTableau((1,), ((1,),))) == ((1, 2),)
    assert intervals_of_tableau(SchroderTableau((2,), ((1, 2),))) == ((1, 2),)
    with pytest.raises(ValueError):
        intervals_of_tableau(SchroderTableau((2, 1), ((1, 3), (2,))))


def test_intervals_of_tableau_matches_cell_oracle():
    for n in range(11):
        for shape in enumerate_schroeder_partitions(n):
            for t in enumerate_tableaux(shape):
                assert intervals_of_tableau(t) == cell_intervals_of_tableau(t), t.rows


def test_grid_downsets():
    assert grid_downsets(1) == [(1,)]
    assert len(grid_downsets(3)) == 3
    assert len(grid_downsets(4)) == 5
    assert grid_downsets(3)[0] == (3,)  # decreasing first-row length
    assert downset_cells((2, 1)) == [(1, 1), (1, 2), (2, 1)]
    p = downset_poset((2, 1))
    assert p.strict_pairs() == ((1, 2), (1, 3))
    with pytest.raises(LimitError):
        grid_downsets(DOWNSET_LIMIT + 1)


def test_downset_poset_matches_pairs_oracle():
    for n in range(13):
        for d in partitions_of(n):
            assert downset_poset(d).up == pairs_downset_poset(d).up, d


def test_preimage_checks_size_before_the_2_plus_2_test(monkeypatch):
    def fail(p):
        raise AssertionError("is_interval_order ran before the size check")

    monkeypatch.setattr("schroeder.intervals.is_interval_order", fail)
    with pytest.raises(LimitError, match=f"size {DOWNSET_LIMIT + 1} exceeds limit"):
        has_schroder_preimage(chain(DOWNSET_LIMIT + 1))


def test_preimage_examples():
    assert has_schroder_preimage(antichain(2)) is None
    witness = has_schroder_preimage(chain(2))
    assert witness is not None and witness.downset == (2,)
    with pytest.raises(ValueError):
        has_schroder_preimage(two_plus_two())
    po = interval_order(intervals_of_tableau(paper_tableau()))
    assert has_schroder_preimage(po) is not None


def test_preimage_witness_is_the_first_mapping():
    # the printed witness is the first down-set that embeds, with the
    # lexicographically smallest mapping of its row-major cells
    orders = [p for n in range(5) for p in enumerate_posets(n, labeled=True)]
    orders += [p for n in (5, 6) for p in enumerate_posets(n, labeled=False)]
    orders = [p for p in orders if is_interval_order(p)]
    assert len(orders) == 501
    for p in orders:
        witness = has_schroder_preimage(p)
        found = None if witness is None else (witness.downset, witness.mapping)
        assert found == brute_first_witness(p), p


def test_tableau_from_witness_examples():
    witness = has_schroder_preimage(chain(2))
    t = tableau_from_witness(chain(2), witness.downset, witness.mapping)
    assert t.shape == (4,) and t.rows == ((1, 2, 3, 4),)
    single = tableau_from_witness(chain(1), (1,), (1,))
    assert single.shape == (2,) and single.rows == ((1, 2),)
    with pytest.raises(ValueError):
        tableau_from_witness(antichain(2), (2,), (1, 2))


def test_forward_direction_small():
    for n in range(8):
        for shape in enumerate_schroeder_partitions(n):
            for t in enumerate_tableaux(shape):
                po = interval_order(intervals_of_tableau(t))
                assert is_interval_order(po)
                assert has_schroder_preimage(po) is not None


def test_round_trip_small_interval_orders():
    for n in range(1, 5):
        for p in enumerate_posets(n, labeled=False):
            if not is_interval_order(p):
                continue
            witness = has_schroder_preimage(p)
            if witness is None:
                continue
            t = tableau_from_witness(p, witness.downset, witness.mapping)
            assert not lonely_cells(t.shape)
            rebuilt = interval_order(intervals_of_tableau(t))
            assert rebuilt.isomorphic(p)


def test_realize_intervals_small():
    with pytest.raises(ValueError, match="not an interval order"):
        realize_intervals(two_plus_two())
    for n in range(1, 6):
        for p in enumerate_posets(n, labeled=False):
            if not is_interval_order(p):
                continue
            ivs = realize_intervals(p)
            endpoints = [x for iv in ivs for x in iv]
            assert sorted(endpoints) == list(range(1, 2 * p.n + 1))
            assert interval_order(ivs) == p


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    intervals = []
    for _ in range(n):
        a = draw(st.integers(min_value=1, max_value=12))
        b = draw(st.integers(min_value=a + 1, max_value=13))
        intervals.append((a, b))
    return tuple(intervals)


@settings(max_examples=150)
@given(interval_sets(), st.randoms(use_true_random=False))
def test_recoordinatization_invariance(ivs, rng):
    # replacing endpoints by any order-isomorphic distinct values keeps the order
    endpoints = sorted({x for iv in ivs for x in iv})
    offsets = sorted(rng.sample(range(1, 100), len(endpoints)))
    relabel = dict(zip(endpoints, offsets))
    moved = tuple((relabel[a], relabel[b]) for a, b in ivs)
    assert interval_order(moved) == interval_order(ivs)


@settings(max_examples=100)
@given(interval_sets())
def test_interval_orders_are_two_plus_two_free(ivs):
    assert is_interval_order(interval_order(ivs))


def test_json_round_trip():
    ivs = ((1, 2), (5, 8), (3, 4))
    data = intervals_to_json(ivs)
    assert data == {"intervals": [[1, 2], [5, 8], [3, 4]]}
    assert intervals_from_json(data) == ivs
    with pytest.raises(ValueError):
        intervals_from_json({"intervals": [[2, 2]]})
