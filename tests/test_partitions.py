import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_schroeder_partitions,
    conjugate_cluster_map,
    filtered_schroeder_partitions,
)
from schroeder.partitions import (
    check_partition,
    cluster_map,
    conjugate,
    enumerate_schroeder_partitions,
    format_partition,
    gf_coefficients,
    is_schroeder,
    order,
    parse_partition,
    partitions_of,
    satisfies_cn_condition,
)


@st.composite
def partitions(draw, max_order=18):
    n = draw(st.integers(min_value=0, max_value=max_order))
    parts = []
    remaining = n
    bound = n
    while remaining:
        part = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(part)
        bound = part
        remaining -= part
    return tuple(parts)


def test_is_schroeder_examples():
    assert is_schroeder((9, 6, 6, 3, 1))
    assert order((9, 6, 6, 3, 1)) == 25
    assert not is_schroeder((1, 1))
    assert not is_schroeder((7, 6, 6, 6, 4, 3, 3, 1))


def test_cluster_map_worked_examples():
    assert cluster_map((7, 6, 6, 6, 4, 3, 3, 1), 3) == (22, 13, 1)
    assert cluster_map((9, 7, 6, 6, 6, 4, 3, 3, 2), 3) == (26, 16, 4)
    assert cluster_map((3, 1), 1) == (2, 1, 1)
    assert cluster_map((), 5) == ()


def test_cn_condition_examples():
    assert satisfies_cn_condition((5, 4, 2, 1), 1)
    assert satisfies_cn_condition((2, 1), 2)
    assert cluster_map(cluster_map((2, 1), 2), 2) == (2, 1)
    assert not satisfies_cn_condition((1, 1), 2)
    assert cluster_map(cluster_map((1, 1), 2), 2) == (2,)


def test_enumeration_small_orders():
    assert enumerate_schroeder_partitions(0) == [()]
    assert enumerate_schroeder_partitions(3) == [(3,), (2, 1)]
    assert enumerate_schroeder_partitions(4) == [(4,), (3, 1), (2, 2)]


def test_enumeration_matches_independent_generator():
    for n in range(13):
        assert set(enumerate_schroeder_partitions(n)) == brute_schroeder_partitions(n)


def test_enumeration_is_lexicographically_decreasing():
    for n in range(10):
        parts = enumerate_schroeder_partitions(n)
        assert parts == sorted(parts, reverse=True)


def test_enumeration_matches_filtered_partitions():
    for n in range(41):
        assert enumerate_schroeder_partitions(n) == filtered_schroeder_partitions(n), n


def test_enumeration_rejects_negative_order():
    with pytest.raises(ValueError):
        enumerate_schroeder_partitions(-1)


def test_gf_against_enumeration():
    coeffs = gf_coefficients(40)
    assert coeffs[0] == 1
    assert coeffs[3] == 2
    assert coeffs[4] == 3
    for k in range(41):
        assert coeffs[k] == len(enumerate_schroeder_partitions(k))


def test_cluster_map_matches_conjugate_oracle():
    for total in range(25):
        for p in partitions_of(total):
            for n in range(1, 7):
                assert cluster_map(p, n) == conjugate_cluster_map(p, n), (p, n)
    for n in range(1, 7):
        assert cluster_map((), n) == ()
    for n in (0, -1):
        with pytest.raises(ValueError):
            cluster_map((2, 1), n)


def test_cluster_map_preserves_order_exhaustive():
    for total in range(26):
        for p in partitions_of(total):
            for n in range(1, 5):
                assert order(cluster_map(p, n)) == total


def test_conjugation_is_involution_exhaustive():
    for total in range(21):
        for p in partitions_of(total):
            assert conjugate(conjugate(p)) == p
            assert cluster_map(p, 1) == conjugate(p)


def test_double_cluster_fixed_points_iff_condition():
    for total in range(21):
        for p in partitions_of(total):
            for n in range(1, 5):
                fixed = cluster_map(cluster_map(p, n), n) == p
                assert fixed == satisfies_cn_condition(p, n), (p, n)


def test_schroeder_iff_c2_condition():
    for total in range(21):
        for p in partitions_of(total):
            assert satisfies_cn_condition(p, 2) == is_schroeder(p)


@settings(max_examples=200)
@given(partitions())
def test_cluster_map_order_preservation_property(p):
    for n in (1, 2, 3):
        assert order(cluster_map(p, n)) == order(p)


@settings(max_examples=200)
@given(partitions())
def test_serialization_round_trip(p):
    assert parse_partition(format_partition(p)) == p


def test_parse_validation():
    assert parse_partition("") == ()
    assert parse_partition("9,6,6,3,1") == (9, 6, 6, 3, 1)
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("3,0")
    with pytest.raises(ValueError):
        check_partition((2, 3))
