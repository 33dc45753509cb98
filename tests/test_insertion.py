import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_fillings,
    brute_avoids_123_213,
    brute_contains_pattern,
    is_standard_young,
    sch_shape,
    search_contains_pattern,
    subset_hook_decomposition,
)
from schroeder import _kernels
from schroeder.insertion import (
    classify_shape,
    count_standard_young,
    has_hook_decomposition,
    parse_permutation,
    pattern_of,
    rs_insert,
    sch_insert,
)
from schroeder.tableaux import is_standard


def test_parse_permutation():
    assert parse_permutation("465193287") == (4, 6, 5, 1, 9, 3, 2, 8, 7)
    assert parse_permutation("10,2,1,3,4,5,6,7,8,9") == (10, 2, 1, 3, 4, 5, 6, 7, 8, 9)
    with pytest.raises(ValueError):
        parse_permutation("122")


def test_worked_example():
    p_tab, q_tab = sch_insert(parse_permutation("465193287"))
    assert p_tab.rows == ((1, 2, 7, 8), (3, 4, 9), (5, 6))
    assert q_tab.rows == ((1, 2, 5, 8), (3, 4, 9), (6, 7))
    assert p_tab.shape == q_tab.shape == (4, 3, 2)


def test_small_insertions():
    p_tab, q_tab = sch_insert((1,))
    assert p_tab.rows == ((1,),) and q_tab.rows == ((1,),)
    p_tab, q_tab = sch_insert((2, 1))
    assert p_tab.rows == ((1, 2),) and q_tab.rows == ((1, 2),)


def test_rs_examples():
    p_rows, q_rows = rs_insert((1,))
    assert p_rows == ((1,),) and q_rows == ((1,),)
    p_rows, q_rows = rs_insert((2, 3, 1))
    assert p_rows == ((1, 3), (2,))
    assert q_rows == ((1, 2), (3,))


def test_rs_outputs_standard_young():
    for n in range(1, 7):
        for perm in permutations(range(1, n + 1)):
            p_rows, q_rows = rs_insert(perm)
            assert is_standard_young(p_rows) and is_standard_young(q_rows)
    assert is_standard_young(((1, 3), (2, 4)))
    assert not is_standard_young(((1, 4), (2, 3)))
    assert not is_standard_young(((2, 1),))
    assert not is_standard_young(((1,), (2, 3)))


def test_rs_identity_small():
    from schroeder.partitions import partitions_of

    for n in range(1, 8):
        counts = {}
        for perm in permutations(range(1, n + 1)):
            p_rows, q_rows = rs_insert(perm)
            shape = tuple(len(r) for r in p_rows)
            assert shape == tuple(len(r) for r in q_rows)
            counts[shape] = counts.get(shape, 0) + 1
        total = 0
        for shape in partitions_of(n):
            f = count_standard_young(shape)
            assert counts.get(shape, 0) == f * f
            total += f * f
        fact = 1
        for i in range(2, n + 1):
            fact *= i
        assert total == fact


def test_standard_young_count_matches_fillings():
    from schroeder.partitions import partitions_of

    for n in range(8):
        for shape in partitions_of(n):
            standard = sum(1 for rows in all_fillings(shape) if is_standard_young(rows))
            assert count_standard_young(shape) == standard, shape


def test_rs_injective_small():
    for n in range(1, 8):
        seen = set()
        for perm in permutations(range(1, n + 1)):
            seen.add(rs_insert(perm))
        fact = 1
        for i in range(2, n + 1):
            fact *= i
        assert len(seen) == fact


def test_insertion_outputs_standard_small():
    for n in range(1, 7):
        for perm in permutations(range(1, n + 1)):
            p_tab, q_tab = sch_insert(perm)
            assert p_tab.shape == q_tab.shape
            assert is_standard(p_tab) and is_standard(q_tab)


@settings(max_examples=150)
@given(st.permutations(list(range(1, 8))), st.permutations(list(range(1, 4))))
def test_contains_pattern_matches_bruteforce(t, s):
    assert search_contains_pattern(tuple(t), tuple(s)) == brute_contains_pattern(t, s)


def test_single_row_and_column_sets_small():
    for n in range(1, 8):
        rows = cols = 0
        for perm in permutations(range(1, n + 1)):
            shape = sch_shape(perm)
            ins_row = len(shape) == 1
            ins_col = shape[0] <= 2
            assert ins_row == _kernels.single_row_predicate(perm), perm
            assert ins_col == _kernels.single_column_predicate(perm), perm
            rows += ins_row
            cols += ins_col
        assert rows == 2 ** (n // 2)
        assert cols == 2 ** (n - 1)


def test_classify_examples():
    assert classify_shape((2, 1, 4, 3)) == "single_row"
    assert classify_shape((3, 2, 1)) == "single_column"
    assert classify_shape((1, 2)) == "single_row"
    assert classify_shape((2, 3, 1)) == "single_column"
    assert classify_shape((1, 3, 2, 4)) == "hook"
    assert classify_shape((1, 4, 3, 2, 5, 7, 6)) == "other"


def test_pattern_of():
    assert pattern_of((4, 9, 2, 8, 6)) == (2, 5, 1, 4, 3)
    assert pattern_of(()) == ()


def test_hook_decomposition_small():
    # exact at n <= 3; from n = 4 on, hook-shaped permutations without a
    # decomposition exist, so only the decomposition-implies-hook direction holds
    for n in range(1, 4):
        for perm in permutations(range(1, n + 1)):
            shape = sch_shape(perm)
            shape_hook = all(x <= 2 for x in shape[1:]) and sum(shape) >= 2
            assert has_hook_decomposition(perm) == shape_hook
    assert sch_shape((1, 4, 2, 3)) == (3, 1)
    assert not has_hook_decomposition((1, 4, 2, 3))
    # the decomposition always implies a hook shape
    for n in range(2, 7):
        for perm in permutations(range(1, n + 1)):
            if has_hook_decomposition(perm):
                shape = sch_shape(perm)
                assert all(x <= 2 for x in shape[1:]), perm


def test_hook_decomposition_matches_subset_search():
    for n in range(1, 8):
        for perm in permutations(range(1, n + 1)):
            assert has_hook_decomposition(perm) == subset_hook_decomposition(perm), perm
    rng = random.Random(20161)
    for n in range(10, 15):
        for _ in range(200):
            perm = tuple(rng.sample(range(1, n + 1), n))
            assert has_hook_decomposition(perm) == subset_hook_decomposition(perm), perm


def test_hook_decomposable_counts():
    counts = [
        sum(has_hook_decomposition(p) for p in permutations(range(1, n + 1)))
        for n in range(2, 9)
    ]
    assert counts == [2, 6, 20, 68, 232, 792, 2704]


def test_single_column_predicate_matches_bruteforce():
    for n in range(0, 9):
        for perm in permutations(range(1, n + 1)):
            expected = brute_avoids_123_213(perm)
            assert _kernels.single_column_predicate(perm) == expected, perm


def test_public_functions_reject_repeated_values():
    with pytest.raises(ValueError):
        sch_insert((1, 1, 2))
