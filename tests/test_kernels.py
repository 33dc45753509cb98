"""The S_n sweep kernels against sweeps rebuilt one permutation at a time
from the public insertion functions and the brute-force oracles, and the
premises of the pruned prefix walk."""

from collections import Counter
from itertools import permutations

import pytest

from oracles import brute_avoids_123_213, brute_sweep_row_col, sch_shape
from schroeder import _kernels
from schroeder.insertion import rs_insert


def _pair_predicate(perm):
    """Positions 2i+1, 2i+2 hold the values 2i+1, 2i+2 in either order, and
    an odd-length permutation ends with its maximum."""
    n = len(perm)
    pairs_ok = all(
        {perm[i], perm[i + 1]} == {i + 1, i + 2} for i in range(0, n - 1, 2)
    )
    return pairs_ok and (n % 2 == 0 or perm[-1] == n)


def _rebuilt_row_col(n):
    row_count = col_count = 0
    row_mismatches, col_mismatches = [], []
    for perm in sorted(permutations(range(1, n + 1))):
        shape = sch_shape(perm)
        one_row = len(shape) == 1
        one_column = shape[0] <= 2
        row_count += one_row
        col_count += one_column
        if one_row != _pair_predicate(perm):
            row_mismatches.append(perm)
        if one_column != brute_avoids_123_213(perm):
            col_mismatches.append(perm)
    return row_count, col_count, row_mismatches, col_mismatches


def test_backend_is_pure():
    assert _kernels.backend() == "pure"


@pytest.mark.parametrize("n", range(1, 8))
def test_sweep_row_col_matches_per_permutation_rebuild(n):
    assert _kernels.sweep_row_col(n) == _rebuilt_row_col(n)


@pytest.mark.parametrize("n", range(1, 10))
def test_sweep_row_col_matches_brute_sweep(n):
    assert _kernels.sweep_row_col(n) == brute_sweep_row_col(n)


def test_walk_flags_are_prefix_closed():
    """Along every prefix of every permutation of 1..n, n <= 8: the row count
    and the length of row 0 never decrease, and a prefix that fails the pair
    predicate (some value outside the pair block of its position) or avoidance
    of 123 and 213 has no completion that satisfies it."""
    for n in range(1, 9):
        perms = list(permutations(range(1, n + 1)))
        completable = {
            name: {perm[:k] for perm in perms if pred(perm) for k in range(n + 1)}
            for name, pred in (
                ("pairs", _kernels.single_row_predicate),
                ("avoids", _kernels.single_column_predicate),
            )
        }
        for perm in perms:
            rows = []
            for k, v in enumerate(perm):
                before = len(rows), len(rows[0]) if rows else 0
                _kernels._sch_step(rows, v)
                assert before <= (len(rows), len(rows[0])), perm[: k + 1]
                prefix = perm[: k + 1]
                if any((x - 1) // 2 != i // 2 for i, x in enumerate(prefix)):
                    assert prefix not in completable["pairs"], prefix
                if not _kernels.single_column_predicate(prefix):
                    assert prefix not in completable["avoids"], prefix


@pytest.mark.parametrize("n", range(1, 7))
def test_sweep_rs_shapes_matches_rs_insert(n):
    expected = Counter(
        tuple(len(row) for row in rs_insert(perm)[0])
        for perm in permutations(range(1, n + 1))
    )
    assert _kernels.sweep_rs_shapes(n) == expected


def test_sweep_bounds():
    with pytest.raises(ValueError):
        _kernels.sweep_row_col(0)
