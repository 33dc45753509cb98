"""The S_n sweep kernels against sweeps rebuilt one permutation at a time
from the public insertion functions and the brute-force oracles, and the
premises of the pruned prefix walk."""

import sys
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
    """Along every prefix of a permutation of 1..n, n <= 8, the row count and
    the length of row 0 never decrease, and each of the walk's four flags,
    restated here from the values still to come, is a necessary condition: a
    prefix whose flag is false has no completion with the flag's property.
    For n >= 4 each look-ahead flag is false on some prefix whose insertion
    rows alone would keep it true, so the look-ahead part is exercised."""
    for n in range(1, 9):
        _check_walk_flags(n)


def _check_walk_flags(n):
    looked_ahead = Counter()

    def attained(prefix, rows):
        """Check the flags below ``prefix`` and return the properties that
        some completion of ``prefix`` has."""
        rest = [x for x in range(1, n + 1) if x not in prefix]
        found = set()
        for v in rest:
            child = [r[:] for r in rows]
            _kernels._sch_step(child, v)
            assert len(rows) <= len(child), prefix + (v,)
            assert not rows or len(rows[0]) <= len(child[0]), prefix + (v,)
            found |= attained(prefix + (v,), child)
        if not rest:
            found = {
                name
                for name, has in (
                    ("one row", len(rows) == 1),
                    ("row 0 at most 2", len(rows[0]) <= 2),
                    ("pairs", _kernels.single_row_predicate(prefix)),
                    ("avoids", _kernels.single_column_predicate(prefix)),
                )
                if has
            }
        if prefix:
            row0 = rows[0]
            second = sorted(prefix)[1] if len(prefix) > 1 else n + 1
            now = {
                "one row": len(rows) == 1,
                "row 0 at most 2": len(row0) <= 2,
                "pairs": all((x - 1) // 2 == i // 2 for i, x in enumerate(prefix)),
                "avoids": _kernels.single_column_predicate(prefix),
            }
            ahead = {
                "one row": len(row0) < 2 or all(x > row0[-2] for x in rest),
                "row 0 at most 2": len(row0) < 2 or all(x < row0[-1] for x in rest),
                "pairs": True,
                "avoids": all(x <= second for x in rest),
            }
            for name in now:
                if not (now[name] and ahead[name]):
                    assert name not in found, (name, prefix)
                if now[name] and not ahead[name]:
                    looked_ahead[name] += 1
        return found

    attained((), [])
    if n >= 4:
        assert set(looked_ahead) == {"one row", "row 0 at most 2", "avoids"}


def test_walk_steps_and_prefixes_are_pinned(monkeypatch):
    """At n = 12 the look-ahead flags cut the walk to 18,448 insertion steps
    (the prefix-only flags took 1,227,744) and 8,759 visited prefixes, so a
    loosened flag shows in a count.  The steps are counted through
    ``_sch_step``; the prefixes are the calls of the nested ``walk``, counted
    by a profile hook, because a loosened Av(123, 213) flag only adds
    prefixes that are walked without inserting (266,281 of them)."""
    steps = prefixes = 0
    step = _kernels._sch_step

    def counting_step(rows, alpha):
        nonlocal steps
        steps += 1
        return step(rows, alpha)

    def count_prefixes(frame, event, arg):
        nonlocal prefixes
        if event == "call" and frame.f_code.co_name == "walk":
            prefixes += 1

    monkeypatch.setattr(_kernels, "_sch_step", counting_step)
    previous = sys.getprofile()
    sys.setprofile(count_prefixes)
    try:
        result = _kernels.sweep_row_col(12)
    finally:
        sys.setprofile(previous)
    assert result == (64, 2048, [], [])
    assert (steps, prefixes) == (18448, 8759)


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
