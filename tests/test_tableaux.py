import copy
import pickle

import pytest

from oracles import (
    all_fillings,
    brute_is_standard,
    chain_to_tableau,
    enumeration_count,
    is_single_column_shape,
    is_single_row_shape,
    placement_fillings,
    tableau_to_chain,
)
from schroeder.errors import LimitError
from schroeder.lattice import count_chains, covers
from schroeder.partitions import enumerate_schroeder_partitions
from schroeder.tableaux import (
    ORDER_LIMIT,
    SchroderTableau,
    count_tableaux,
    enumerate_tableaux,
    is_hook_shape,
    is_standard,
    is_standard_rows,
    lonely_cells,
    render,
    tableau_from_json,
    tableau_to_json,
)


def test_construction_validation():
    with pytest.raises(ValueError, match=r"^odd parts must be simple, got \(1, 1\)$"):
        SchroderTableau((1, 1), ((1,), (2,)))  # repeated odd part
    with pytest.raises(ValueError, match=r"^entries must be a bijection with 1\.\.2$"):
        SchroderTableau((2,), ((1, 3),))  # not a bijection with 1..2
    with pytest.raises(
        ValueError, match=r"^row lengths \(\(1, 2, 3\),\) do not match shape \(2, 1\)$"
    ):
        SchroderTableau((2, 1), ((1, 2, 3),))  # rows do not match shape


def test_tableau_value_semantics():
    t = SchroderTableau((2, 1), ((1, 2), (3,)))
    # lists are stored as tuples, so equal fillings are equal values
    same = SchroderTableau(shape=[2, 1], rows=[[1, 2], [3]])
    assert (same.shape, same.rows) == ((2, 1), ((1, 2), (3,)))
    assert t == same and not t != same and hash(t) == hash(same)
    assert len({t, same}) == 1
    other = SchroderTableau((2, 1), ((1, 3), (2,)))
    assert t != other and other != t
    assert t != ((2, 1), ((1, 2), (3,)))
    assert repr(t) == "SchroderTableau(shape=(2, 1), rows=((1, 2), (3,)))"
    assert t.size == 3
    for name in ("shape", "rows", "size", "extra"):
        with pytest.raises(AttributeError):
            setattr(t, name, ())
    with pytest.raises(AttributeError):
        del t.rows
    assert t == same
    for copied in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert copied == t and hash(copied) == hash(t)


def test_geometry():
    assert lonely_cells((4, 3, 2)) == [(1, 3)]


def test_is_standard_examples():
    paper = SchroderTableau((4, 3, 2), ((1, 2, 7, 8), (3, 4, 9), (5, 6)))
    assert is_standard(paper)
    assert not is_standard(SchroderTableau((2, 1), ((1, 3), (2,))))
    assert is_standard(SchroderTableau((1,), ((1,),)))


def test_is_standard_rows_matches_definition():
    # every filling of every shape up to order 6, and of some row-length
    # lists that are not partitions, where only rows reaching a
    # square-column of the first row take part in it
    shapes = [s for n in range(7) for s in enumerate_schroeder_partitions(n)]
    shapes += [(1, 3), (2, 3, 1), (3, 0, 2), (2, 1, 2)]
    for shape in shapes:
        for rows in all_fillings(shape):
            assert is_standard_rows(rows) == brute_is_standard(rows), rows


def test_enumerate_small_shapes():
    assert [t.rows for t in enumerate_tableaux((2, 1))] == [((1, 2), (3,))]
    assert [t.rows for t in enumerate_tableaux((3, 1))] == [
        ((1, 2, 3), (4,)),
        ((1, 2, 4), (3,)),
    ]
    assert count_tableaux((1,)) == 1
    assert count_tableaux(()) == 1


def test_enumeration_matches_filtered_fillings():
    for shape in [(2,), (2, 1), (3, 1), (4,), (2, 2), (3, 2), (4, 1), (2, 2, 1)]:
        expected = sorted(
            rows
            for rows in all_fillings(shape)
            if is_standard(SchroderTableau(shape, rows))
        )
        got = sorted(t.rows for t in enumerate_tableaux(shape))
        assert got == expected, shape


def test_enumeration_distinct_and_ordered():
    for n in range(9):
        for shape in enumerate_schroeder_partitions(n):
            tabs = enumerate_tableaux(shape)
            keys = [sum(t.rows, ()) for t in tabs]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_listing_matches_sorted_placements():
    for n in range(11):
        for shape in enumerate_schroeder_partitions(n):
            expected = sorted(placement_fillings(shape), key=lambda rows: sum(rows, ()))
            assert [t.rows for t in enumerate_tableaux(shape)] == expected, shape


def test_count_matches_enumeration():
    for n in range(13):
        for shape in enumerate_schroeder_partitions(n):
            assert count_tableaux(shape) == enumeration_count(shape), shape


def test_count_matches_chain_count_up_to_order_limit():
    # the paper's chains-equal-fillings claim at every order count_tableaux
    # accepts; the lattice counts chains through lattice.covers, the
    # recursion through the placement rule alone
    for n in range(ORDER_LIMIT + 1):
        for shape in enumerate_schroeder_partitions(n):
            assert count_tableaux(shape) == count_chains(shape), shape


def test_order_limit():
    with pytest.raises(LimitError):
        enumerate_tableaux((20, 18, 16, 14))


def test_chain_round_trip_exhaustive():
    for n in range(9):
        for shape in enumerate_schroeder_partitions(n):
            for t in enumerate_tableaux(shape):
                chain = tableau_to_chain(t)
                assert chain[0] == () and chain[-1] == shape
                for a, b in zip(chain, chain[1:]):
                    assert b in covers(a).up_covers
                assert chain_to_tableau(chain) == t


def test_chain_examples():
    assert chain_to_tableau([(), (1,), (2,), (2, 1)]).rows == ((1, 2), (3,))
    assert chain_to_tableau([(), (1,)]).rows == ((1,),)
    with pytest.raises(ValueError):
        chain_to_tableau([(), (2,)])
    with pytest.raises(ValueError):
        chain_to_tableau([(1,), (2,)])


def test_render():
    assert render(SchroderTableau((1,), ((1,),))) == "1\\"
    assert render(SchroderTableau((2, 1), ((1, 2), (3,)))) == "1\\2\n3\\"
    paper = SchroderTableau((4, 3, 2), ((1, 2, 7, 8), (3, 4, 9), (5, 6)))
    assert render(paper) == "1\\2 7\\8\n3\\4 9\\\n5\\6"


def test_json_round_trip():
    t = SchroderTableau((4, 3, 2), ((1, 2, 5, 8), (3, 4, 9), (6, 7)))
    data = tableau_to_json(t)
    assert data == {"shape": [4, 3, 2], "rows": [[1, 2, 5, 8], [3, 4, 9], [6, 7]]}
    assert tableau_from_json(data) == t
    with pytest.raises(ValueError):
        tableau_from_json({"shape": [2, 2], "rows": [[1, 2], [3]]})


def test_shape_classes():
    assert is_single_row_shape((7,))
    assert is_single_column_shape((2, 2, 1))
    assert not is_single_column_shape((3, 2))
    assert is_hook_shape((6, 2, 2, 1))
    assert not is_hook_shape((4, 3))
    assert is_hook_shape((2, 2)) and is_single_column_shape((2, 2))
