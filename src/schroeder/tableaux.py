"""Triangular-cell tableaux on partitions with simple odd parts.

Cell geometry: within a row, the cell at position p (1-based) is the upper
triangle of square-column (p+1)//2 when p is odd and the lower triangle of
square-column p//2 when p is even.  Positions (2j-1, 2j) of a row form a twin
pair whose union is a square; the last cell of an odd-length row is a lonely
upper triangle.

A filling is standard when entries increase left-to-right along every row and
along every square-column read top to bottom, upper triangle before lower
triangle within each row it meets.  Cells filled with 1..k then always form a
smaller valid shape, which is what makes standard fillings correspond to
saturated chains of shapes.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import LimitError
from .partitions import Partition, check_schroeder, order

# Counting is cheap at this order: the slowest count of order <= 18 takes
# about 0.5 ms (2-core host, Python 3.11).  Listing sets the limit: the
# 512,928 tableaux of (8, 5, 3, 2), the most of any shape of order 18, take
# `tableaux --list` about 8 s and 52 MB peak RSS.
ORDER_LIMIT = 18

Rows = tuple[tuple[int, ...], ...]


class SchroderTableau:
    """A shape together with a filling, one entry per cell.

    Construction checks the shape and that the entries are a bijection with
    1..n; it does not require the filling to be standard.  Tableaux are
    immutable values: equal shape and rows mean equal tableaux.
    """

    __slots__ = ("shape", "rows")
    shape: Partition
    rows: Rows

    def __init__(self, shape: Partition, rows: Rows):
        shape = check_schroeder(shape)
        rows = tuple(tuple(r) for r in rows)
        if tuple(len(r) for r in rows) != shape:
            raise ValueError(f"row lengths {rows} do not match shape {shape}")
        n = order(shape)
        entries = [x for row in rows for x in row]
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError(f"entries must be a bijection with 1..{n}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return (
            isinstance(other, SchroderTableau)
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return f"SchroderTableau(shape={self.shape!r}, rows={self.rows!r})"

    def __reduce__(self):
        return SchroderTableau, (self.shape, self.rows)

    @property
    def size(self) -> int:
        return order(self.shape)


def lonely_cells(shape: Partition) -> list[tuple[int, int]]:
    """Lonely cells as (row, position); one per odd-length row."""
    return [(i, length) for i, length in enumerate(shape) if length % 2]


def is_standard(t: SchroderTableau) -> bool:
    """True iff rows and square-columns strictly increase."""
    return is_standard_rows(t.rows)


def is_standard_rows(rows: Rows) -> bool:
    """True iff the rows strictly increase and so does every square-column of
    the first row, read top to bottom over the rows that reach it.

    The shape is read from the row lengths and the entries are not checked
    to be a bijection, so raw insertion rows need no tableau object.
    """
    for row in rows:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    # within a row the upper triangle precedes its twin, which the row check
    # covers; across rows, a square-column's first cell in a row must exceed
    # its last cell in the row above
    for j in range(0, len(rows[0]) if rows else 0, 2):
        last = None
        for row in rows:
            if len(row) > j:
                if last is not None and row[j] <= last:
                    return False
                last = row[j + 1] if len(row) > j + 1 else row[j]
    return True


def _placeable(shape: Partition, filled: Sequence[int], i: int) -> bool:
    """True iff row i, filled to ``filled[i]`` cells, may take its next cell:
    the row is not full and, for an upper triangle below row 0, the lower twin
    in the row above (its reading-order predecessor) is already filled."""
    p = filled[i] + 1
    return p <= shape[i] and not (i and p % 2 and filled[i - 1] <= p)


def _placements(shape: Partition) -> Iterator[bytes]:
    """Yield every standard filling of ``shape`` as one byte string, the
    entries laid out row after row.

    Values 1..n are placed in increasing order, each in a row that may take
    it.  Entries are at most ORDER_LIMIT < 256, so the byte strings compare
    in the lexicographic order of the row-concatenated entries.
    """
    n = order(shape)
    rows = range(len(shape))
    starts = [sum(shape[:i]) for i in rows]
    filled = [0] * len(shape)
    flat = bytearray(n)

    def rec(value: int) -> Iterator[bytes]:
        if value > n:
            yield bytes(flat)
            return
        for i in rows:
            if _placeable(shape, filled, i):
                flat[starts[i] + filled[i]] = value
                filled[i] += 1
                yield from rec(value + 1)
                filled[i] -= 1

    yield from rec(1)


def _check_order(shape: Partition) -> Partition:
    shape = check_schroeder(shape)
    if order(shape) > ORDER_LIMIT:
        raise LimitError(f"order {order(shape)} exceeds limit {ORDER_LIMIT}")
    return shape


def enumerate_tableaux(shape: Partition) -> Iterator[SchroderTableau]:
    """An iterator over the standard tableaux of ``shape`` in lexicographic
    order of the row-concatenated entries.

    The shape and its order are checked at call time; the fillings are then
    sorted as flat byte keys, and each tableau is built when it is reached.
    """
    shape = _check_order(shape)
    keys = sorted(_placements(shape))
    bounds = [(sum(shape[:i]), sum(shape[: i + 1])) for i in range(len(shape))]
    return (
        SchroderTableau(shape, tuple(tuple(key[a:b]) for a, b in bounds))
        for key in keys
    )


def count_tableaux(shape: Partition) -> int:
    """Number of standard tableaux of ``shape``.

    The number of ways to finish a partial filling depends only on how many
    cells of each row are filled, so it is memoized on that vector for the
    length of one call.
    """
    shape = _check_order(shape)
    rows = range(len(shape))
    memo = {shape: 1}

    def completions(filled: tuple[int, ...]) -> int:
        count = memo.get(filled)
        if count is None:
            count = sum(
                completions(filled[:i] + (filled[i] + 1,) + filled[i + 1 :])
                for i in rows
                if _placeable(shape, filled, i)
            )
            memo[filled] = count
        return count

    return completions((0,) * len(shape))


def is_hook_shape(shape: Partition) -> bool:
    """True iff at most the first row extends past the first square-column."""
    return all(part <= 2 for part in shape[1:])


def render(t: SchroderTableau) -> str:
    """ASCII drawing: each square prints as ``u\\l``, a lonely cell as ``u\\``."""
    width = max(len(str(t.size)), 1)
    lines = []
    for row in t.rows:
        cells = []
        for j in range(0, len(row), 2):
            upper = str(row[j]).rjust(width)
            if j + 1 < len(row):
                cells.append(f"{upper}\\{str(row[j + 1]).ljust(width)}")
            else:
                cells.append(f"{upper}\\{' ' * width}")
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines)


def tableau_to_json(t: SchroderTableau) -> dict:
    return {"shape": list(t.shape), "rows": [list(r) for r in t.rows]}


def tableau_from_json(data: dict) -> SchroderTableau:
    if not isinstance(data, dict) or "rows" not in data:
        raise ValueError("tableau JSON must be an object with a 'rows' field")
    rows = data["rows"]
    if not isinstance(rows, list) or not all(_int_list(r) for r in rows):
        raise ValueError("tableau rows must be a list of lists of integers")
    shape = data.get("shape", [len(r) for r in rows])
    if not _int_list(shape):
        raise ValueError("tableau shape must be a list of integers")
    rows, shape = tuple(map(tuple, rows)), tuple(shape)
    if shape != tuple(len(r) for r in rows):
        raise ValueError(f"declared shape {shape} does not match rows")
    return SchroderTableau(shape, rows)


def _int_list(value) -> bool:
    # bool is a subclass of int, and JSON floats such as 2.0 compare equal
    # to ints, so both are refused by type
    return isinstance(value, list) and all(type(x) is int for x in value)
