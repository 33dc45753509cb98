"""Integer partitions, the simple-odd-parts predicate, column cluster maps,
enumeration and the product generating function.

A partition is represented as a tuple of weakly decreasing positive ints;
the empty tuple is the partition of 0.  All functions are pure.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import LimitError

Partition = tuple[int, ...]

# the largest orders the CLI answers within about 10 s on a 2-core host:
# listing order 68 took 6.1-6.9 s (70: 9.7-10.5 s), coefficients to 12000
# took 6.8 s (14000: 9.5 s, 16000: 13.9 s)
ENUMERATION_LIMIT = 68
GF_LIMIT = 12000


def check_partition(parts: Iterable[int]) -> Partition:
    """Normalize an iterable to a partition tuple, raising ValueError if invalid."""
    p = tuple(parts)
    for i, part in enumerate(p):
        if not isinstance(part, int) or part < 1:
            raise ValueError(f"parts must be positive integers, got {part!r}")
        if i > 0 and p[i - 1] < part:
            raise ValueError(f"parts must be weakly decreasing, got {p}")
    return p


def order(p: Partition) -> int:
    """Number of cells, i.e. the sum of the parts."""
    return sum(p)


def is_schroeder(p: Partition) -> bool:
    """True iff every odd part of ``p`` occurs exactly once."""
    seen = set()
    for part in p:
        if part % 2:
            if part in seen:
                return False
            seen.add(part)
    return True


def check_schroeder(p: Iterable[int]) -> Partition:
    """Validate that ``p`` is a partition with simple odd parts."""
    parts = check_partition(p)
    if not is_schroeder(parts):
        raise ValueError(f"odd parts must be simple, got {parts}")
    return parts


def conjugate(p: Partition) -> Partition:
    """Exchange rows and columns of the diagram."""
    if not p:
        return ()
    cols = [0] * p[0]
    for part in p:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def cluster_map(p: Partition, n: int) -> Partition:
    """Sum the column lengths of ``p`` in consecutive blocks of ``n``.

    The i-th part of the result is the total number of cells in columns
    (i-1)*n+1 .. i*n of the diagram of ``p``.  For n=1 this is conjugation.
    The total number of cells is preserved.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cols = conjugate(p)
    return tuple(
        s for s in (sum(cols[i : i + n]) for i in range(0, len(cols), n)) if s
    )


def satisfies_cn_condition(p: Partition, n: int) -> bool:
    """True iff for every k >= 0 at most one part lies strictly between k*n and (k+1)*n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    strict_blocks = set()
    for part in p:
        if part % n:
            k = part // n
            if k in strict_blocks:
                return False
            strict_blocks.add(k)
    return True


def partitions_of(n: int) -> Iterator[Partition]:
    """Yield all partitions of ``n`` in lexicographically decreasing order."""
    if n < 0:
        raise ValueError("order must be >= 0")
    parts = [n] if n else []
    while True:
        yield tuple(parts)
        # the successor lowers the last part above 1 by one and refills the
        # tail greedily with parts no larger than it
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        part = parts.pop() - 1
        q, r = divmod(ones + 1, part)
        parts += [part] * (q + 1) + ([r] if r else [])


def enumerate_schroeder_partitions(n: int) -> list[Partition]:
    """All partitions of ``n`` with simple odd parts, lexicographically
    decreasing: parts are chosen largest first, an even part may be followed
    by parts up to itself and an odd part only by smaller ones."""
    if n < 0:
        raise ValueError("order must be >= 0")
    if n > ENUMERATION_LIMIT:
        raise LimitError(f"order {n} exceeds limit {ENUMERATION_LIMIT}")
    result: list[Partition] = []
    _extend_simple_odd([], n, n, result)
    return result


def _extend_simple_odd(parts: list[int], remaining: int, cap: int, out: list) -> None:
    """Append to ``out`` every completion of ``parts`` by ``remaining`` more
    cells in parts of at most ``cap``, with simple odd parts."""
    # a part 1 can only come last, and any cap >= 2 completes any rest
    if remaining <= 1:
        out.append(tuple(parts) + (1,) * remaining)
        return
    for part in range(min(remaining, cap), 1, -1):
        parts.append(part)
        _extend_simple_odd(parts, remaining - part, part - part % 2, out)
        parts.pop()


def gf_coefficients(max_order: int) -> list[int]:
    """Coefficients of x^0..x^max_order of prod_{k>0} (1+x^(2k-1))/(1-x^(2k)).

    Computed with exact integer truncated power-series arithmetic.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if max_order > GF_LIMIT:
        raise LimitError(f"order {max_order} exceeds limit {GF_LIMIT}")
    coeffs = [0] * (max_order + 1)
    coeffs[0] = 1
    for k in range(1, max_order + 1):
        odd = 2 * k - 1
        if odd <= max_order:
            # multiply by (1 + x^odd)
            for i in range(max_order, odd - 1, -1):
                coeffs[i] += coeffs[i - odd]
        even = 2 * k
        if even <= max_order:
            # divide by (1 - x^even), i.e. multiply by 1 + x^even + x^(2 even) + ...
            for i in range(even, max_order + 1):
                coeffs[i] += coeffs[i - even]
        if odd > max_order and even > max_order:
            break
    return coeffs


def format_partition(p: Partition) -> str:
    """Serialize as a comma-separated part list; the empty partition is ''."""
    return ",".join(str(part) for part in p)


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated part list; '' denotes the empty partition."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse partition from {text!r}") from exc
    return check_partition(parts)
