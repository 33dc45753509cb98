"""Fuzz the command line with generated subcommands, arguments and JSON input
files.  Every call must exit with 0, 1 or 2 (an argparse usage error counts
as 2), exit 1 only from ``verify``, print no traceback, report no internal
error and return within 2 s.

Sizes come from a small range or from far above each limit, so that a call
either answers at once or is refused: permutations have at most 14 values
or are a rotation or reversal far above the permutation limit, and
``intervals preimage`` gets at most 8 or more than 30 intervals, because
sizes in between can still search for seconds.
"""

import contextlib
import io
import json
import os
import tempfile
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schroeder import cli, verify
from schroeder.insertion import PERMUTATION_LIMIT
from schroeder.intervals import DOWNSET_LIMIT
from schroeder.lattice import CHAIN_ORDER_LIMIT
from schroeder.partitions import ENUMERATION_LIMIT, GF_LIMIT
from schroeder.posets import SIZE_LIMIT
from schroeder.tableaux import ORDER_LIMIT

FORMATS = st.sampled_from([[], ["--format", "ascii"], ["--format", "json"]])


def sizes(small_max, limit):
    """An int in -2..small_max, or one far above ``limit``."""
    return st.one_of(
        st.integers(-2, small_max), st.integers(limit + 1, 1000 * (limit + 1))
    )


def flags(*names):
    return st.lists(st.sampled_from(names), unique=True)


@st.composite
def shapes(draw, limit):
    """A comma-separated part list: small parts in any order (often not a
    partition), one part far above ``limit``, or text that is not a list."""
    kind = draw(st.sampled_from(["small", "large", "text"]))
    if kind == "small":
        parts = draw(st.lists(st.integers(-1, 5), max_size=4))
    elif kind == "large":
        parts = [draw(st.integers(limit + 1, 1000 * limit))]
    else:
        return draw(st.text(alphabet="0123456789,- x", max_size=8))
    return ",".join(map(str, parts))


@st.composite
def permutations_text(draw):
    kind = draw(st.sampled_from(["text", "small", "long"]))
    if kind == "text":
        return draw(st.text(alphabet="0123456789,-x ", max_size=12))
    if kind == "long":
        n = draw(st.integers(PERMUTATION_LIMIT + 1, 10 * (PERMUTATION_LIMIT + 1)))
        k = draw(st.integers(0, n - 1))
        perm = [(i + k) % n + 1 for i in range(n)]
        if draw(st.booleans()):
            perm.reverse()
        return ",".join(map(str, perm))
    perm = draw(st.permutations(range(1, draw(st.integers(1, 14)) + 1)))
    if len(perm) <= 9 and draw(st.booleans()):
        return "".join(map(str, perm))
    return ",".join(map(str, perm))


@st.composite
def poset_json(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "[]", "{}", "{\"size\": \"x\"}", "nul"]))
    size = draw(sizes(6, SIZE_LIMIT))
    pair = st.lists(st.integers(-1, 8), min_size=1, max_size=3)
    pairs = draw(st.lists(pair, max_size=8))
    return json.dumps({"size": size, "relations": pairs})


@st.composite
def tableau_json(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(
            ["", "[]", "{}", "{\"rows\": 3}", "{\"rows\": [[1]], \"shape\": [2]}"]
        ))
    lengths = draw(st.lists(st.integers(0, 5), max_size=4))
    n = sum(lengths)
    values = list(range(1, n + 1))
    if draw(st.booleans()):
        values = draw(st.permutations(values))
    if draw(st.integers(0, 4)) == 0:
        values = draw(st.lists(st.integers(-1, n + 2), min_size=n, max_size=n))
    rows, pos = [], 0
    for length in lengths:
        rows.append(values[pos : pos + length])
        pos += length
    data = {"rows": rows}
    if draw(st.booleans()):
        data["shape"] = lengths
    return json.dumps(data)


@st.composite
def intervals_json(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(
            ["", "{}", "{\"intervals\": 1}", "{\"intervals\": [[1]]}"]
        ))
    small = draw(st.booleans())
    n = draw(st.integers(0, 8) if small else st.integers(DOWNSET_LIMIT + 1, 60))
    intervals = []
    for _ in range(n):
        a = draw(st.integers(1, 3 * n + 2))
        intervals.append([a, a + draw(st.integers(1, n + 2))])
    if intervals and draw(st.integers(0, 9)) == 0:
        intervals[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([[2, 2], [3, 1], [0, 1], [1], ["a", 2]])
        )
    return json.dumps({"intervals": intervals})


@st.composite
def commands(draw):
    """(argv, files): ``files`` maps a file name used in argv to its text."""
    which = draw(st.sampled_from([
        "partitions", "tableaux", "insert", "classify", "lattice", "posets",
        "intervals", "verify", "tokens",
    ]))
    files = {}
    if which == "partitions":
        if draw(st.booleans()):
            argv = ["partitions", "--gf", str(draw(sizes(200, GF_LIMIT)))]
        else:
            argv = ["partitions"]
            if draw(st.integers(0, 9)):
                argv += ["--order", str(draw(sizes(30, ENUMERATION_LIMIT)))]
            argv += draw(flags("--count"))
    elif which == "tableaux":
        argv = ["tableaux", "--shape", draw(shapes(ORDER_LIMIT))]
        argv += draw(flags("--count", "--list"))
    elif which == "insert":
        argv = ["insert", "--perm", draw(permutations_text())]
        argv += draw(st.sampled_from([[], ["--algorithm", "sch"], ["--algorithm", "rs"]]))
    elif which == "classify":
        argv = ["classify", "--perm", draw(permutations_text())]
    elif which == "lattice":
        argv = ["lattice", draw(st.sampled_from(["covers", "chains"]))]
        argv += ["--shape", draw(shapes(CHAIN_ORDER_LIMIT))]
    elif which == "posets":
        sub = draw(st.sampled_from(["enumerate", "sav", "xn"]))
        argv = ["posets", sub, "--size", str(draw(sizes(5, SIZE_LIMIT)))]
        if sub == "xn":
            argv += draw(flags("--dot"))
        else:
            argv += draw(flags("--labeled", "--unlabeled"))
        if sub == "sav":
            files["pattern.json"] = draw(poset_json())
            argv += ["--pattern", "pattern.json"]
    elif which == "intervals":
        if draw(st.booleans()):
            files["tableau.json"] = draw(tableau_json())
            argv = ["intervals", "from-tableau", "tableau.json"]
        else:
            files["intervals.json"] = draw(intervals_json())
            argv = ["intervals", "preimage", "intervals.json"]
    elif which == "verify":
        suite = draw(st.sampled_from(sorted(verify.SUITES)))
        depth = draw(sizes(3, verify.MAX_DEPTH[suite]))
        argv = ["verify", "--suite", suite, "--max", str(depth)]
    else:
        # a jumble of the program's own words: mostly usage errors
        argv = draw(st.lists(st.sampled_from([
            "partitions", "tableaux", "lattice", "covers", "posets", "xn",
            "intervals", "preimage", "verify", "--suite", "--max", "--order",
            "--gf", "--shape", "--size", "--count", "--list", "--dot", "-1",
            "0", "x", "2,1", "--", "-h",
        ]), max_size=6))
    argv += draw(FORMATS)
    prefix = draw(st.sampled_from([[], ["--jobs", "1"], ["--jobs", "0"], ["--seed", "7"]]))
    return prefix + argv, files


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = 0 if exc.code is None else exc.code
    return code, err.getvalue()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(commands())
def test_cli_keeps_its_contract(command):
    argv, files = command
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, a) if a in files else a for a in argv]
        t0 = time.monotonic()
        code, err = run_main(argv)
        elapsed = time.monotonic() - t0
    assert code in (0, 1, 2), (argv, code, err)
    assert code != 1 or "verify" in argv, (argv, err)
    assert "Traceback" not in err, (argv, err)
    assert "internal error" not in err, (argv, err)
    assert elapsed < 2, (argv, elapsed)
