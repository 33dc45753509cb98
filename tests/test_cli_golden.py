"""Golden output of the CLI commands.

The expected text is literal: each command's stdout in both formats, for
small fixed inputs.  The ``differential`` and ``interval-theorem`` suites
must print exactly the summaries the benchmark checks against, and the JSON
``params`` of the suites keep their keys and values.
"""

import json
from pathlib import Path

import pytest

from schroeder.cli import main

EXPECTED_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "expected"

FILES = {
    "witness.json": {"intervals": [[1, 2], [3, 5], [4, 6]]},
    "none.json": {"intervals": [[1, 3], [2, 4]]},
}

CASES = {
    "partitions-gf": ["partitions", "--gf", "10"],
    "tableaux-list": ["tableaux", "--shape", "3,1", "--list"],
    "insert-sch": ["insert", "--perm", "2413"],
    "insert-rs": ["insert", "--perm", "2413", "--algorithm", "rs"],
    "lattice-covers": ["lattice", "covers", "--shape", "4,2,1"],
    "posets-xn": ["posets", "xn", "--size", "3"],
    "posets-xn-dot": ["posets", "xn", "--size", "3", "--dot"],
    "preimage-witness": ["intervals", "preimage", "witness.json"],
    "preimage-none": ["intervals", "preimage", "none.json"],
    "verify-counts": ["verify", "--suite", "counts", "--max", "4"],
}

# (case, format) -> (exit code, stdout)
GOLDEN = {
    ('partitions-gf', 'ascii'): (0, '1 1 1 2 3 4 5 7 10 13 16\n'),
    ('partitions-gf', 'json'): (0, '{"coefficients": [1, 1, 1, 2, 3, 4, 5, 7, 10, 13, 16]}\n'),
    ('tableaux-list', 'ascii'): (0, '1\\2 3\\\n4\\\n\n1\\2 4\\\n3\\\n\n'),
    ('tableaux-list', 'json'): (0, '{"rows": [[1, 2, 3], [4]], "shape": [3, 1]}\n{"rows": [[1, 2, 4], [3]], "shape": [3, 1]}\n'),
    ('insert-sch', 'ascii'): (0, 'P:\n1\\2 3\\\n4\\\nQ:\n1\\2 4\\\n3\\\n'),
    ('insert-sch', 'json'): (0, '{"P": {"rows": [[1, 2, 3], [4]], "shape": [3, 1]}, "Q": {"rows": [[1, 2, 4], [3]], "shape": [3, 1]}, "perm": [2, 4, 1, 3]}\n'),
    ('insert-rs', 'ascii'): (0, 'P: 1,3 / 2,4\nQ: 1,2 / 3,4\n'),
    ('insert-rs', 'json'): (0, '{"P": [[1, 3], [2, 4]], "Q": [[1, 2], [3, 4]], "perm": [2, 4, 1, 3]}\n'),
    ('lattice-covers', 'ascii'): (0, 'up 5,2,1\nup 4,3,1\nup 4,2,2\ndown 4,2\ndown 3,2,1\n'),
    ('lattice-covers', 'json'): (0, '{"down": [[4, 2], [3, 2, 1]], "shape": [4, 2, 1], "up": [[5, 2, 1], [4, 3, 1], [4, 2, 2]]}\n'),
    ('posets-xn', 'ascii'): (0, '0: -\n1: 3<2\n2: 3<1 3<2\n3: 2<1 3<1\n4: 2<1 3<1 3<2\n0 -> 1\n1 -> 2\n1 -> 3\n2 -> 4\n3 -> 4\n'),
    ('posets-xn', 'json'): (0, '{"elements": [{"relations": [], "size": 3}, {"relations": [[3, 2]], "size": 3}, {"relations": [[3, 1], [3, 2]], "size": 3}, {"relations": [[2, 1], [3, 1]], "size": 3}, {"relations": [[2, 1], [3, 1], [3, 2]], "size": 3}], "hasse_edges": [[0, 1], [1, 2], [1, 3], [2, 4], [3, 4]], "size": 3}\n'),
    ('posets-xn-dot', 'ascii'): (0, 'digraph weak_pattern_3 {\n  p0 [label="discrete"];\n  p1 [label="3<2"];\n  p2 [label="3<1;3<2"];\n  p3 [label="2<1;3<1"];\n  p4 [label="2<1;3<1;3<2"];\n  p0 -> p1;\n  p1 -> p2;\n  p1 -> p3;\n  p2 -> p4;\n  p3 -> p4;\n}\n'),
    ('posets-xn-dot', 'json'): (0, 'digraph weak_pattern_3 {\n  p0 [label="discrete"];\n  p1 [label="3<2"];\n  p2 [label="3<1;3<2"];\n  p3 [label="2<1;3<1"];\n  p4 [label="2<1;3<1;3<2"];\n  p0 -> p1;\n  p1 -> p2;\n  p1 -> p3;\n  p2 -> p4;\n  p3 -> p4;\n}\n'),
    ('preimage-witness', 'ascii'): (0, 'downset 2,1\nmapping 1,2,3\n1\\2 3\\5\n4\\6\n'),
    ('preimage-witness', 'json'): (0, '{"tableau": {"rows": [[1, 2, 3, 5], [4, 6]], "shape": [4, 2]}, "witness": {"downset": [2, 1], "mapping": [1, 2, 3]}}\n'),
    ('preimage-none', 'ascii'): (0, 'none\n'),
    ('preimage-none', 'json'): (0, '{"witness": null}\n'),
    ('verify-counts', 'ascii'): (0, 'suite=counts checks=13627 violations=0\n'),
    ('verify-counts', 'json'): (0, '{"checks": 13627, "findings": [], "ok": true, "params": {"c2_max": 20, "gf_max": 40, "max": 4}, "suite": "counts", "violations": []}\n'),
}


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case, fmt", sorted(GOLDEN))
def test_stdout_is_golden(capsys, tmp_path, case, fmt):
    for name, data in FILES.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    argv = [str(tmp_path / a) if a in FILES else a for a in CASES[case]]
    assert run(capsys, argv + ["--format", fmt]) == GOLDEN[case, fmt]


@pytest.mark.parametrize("suite", ["differential", "interval-theorem"])
def test_suite_prints_the_benchmark_summary(capsys, suite):
    want = (EXPECTED_DIR / f"{suite}.txt").read_text()
    code, out = run(capsys, ["verify", "--suite", suite])
    assert out == want
    assert code == (0 if want.split("\n", 1)[0].endswith(" violations=0") else 1)


# the counts params are pinned by the golden JSON of verify-counts above
@pytest.mark.parametrize(
    "argv, params",
    [
        (
            ["--suite", "lattice", "--max", "1", "--seed", "3"],
            {"max": 1, "triples": 10000, "seed": 3},
        ),
        (["--suite", "interval-theorem", "--max", "1"], {"max": 1, "tableau_max": 9}),
    ],
)
def test_json_params_keep_their_keys_and_values(capsys, argv, params):
    code, out = run(capsys, ["--format", "json", "verify"] + argv)
    assert code == 0
    assert json.loads(out)["params"] == params
