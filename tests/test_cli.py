import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from schroeder import cli, verify
from schroeder.cli import main
from schroeder.insertion import PERMUTATION_LIMIT
from schroeder.partitions import ENUMERATION_LIMIT, GF_LIMIT
from schroeder.posets import SIZE_LIMIT

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_insert_worked_example_ascii(capsys):
    code, out, _ = run_cli(capsys, "insert", "--perm", "465193287")
    assert code == 0
    assert out == "P:\n1\\2 7\\8\n3\\4 9\\\n5\\6\nQ:\n1\\2 5\\8\n3\\4 9\\\n6\\7\n"


def test_insert_worked_example_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "insert", "--perm", "465193287")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    data = json.loads(lines[0])
    assert data["P"]["rows"] == [[1, 2, 7, 8], [3, 4, 9], [5, 6]]
    assert data["Q"]["rows"] == [[1, 2, 5, 8], [3, 4, 9], [6, 7]]
    # the shared flags are also accepted after the subcommand
    code, out_postfix, _ = run_cli(
        capsys, "insert", "--perm", "465193287", "--format", "json"
    )
    assert code == 0 and out_postfix == out


def test_insert_rs(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "insert", "--perm", "231", "--algorithm", "rs"
    )
    data = json.loads(out)
    assert code == 0
    assert data["P"] == [[1, 3], [2]]
    assert data["Q"] == [[1, 2], [3]]


def test_partitions_count_and_list(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--order", "0", "--count")
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(capsys, "partitions", "--order", "4")
    assert code == 0 and out == "4\n3,1\n2,2\n"
    code, out, _ = run_cli(capsys, "--format", "json", "partitions", "--order", "3")
    objects = [json.loads(line) for line in out.strip().splitlines()]
    assert objects == [{"partition": [3]}, {"partition": [2, 1]}]


def test_partitions_gf(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--gf", "10")
    assert code == 0
    assert out == "1 1 1 2 3 4 5 7 10 13 16\n"


def test_lattice_commands(capsys):
    code, out, _ = run_cli(capsys, "lattice", "covers", "--shape", "2,1")
    assert code == 0
    assert out == "up 3,1\nup 2,2\ndown 2\n"
    code, out, _ = run_cli(capsys, "lattice", "chains", "--shape", "4,3,2")
    assert code == 0 and out == "31\n"


def test_lattice_chains_order_limit(capsys):
    # shapes past the order limit are refused at once instead of recursing
    # for minutes or past the interpreter's recursion limit
    for shape in ("3000", "20,18,16,14,12,10,8,6,4,2", "65"):
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, "lattice", "chains", "--shape", shape)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "limit 64" in err
        assert "Traceback" not in err
        assert time.monotonic() - t0 < 1
    code, out, _ = run_cli(capsys, "lattice", "chains", "--shape", "64")
    assert code == 0 and out == "1\n"


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "--perm", "2143")
    assert code == 0 and out == "single_row\n"


def test_tableaux_commands(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "--shape", "3,1", "--count")
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(
        capsys, "--format", "json", "tableaux", "--shape", "3,1", "--list"
    )
    rows = [json.loads(line)["rows"] for line in out.strip().splitlines()]
    assert rows == [[[1, 2, 3], [4]], [[1, 2, 4], [3]]]


def test_tableaux_count_at_the_order_limit_is_quick(capsys):
    # the order-18 shape with the most tableaux
    t0 = time.monotonic()
    code, out, _ = run_cli(capsys, "tableaux", "--shape", "8,5,3,2", "--count")
    assert code == 0 and out == "512928\n"
    assert time.monotonic() - t0 < 1


def test_posets_commands(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "posets", "enumerate", "--size", "3", "--unlabeled")
    assert code == 0
    assert len(out.strip().splitlines()) == 5

    pattern = tmp_path / "vee.json"
    pattern.write_text(json.dumps({"size": 3, "relations": [[1, 2], [1, 3]]}))
    code, out, _ = run_cli(
        capsys, "posets", "sav", "--size", "3", "--pattern", str(pattern), "--labeled"
    )
    assert code == 0 and out == "10\n"

    code, out, _ = run_cli(capsys, "posets", "xn", "--size", "3", "--dot")
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 5


def test_intervals_commands(tmp_path, capsys):
    tab = tmp_path / "t.json"
    tab.write_text(
        json.dumps({"shape": [4, 3, 2], "rows": [[1, 2, 5, 8], [3, 4, 9], [6, 7]]})
    )
    code, out, _ = run_cli(capsys, "intervals", "from-tableau", str(tab))
    assert code == 0
    assert out == "[1,2] [5,8] [3,4] [9,10] [6,7]\n"

    ivs = tmp_path / "i.json"
    ivs.write_text(json.dumps({"intervals": [[1, 3], [2, 4]]}))
    code, out, _ = run_cli(capsys, "intervals", "preimage", str(ivs))
    assert code == 0 and out == "none\n"

    ivs.write_text(json.dumps({"intervals": [[1, 2], [3, 4]]}))
    code, out, _ = run_cli(capsys, "--format", "json", "intervals", "preimage", str(ivs))
    assert code == 0
    data = json.loads(out)
    assert data["witness"]["downset"] == [2]
    assert data["tableau"]["rows"] == [[1, 2, 3, 4]]


def test_preimage_answers_in_bounded_time(tmp_path, capsys):
    # 14 intervals with no preimage; a down-set search without up-degree
    # pruning took about 10 s to refute every down-set
    ivs = tmp_path / "i.json"
    ivs.write_text(json.dumps({"intervals": [
        [2, 5], [1, 4], [3, 7], [6, 10], [8, 9], [11, 13], [12, 16],
        [15, 17], [14, 20], [18, 21], [19, 23], [22, 24], [25, 26], [27, 28],
    ]}))
    t0 = time.monotonic()
    code, out, _ = run_cli(capsys, "intervals", "preimage", str(ivs))
    assert code == 0 and out == "none\n"
    assert time.monotonic() - t0 < 1


def test_preimage_refuses_oversized_input_at_once(tmp_path, capsys):
    # ordering 5,000 intervals and searching their grid down-sets takes
    # far too long, so the size limit must be checked before either
    ivs = tmp_path / "i.json"
    ivs.write_text(json.dumps({"intervals": [[2 * k + 1, 2 * k + 2] for k in range(5000)]}))
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "intervals", "preimage", str(ivs))
    assert code == 2 and out == ""
    assert err == "error: size 5000 exceeds limit 30\n"
    assert time.monotonic() - t0 < 1


SAV_PATTERN = ("posets", "sav", "--size", "3", "--pattern")


@pytest.mark.parametrize(
    "command,data",
    [
        (("intervals", "from-tableau"), {"rows": 3}),
        (("intervals", "from-tableau"), {"rows": [[1, "a"]]}),
        (("intervals", "from-tableau"), {"rows": [[1, 2.0]]}),
        (("intervals", "from-tableau"), {"rows": [[1, 2]], "shape": 2}),
        (("intervals", "preimage"), {"intervals": 1}),
        (("intervals", "preimage"), {"intervals": [[True, 2]]}),
        (("intervals", "preimage"), {"intervals": [[1, 2.0]]}),
        (SAV_PATTERN, {"size": -2, "relations": []}),
        (SAV_PATTERN, {"size": 3, "relations": [[1, 2.5]]}),
        (SAV_PATTERN, {"size": 3, "relations": [["a", 2]]}),
        (SAV_PATTERN, {"size": 3, "relations": 5}),
        (SAV_PATTERN, {"size": 3, "relations": None}),
        (SAV_PATTERN, {"size": None}),
        (SAV_PATTERN, {"size": 2.7}),
        (SAV_PATTERN, {"size": "3"}),
        (SAV_PATTERN, {"size": 10**6}),
    ],
)
def test_malformed_json_is_an_input_error(tmp_path, capsys, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "internal error" not in err


@pytest.mark.parametrize("text", ["", "{not json"])
@pytest.mark.parametrize(
    "command", [("intervals", "from-tableau"), ("intervals", "preimage"), SAV_PATTERN]
)
def test_non_json_input_is_an_input_error(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read JSON file {path}: ")
    assert "internal error" not in err and len(err.splitlines()) == 1


def _fresh_python(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


def test_import_loads_no_dataclasses_inspect_or_json():
    # every CLI process and benchmark worker pays for what importing loads
    code = (
        "import sys\n"
        "import schroeder, schroeder.cli, schroeder.verify\n"
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
    )
    proc = _fresh_python("-c", code, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [("tableaux", "--shape", "6,4,3,2", "--list"), ("partitions", "--order", "40")],
)
def test_closed_output_is_reported_once(argv):
    # both outputs exceed a pipe's buffer, so writing goes on after the
    # reader has closed its end, as with `| head -1`
    proc = _fresh_python(
        "-m", "schroeder", *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == b"error: output closed\n"


def test_pattern_above_the_size_limit_is_refused(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"size": 10**6, "relations": [[1, 2]]}))
    code, _, err = run_cli(capsys, *SAV_PATTERN, str(path))
    assert code == 2 and err == f"error: size {10**6} exceeds limit {SIZE_LIMIT}\n"


@pytest.mark.parametrize(
    "argv,limit",
    [
        (("--order", str(ENUMERATION_LIMIT + 1)), ENUMERATION_LIMIT),
        (("--order", "1000", "--count"), ENUMERATION_LIMIT),
        (("--gf", str(GF_LIMIT + 1)), GF_LIMIT),
        (("--gf", "1000000000"), GF_LIMIT),
    ],
)
def test_partitions_limits(capsys, argv, limit):
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "partitions", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"limit {limit}" in err
    assert "Traceback" not in err
    assert time.monotonic() - t0 < 1


@pytest.mark.parametrize("algorithm", ["sch", "rs"])
def test_insert_permutation_limit(capsys, algorithm):
    perm = ",".join(map(str, range(PERMUTATION_LIMIT + 1, 0, -1)))
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "insert", "--perm", perm, "--algorithm", algorithm)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"limit {PERMUTATION_LIMIT}" in err
    assert "Traceback" not in err
    assert time.monotonic() - t0 < 1


@pytest.mark.parametrize(
    "argv",
    [
        ["posets", "enumerate", "--size", "3", "--labeled", "--unlabeled"],
        ["posets", "sav", "--size", "3", "--pattern", "p.json", "--unlabeled", "--labeled"],
        ["tableaux", "--shape", "3,1", "--count", "--list"],
    ],
)
def test_conflicting_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "not allowed with argument" in err and "Traceback" not in err


def test_labeled_flag_alone(capsys):
    code, out, _ = run_cli(capsys, "posets", "enumerate", "--size", "2", "--labeled")
    assert code == 0 and out == "2: -\n2: 2<1\n2: 1<2\n"


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "counts", "--max", "4")
    assert code == 0
    assert "violations=0" in out
    # the differential suite detects the genuine bound failure at (4, 3)
    code, out, _ = run_cli(capsys, "verify", "--suite", "differential", "--max", "7")
    assert code == 1
    assert "(4, 3)" in out


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "partitions", "--order", "-1")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "insert", "--perm", "122")
    assert code == 2
    code, _, err = run_cli(capsys, "intervals", "preimage", "/nonexistent.json")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "suite,depth",
    [(s, d) for s in sorted(verify.SUITES) for d in (-1, 0, verify.MAX_DEPTH[s] + 1)],
)
def test_verify_depth_out_of_range(capsys, suite, depth):
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max", str(depth))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert time.monotonic() - t0 < 1


def test_unexpected_error_exits_2(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_classify", crash)
    code, out, err = run_cli(capsys, "classify", "--perm", "2143")
    assert code == 2 and out == ""
    assert err == "error: internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


def test_determinism_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "--format", "json", "verify", "--suite", "counts", "--max", "4"
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        _, out, _ = run_cli(capsys, "posets", "xn", "--size", "4")
        outputs.append(out)
    assert outputs[2] == outputs[3]


def test_jobs_flag_does_not_change_results(capsys):
    _, out1, _ = run_cli(capsys, "--jobs", "1", "partitions", "--order", "8", "--count")
    _, out4, _ = run_cli(capsys, "--jobs", "4", "partitions", "--order", "8", "--count")
    assert out1 == out4
