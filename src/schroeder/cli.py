"""Command-line interface.

Every subcommand produces deterministic output for fixed inputs; ``--format
json`` emits one JSON object per line.  Exit codes: 0 success, 1 verification
failure, 2 usage or input error, output closed by its reader (one ``error:
output closed`` line to stderr), or an unexpected internal error, which prints
one ``error: internal error: <type>: <message>`` line to stderr and no
traceback.  ``json`` is imported only where JSON is read or written.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from . import insertion, intervals, lattice, posets, tableaux, verify
from .errors import LimitError
from .partitions import (
    enumerate_schroeder_partitions,
    format_partition,
    gf_coefficients,
    parse_partition,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


def _emit(obj: dict, fmt: str, ascii_text: Callable[[], str]) -> None:
    """Print ``obj`` as JSON or the text ``ascii_text()`` renders; the text
    is rendered only when printed."""
    if fmt == "json":
        import json

        print(json.dumps(obj, sort_keys=True))
    else:
        print(ascii_text())


def _cmd_partitions(args) -> int:
    if args.gf is not None:
        coeffs = gf_coefficients(args.gf)
        _emit({"coefficients": coeffs}, args.format, lambda: " ".join(map(str, coeffs)))
        return EXIT_OK
    if args.order is None:
        raise ValueError("--order (or --gf) is required")
    parts = enumerate_schroeder_partitions(args.order)
    if args.count:
        _emit({"order": args.order, "count": len(parts)}, args.format, lambda: str(len(parts)))
        return EXIT_OK
    for p in parts:
        _emit({"partition": list(p)}, args.format, lambda: format_partition(p))
    return EXIT_OK


def _cmd_tableaux(args) -> int:
    shape = parse_partition(args.shape)
    if not args.list:
        n = tableaux.count_tableaux(shape)
        _emit({"shape": list(shape), "count": n}, args.format, lambda: str(n))
        return EXIT_OK
    for t in tableaux.enumerate_tableaux(shape):
        _emit(tableaux.tableau_to_json(t), args.format, lambda: tableaux.render(t) + "\n")
    return EXIT_OK


def _cmd_insert(args) -> int:
    perm = insertion.parse_permutation(args.perm)
    if args.algorithm == "rs":
        p_rows, q_rows = insertion.rs_insert(perm)
        obj = {
            "perm": list(perm),
            "P": [list(r) for r in p_rows],
            "Q": [list(r) for r in q_rows],
        }

        def ascii_text() -> str:
            return "P: " + " / ".join(
                ",".join(map(str, r)) for r in p_rows
            ) + "\nQ: " + " / ".join(",".join(map(str, r)) for r in q_rows)
    else:
        p_tab, q_tab = insertion.sch_insert(perm)
        obj = {
            "perm": list(perm),
            "P": tableaux.tableau_to_json(p_tab),
            "Q": tableaux.tableau_to_json(q_tab),
        }

        def ascii_text() -> str:
            return f"P:\n{tableaux.render(p_tab)}\nQ:\n{tableaux.render(q_tab)}"
    _emit(obj, args.format, ascii_text)
    return EXIT_OK


def _cmd_classify(args) -> int:
    perm = insertion.parse_permutation(args.perm)
    label = insertion.classify_shape(perm)
    _emit({"perm": list(perm), "class": label}, args.format, lambda: label)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    shape = parse_partition(args.shape)
    if args.lattice_cmd == "covers":
        cs = lattice.covers(shape)
        _emit(
            {
                "shape": list(shape),
                "up": [list(u) for u in cs.up_covers],
                "down": [list(d) for d in cs.down_covers],
            },
            args.format,
            lambda: "\n".join(
                [f"up {format_partition(u)}" for u in cs.up_covers]
                + [f"down {format_partition(d)}" for d in cs.down_covers]
            ),
        )
        return EXIT_OK
    n = lattice.count_chains(shape)
    _emit({"shape": list(shape), "chains": n}, args.format, lambda: str(n))
    return EXIT_OK


def _load_json(path: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON file {path}: {exc}") from exc


def _relations(p: posets.FinitePoset) -> str:
    return " ".join(f"{i}<{j}" for i, j in p.strict_pairs()) or "-"


def _cmd_posets(args) -> int:
    if args.posets_cmd == "enumerate":
        for p in posets.enumerate_posets(args.size, labeled=not args.unlabeled):
            _emit(posets.poset_to_json(p), args.format, lambda: f"{p.n}: {_relations(p)}")
        return EXIT_OK
    if args.posets_cmd == "sav":
        pattern = posets.poset_from_json(_load_json(args.pattern))
        count = posets.sav_count(args.size, pattern, labeled=not args.unlabeled)
        _emit(
            {"size": args.size, "labeled": not args.unlabeled, "count": count},
            args.format,
            lambda: str(count),
        )
        return EXIT_OK
    xp = posets.build_weak_pattern_poset(args.size)
    if args.dot:
        print(f"digraph weak_pattern_{args.size} {{")
        for i, e in enumerate(xp.elements):
            label = ";".join(f"{a}<{b}" for a, b in e.strict_pairs()) or "discrete"
            print(f'  p{i} [label="{label}"];')
        for i, j in xp.hasse_edges:
            print(f"  p{i} -> p{j};")
        print("}")
        return EXIT_OK
    _emit(
        {
            "size": args.size,
            "elements": [posets.poset_to_json(e) for e in xp.elements],
            "hasse_edges": [list(e) for e in xp.hasse_edges],
        },
        args.format,
        lambda: "\n".join(
            [f"{i}: {_relations(e)}" for i, e in enumerate(xp.elements)]
            + [f"{i} -> {j}" for i, j in xp.hasse_edges]
        ),
    )
    return EXIT_OK


def _cmd_intervals(args) -> int:
    if args.intervals_cmd == "from-tableau":
        t = tableaux.tableau_from_json(_load_json(args.file))
        ivs = intervals.intervals_of_tableau(t)
        _emit(
            intervals.intervals_to_json(ivs),
            args.format,
            lambda: " ".join(f"[{a},{b}]" for a, b in ivs),
        )
        return EXIT_OK
    ivs = intervals.intervals_from_json(_load_json(args.file))
    intervals.check_size(len(ivs))
    order = intervals.interval_order(ivs)
    witness = intervals.has_schroder_preimage(order)
    if witness is None:
        _emit({"witness": None}, args.format, lambda: "none")
        return EXIT_OK
    built = intervals.tableau_from_witness(order, witness.downset, witness.mapping)
    _emit(
        {
            "witness": {
                "downset": list(witness.downset),
                "mapping": list(witness.mapping),
            },
            "tableau": tableaux.tableau_to_json(built),
        },
        args.format,
        lambda: f"downset {format_partition(witness.downset)}\n"
        f"mapping {','.join(map(str, witness.mapping))}\n"
        + tableaux.render(built),
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, max_size=args.max, seed=args.seed)
    _emit(
        {
            "suite": report.suite,
            "params": report.params,
            "checks": report.checks,
            "violations": [list(v) for v in report.violations],
            "findings": report.findings,
            "ok": report.ok,
        },
        args.format,
        lambda: "\n".join(report.summary_lines()),
    )
    return EXIT_OK if report.ok else EXIT_VERIFY


def _common_flags(sub_parser: argparse.ArgumentParser) -> None:
    # the shared flags are accepted both before and after the subcommand
    sub_parser.add_argument(
        "--format", choices=("ascii", "json"), default=argparse.SUPPRESS
    )
    sub_parser.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    sub_parser.add_argument("--seed", type=int, default=argparse.SUPPRESS)


def _labeling_flags(sub_parser: argparse.ArgumentParser) -> None:
    # labeled is the default; --labeled only says so
    group = sub_parser.add_mutually_exclusive_group()
    group.add_argument("--labeled", action="store_true")
    group.add_argument("--unlabeled", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schroeder",
        description="Triangular-shape tableaux, their lattice, insertion, "
        "poset patterns and interval orders, with verification suites.",
    )
    parser.add_argument(
        "--format", choices=("ascii", "json"), default="ascii", help="output format"
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker count (results are identical for any value)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized trials")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="enumerate partitions with simple odd parts")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--count", action="store_true")
    p.add_argument("--gf", type=int, default=None, metavar="MAX",
                   help="print generating-function coefficients 0..MAX instead")
    _common_flags(p)
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("tableaux", help="count or list standard tableaux of a shape")
    p.add_argument("--shape", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true", help="print the count (default)")
    mode.add_argument("--list", action="store_true")
    _common_flags(p)
    p.set_defaults(func=_cmd_tableaux)

    p = sub.add_parser("insert", help="run the insertion algorithm on a permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--algorithm", choices=("sch", "rs"), default="sch")
    _common_flags(p)
    p.set_defaults(func=_cmd_insert)

    p = sub.add_parser("classify", help="classify the insertion shape of a permutation")
    p.add_argument("--perm", required=True)
    _common_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("lattice", help="cover relations and chain counts")
    lat = p.add_subparsers(dest="lattice_cmd", required=True)
    c = lat.add_parser("covers", help="up and down covers of a shape")
    c.add_argument("--shape", required=True)
    _common_flags(c)
    c.set_defaults(func=_cmd_lattice)
    c = lat.add_parser("chains", help="saturated chain count from the empty shape")
    c.add_argument("--shape", required=True)
    _common_flags(c)
    c.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("posets", help="poset enumeration and strong avoidance")
    pos = p.add_subparsers(dest="posets_cmd", required=True)
    c = pos.add_parser("enumerate")
    c.add_argument("--size", type=int, required=True)
    _labeling_flags(c)
    _common_flags(c)
    c.set_defaults(func=_cmd_posets)
    c = pos.add_parser("sav")
    c.add_argument("--size", type=int, required=True)
    c.add_argument("--pattern", required=True, help="poset JSON file")
    _labeling_flags(c)
    _common_flags(c)
    c.set_defaults(func=_cmd_posets)
    c = pos.add_parser("xn", help="the weak-containment poset of all size-n posets")
    c.add_argument("--size", type=int, required=True)
    c.add_argument("--dot", action="store_true")
    _common_flags(c)
    c.set_defaults(func=_cmd_posets)

    p = sub.add_parser("intervals", help="interval sets of tableaux and preimages")
    iv = p.add_subparsers(dest="intervals_cmd", required=True)
    c = iv.add_parser("from-tableau")
    c.add_argument("file", help="tableau JSON file")
    _common_flags(c)
    c.set_defaults(func=_cmd_intervals)
    c = iv.add_parser("preimage")
    c.add_argument("file", help="interval-set JSON file")
    _common_flags(c)
    c.set_defaults(func=_cmd_intervals)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--max", type=int, default=None)
    _common_flags(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    try:
        code = args.func(args)
        # flush here, so that a reader closing early is met in this try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at interpreter exit
        # finds nothing left to write to the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, LimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
