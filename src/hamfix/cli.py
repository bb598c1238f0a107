"""Command-line front end: classification runs, invariants, toric verification."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import golden
from .classify4 import classify4, enumerate_case3_tuples
from .classify6 import classify_all
from .errors import HamfixError
from .golden import FIELDS4, FIELDS6, render_tsv, report_row_from_tfd, report_row_from_tfd4
from .localization import chern_number
from .reduction import dh
from .toric import (
    CircleDirection,
    Polytope,
    fixed_faces,
    matched_degree,
    tfd_from_polytope,
    verify_corpus,
)


def render_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def _in_case(label: str, case: str) -> bool:
    return case == "all" or label.startswith(case + "-")


def _emit_dh(rows, directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for tfd in rows:
        lines = ["t\tDH"]
        for s in tfd.slices:
            lo, hi = s.interval
            t = lo
            while t <= hi:
                lines.append(f"{t}\t{dh(s, t)}")
                t += Fraction(1, 4)
        path = directory / f"dh_{tfd.label or 'row'}.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_classify(args) -> int:
    if args.emit_dh and args.dim != 6:
        print("--emit-dh needs --dim 6", file=sys.stderr)
        return 2
    if args.dim == 6:
        rows = [
            t for t in classify_all(strict=False) if _in_case(t.label, args.case)
        ]
        if args.emit_dh:
            _emit_dh(rows, args.emit_dh)
        computed = [report_row_from_tfd(t) for t in rows]
        reference, fields = golden.GOLDEN6, FIELDS6
    else:
        computed = [
            r for r in map(report_row_from_tfd4, classify4(strict=False))
            if _in_case(r["label"], args.case)
        ]
        reference, fields = golden.GOLDEN4, FIELDS4
    reference = [r for r in reference if _in_case(r["label"], args.case)]
    text = render_json(computed) if args.format == "json" else render_tsv(computed, fields)
    sys.stdout.write(text)
    if computed != reference:
        print("classification differs from the embedded reference table "
              "(run `hamfix tables diff`)", file=sys.stderr)
        return 1
    return 0


def cmd_chern(args) -> int:
    rows = classify_all(strict=False)
    for t in rows:
        if t.label == args.row:
            print(chern_number(t))
            return 0
    print(f"unknown row {args.row!r}", file=sys.stderr)
    return 2


def cmd_capacities(_args) -> int:
    rows = [report_row_from_tfd(t) for t in classify_all(strict=False)]
    sys.stdout.write(render_tsv(rows, ("label", "gromov_width", "hofer_zehnder")))
    return 0


def cmd_toric(args) -> int:
    if args.polytope and not args.xi:
        print("--polytope needs --xi a,b,c", file=sys.stderr)
        return 2
    if args.xi and not args.polytope:
        print("--xi needs --polytope FILE", file=sys.stderr)
        return 2
    if args.polytope and args.corpus:
        print("--corpus and --polytope exclude each other", file=sys.stderr)
        return 2
    try:
        if args.polytope:
            xi = CircleDirection(tuple(int(x) for x in args.xi.split(",")))
            poly = Polytope.load(args.polytope)
            rows = classify_all(strict=False)
            match = tfd_from_polytope(poly, xi, rows)
            degree = matched_degree(poly, match)
            for f in fixed_faces(poly, xi):
                print(f"level {f.level}: {f.kind} {f.vertices}")
            print(f"{poly.name}: matches {match.label}, anticanonical degree {degree}")
            return 0
        results = verify_corpus(args.corpus)
        for name, label, degree in results:
            print(f"{name}: {label} (degree {degree})")
        print(f"verified {len(results)} polytopes")
        return 0
    except HamfixError as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return 1


def cmd_tables(args) -> int:
    computed6 = [report_row_from_tfd(t) for t in classify_all(strict=False)]
    computed4 = [report_row_from_tfd4(r) for r in classify4(strict=False)]
    got = (
        "# dim 6\n" + render_tsv(computed6, FIELDS6)
        + "# dim 4\n" + render_tsv(computed4, FIELDS4)
    )
    want = "# dim 6\n" + golden.GOLDEN6_TSV + "# dim 4\n" + golden.GOLDEN4_TSV
    if got == want:
        print("tables match")
        return 0
    import difflib  # only a mismatch needs it; most runs skip its import
    diff = difflib.unified_diff(
        want.splitlines(keepends=True),
        got.splitlines(keepends=True),
        fromfile="reference",
        tofile="computed",
    )
    sys.stdout.writelines(diff)
    return 1


def cmd_tuples(_args) -> int:
    for t in sorted(enumerate_case3_tuples()):
        print(t)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamfix",
        description="Classification data for semifree Hamiltonian circle actions "
        "on monotone symplectic manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="enumerate fixed-point data rows")
    p_classify.add_argument("--dim", type=int, choices=(4, 6), required=True)
    p_classify.add_argument("--case", choices=("I", "II", "III", "all"), default="all")
    p_classify.add_argument("--format", choices=("json", "tsv"), default="tsv")
    p_classify.add_argument("--emit-dh", metavar="DIR", default=None,
                            help="write per-row (t, DH(t)) sample tables")
    p_classify.set_defaults(func=cmd_classify)

    p_chern = sub.add_parser("chern", help="anticanonical degree of one row")
    p_chern.add_argument("--row", required=True)
    p_chern.set_defaults(func=cmd_chern)

    p_cap = sub.add_parser("capacities", help="ball and oscillation capacities")
    p_cap.set_defaults(func=cmd_capacities)

    p_toric = sub.add_parser("toric", help="verify toric candidates")
    p_toric.add_argument("action", choices=("verify",))
    p_toric.add_argument("--polytope", default=None)
    p_toric.add_argument("--xi", default=None)
    p_toric.add_argument("--corpus", default=None)
    p_toric.set_defaults(func=cmd_toric)

    p_tables = sub.add_parser("tables", help="diff recomputed tables against golden")
    p_tables.add_argument("action", choices=("diff",))
    p_tables.set_defaults(func=cmd_tables)

    p_tuples = sub.add_parser("case3-tuples", help="dimension-four case III data")
    p_tuples.set_defaults(func=cmd_tuples)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except HamfixError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
