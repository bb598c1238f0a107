"""Command-line front end: classification runs, invariants, toric verification."""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import golden
from .classify4 import classify4, enumerate_case3_tuples
from .classify6 import classify_all
from .errors import HamfixError
from .golden import FIELDS4, FIELDS6, render_tsv, report_row_from_tfd, report_row_from_tfd4
from .localization import chern_number
from .toric import (
    CircleDirection,
    Polytope,
    fixed_faces,
    matched_degree,
    tfd_from_polytope,
    verify_corpus,
)


class UsageError(Exception):
    """A command line that `_parse` or a handler rejects: (command or None, reason)."""


def render_json(rows: list[dict]) -> str:
    import json  # only --format json needs it; most runs skip its import
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def _in_case(label: str, case: str) -> bool:
    return case == "all" or label.startswith(case + "-")


def _emit_dh(rows, directory):
    from fractions import Fraction
    from pathlib import Path
    from .reduction import dh
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
        raise UsageError("classify", "--emit-dh needs --dim 6")
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
            r for r in map(report_row_from_tfd4, classify4())
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
    for t in classify_all(strict=False):
        if t.label == args.row:
            print(chern_number(t))
            return 0
    raise UsageError("chern", f"unknown row {args.row!r}")


def cmd_capacities(_args) -> int:
    rows = [report_row_from_tfd(t) for t in classify_all(strict=False)]
    sys.stdout.write(render_tsv(rows, ("label", "gromov_width", "hofer_zehnder")))
    return 0


def _ascii_int(text: str) -> int:
    """ASCII digits with an optional leading sign; `int` also reads spaces,
    underscores and other scripts' digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def cmd_toric(args) -> int:
    if args.polytope and not args.xi:
        raise UsageError("toric", "--polytope needs --xi a,b,c")
    if args.xi and not args.polytope:
        raise UsageError("toric", "--xi needs --polytope FILE")
    if args.polytope and args.corpus:
        raise UsageError("toric", "--corpus and --polytope exclude each other")
    if args.polytope:
        try:
            xi = CircleDirection(tuple(_ascii_int(x) for x in args.xi.split(",")))
        except ValueError:
            raise UsageError("toric", f"--xi: {args.xi!r} is not a primitive direction a,b,c")
    try:
        if args.polytope:
            poly = Polytope.load(args.polytope)
            match = tfd_from_polytope(poly, xi)
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
    computed4 = [report_row_from_tfd4(r) for r in classify4()]
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


DESCRIPTION = (
    "Classification data for semifree Hamiltonian circle actions "
    "on monotone symplectic manifolds."
)
HELP = (
    "An option's value is the next word, even one that starts with '-', or\n"
    "follows '=' (--dim=6).  A unique prefix names an option (--fo json), and\n"
    "the last value given wins.  `hamfix COMMAND -h` prints one command's usage.\n"
)

# command -> (handler, summary, action choices, options, required options,
# defaults).  An option maps to its choices, or to the metavar of a free
# value; int choices read the value as an int.  An option neither given nor
# defaulted is None.
COMMANDS = {
    "classify": (
        cmd_classify, "enumerate fixed-point data rows", (),
        {"dim": (4, 6), "case": ("I", "II", "III", "all"), "format": ("json", "tsv"),
         "emit-dh": "DIR"},
        ("dim",), {"case": "all", "format": "tsv"},
    ),
    "chern": (cmd_chern, "anticanonical degree of one row", (), {"row": "LABEL"}, ("row",), {}),
    "capacities": (cmd_capacities, "ball and oscillation capacities", (), {}, (), {}),
    "toric": (
        cmd_toric, "verify toric candidates", ("verify",),
        {"polytope": "FILE", "xi": "A,B,C", "corpus": "DIR"}, (), {},
    ),
    "tables": (cmd_tables, "diff recomputed tables against golden", ("diff",), {}, (), {}),
    "case3-tuples": (cmd_tuples, "dimension-four case III data", (), {}, (), {}),
}


def _choices(values) -> str:
    return "{" + ",".join(map(str, values)) + "}"


def _usage(command=None) -> str:
    """The synopsis of one command, or of every command, with its summary."""
    lines = []
    for name in [command] if command else COMMANDS:
        _, summary, actions, options, required, _ = COMMANDS[name]
        words = ["hamfix", name] + [_choices(actions)] * bool(actions)
        for opt, spec in options.items():
            word = f"--{opt} {spec if isinstance(spec, str) else _choices(spec)}"
            words.append(word if opt in required else f"[{word}]")
        lines += [" ".join(words), f"    {summary}"]
    return "usage:\n" + "".join(f"  {line}\n" for line in lines)


def _parse(argv):
    """(command, options) read from argv by COMMANDS; options is None for -h.

    An option is `--name VALUE` or `--name=VALUE`, named by any unique prefix;
    the token after it is always its value, so a value may start with `-`,
    and the last value given wins.  The action may stand anywhere after the
    command, and after `--` every token is positional.
    """
    if not argv:
        raise UsageError(None, "no command given")
    command, tokens = argv[0], iter(argv[1:])
    if command == "-h" or len(command) > 2 and "--help".startswith(command):
        return None, None
    if command not in COMMANDS:
        what = "option" if command.startswith("-") else "command"
        raise UsageError(None, f"unknown {what} {command!r}")
    _, _, actions, options, required, defaults = COMMANDS[command]
    values = {opt: defaults.get(opt) for opt in options}
    positional, unknown = [], []  # an unknown option fails after a later -h
    for token in tokens:
        if token == "--":
            positional += tokens
        elif not token.startswith("-") or token == "-":
            positional.append(token)
        elif token == "-h":
            return command, None
        else:
            key, eq, value = token.partition("=")
            found = [o for o in ("help", *options) if key[2:] and f"--{o}".startswith(key)]
            if found == ["help"]:
                return command, None
            if len(found) != 1:
                unknown.append(key)
                continue
            opt, spec = found[0], options[found[0]]
            if not (value := value if eq else next(tokens, "")):  # `--opt=` gives none
                raise UsageError(command, f"--{opt} needs a value")
            if not isinstance(spec, str):
                try:
                    value = type(spec[0])(value)  # int choices read 06 as 6
                except ValueError:
                    pass
                if value not in spec:
                    raise UsageError(command, f"--{opt}: invalid choice {value!r} "
                                     f"(choose from {', '.join(map(str, spec))})")
            values[opt] = value
    if unknown:
        raise UsageError(command, f"unknown option {unknown[0]!r}")
    if actions:
        if not positional:
            raise UsageError(command, f"no action given (choose from {', '.join(actions)})")
        if (action := positional.pop(0)) not in actions:
            raise UsageError(command, f"invalid action {action!r} "
                             f"(choose from {', '.join(actions)})")
    if positional:
        raise UsageError(command, f"unexpected argument {positional[0]!r}")
    for opt in required:
        if values[opt] is None:
            raise UsageError(command, f"--{opt} is required")
    return command, SimpleNamespace(**{o.replace("-", "_"): v for o, v in values.items()})


def run(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(f"{DESCRIPTION}\n\n{_usage(command)}\n{HELP}")
            status = 0
        else:
            status = COMMANDS[command][0](args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except UsageError as err:  # from _parse or a handler
        command, reason = err.args
        where = f"hamfix {command}" if command else "hamfix"
        sys.stderr.write(f"{where}: {reason}\n{_usage(command)}")
        return 2
    except BrokenPipeError:
        # the reader left: point stdout at devnull so that the flush at exit
        # fails no more, and exit 1, as the `signal` module's docs advise
        import os
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
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
