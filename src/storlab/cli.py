"""Command-line front end.

Exit codes are part of the interface: 0 means the checked property holds,
1 means it was refuted, 2 means fuel ran out before a verdict, 3 means the
invocation or its terms were bad, 4 means an internal error (any other
exception, a RecursionError included) stopped the run before a verdict, or
the output was closed before the whole report was written.
`--json` swaps the human output for the serialized report; `--trace` adds
the recorded macro steps to either form.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Iterable, Iterator, NamedTuple, Protocol, Sequence

from .builtins import prelude
from .checker import check_operator, to_json
from .reduction import (
    DEFAULT_LIMITS,
    FuelExhausted,
    Limits,
    Verdict,
    check_successor,
    head_reduce,
    normalize,
)
from .syntax import ParseError, load_defs, parse, pretty
from .terms import Term, app, free_names, is_closed_pure
from .theorems import verify_theorem1_instance, verify_theorem2_instance, verify_theorem3

EXIT_PASS = 0
EXIT_REFUTED = 1
EXIT_FUEL = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


def _exit_code(verdict: Verdict) -> int:
    """The exit code of a command whose overall verdict this is."""
    if verdict in (Verdict.PASS, Verdict.ALL_PASS):
        return EXIT_PASS
    return EXIT_FUEL if verdict is Verdict.FUEL else EXIT_REFUTED


class Report(Protocol):
    """What every command returns: its verdict, which picks the exit code,
    and its JSON and text forms."""

    @property
    def verdict(self) -> Verdict: ...
    def to_dict(self) -> dict[str, Any]: ...
    def lines(self) -> Iterator[str]: ...


class TermReport(NamedTuple):
    """The term that parse, reduce or normalize arrives at; reduce adds its steps."""

    term: Term
    beta_steps: int | None = None
    verdict = Verdict.PASS

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"term": pretty(self.term)}
        if self.beta_steps is not None:
            out["beta_steps"] = self.beta_steps
        return out

    def lines(self) -> Iterator[str]:
        yield pretty(self.term)


def _row_status(expected: Verdict, actual: Verdict) -> Verdict:
    """PASS on a match; a row that starves is undecided, any other mismatch refutes."""
    return (Verdict.PASS if actual == expected else
            Verdict.FUEL if actual == Verdict.FUEL else Verdict.FAIL)


_ROW_MARK = {Verdict.PASS: "ok", Verdict.FUEL: "FUEL", Verdict.FAIL: "DEVIATION"}


class CorpusReport(NamedTuple):
    """Each builtin claim with its expected and its actual verdict."""

    n_max: int
    rows: tuple[tuple[str, Verdict, Verdict], ...]

    @property
    def verdict(self) -> Verdict:
        return Verdict.fold(_row_status(expected, actual) for _, expected, actual in self.rows)

    def to_dict(self) -> dict[str, Any]:
        return {"check": "corpus", "n_max": self.n_max, "verdict": self.verdict,
                "rows": [{"claim": claim, "expected": expected,
                          "actual": actual, "ok": actual == expected}
                         for claim, expected, actual in self.rows]}

    def lines(self) -> Iterator[str]:
        width = max(len(claim) for claim, _, _ in self.rows)
        for claim, expected, actual in self.rows:
            mark = _ROW_MARK[_row_status(expected, actual)]
            yield f"{claim:<{width}}  expected={expected:<10} actual={actual:<14} {mark}"
        yield f"corpus: {self.verdict}"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is taken by fuel exhaustion here
    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_env(args: argparse.Namespace) -> tuple[dict[str, Term], Term]:
    """Defs are first read against the default prelude so the successor flag
    may name one of them; unless the successor is the S that prelude was built
    with (defs may rebind S), everything is rebuilt with S bound to it."""
    env = prelude("S1")
    built_with = env["S"]
    _load_defs(args, env)
    successor = _resolve(args.succ, env, "successor")
    if successor is not built_with:
        env = _load_defs(args, prelude(successor))
    return env, successor


def _load_defs(args: argparse.Namespace, env: dict[str, Term]) -> dict[str, Term]:
    for path in args.defs or ():
        try:
            env.update(load_defs(path, env))
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read defs file: {exc}") from exc
    return env


def _resolve(ref: str, env: dict[str, Term], what: str | None = None) -> Term:
    """The term ref names in env, else ref parsed; with what, it must be closed and pure."""
    term = env.get(ref)
    if term is None:
        term = parse(ref, env)
    if what is not None:
        loose = sorted(free_names(term))
        if loose:
            raise UsageError(f"{what} {ref!r} has unbound names: {', '.join(loose)}")
        if not is_closed_pure(term):
            raise UsageError(f"{what} {ref!r} contains symbolic constants")
    return term


def _operand(args: argparse.Namespace, what: str | None = None) -> tuple[Term, Term]:
    """The TERM operand, resolved as _resolve does with what, and the
    successor, both in the environment that --defs and --succ build."""
    env, successor = _build_env(args)
    return _resolve(args.term, env, what), successor


def _emit(report: Report, args: argparse.Namespace) -> int:
    """Print the report as JSON or as text lines; its verdict is the exit code."""
    if args.json:
        _write_json(report.to_dict())
    else:
        for line in report.lines():
            print(line)
    return _exit_code(report.verdict)


def _write_json(payload: dict[str, Any]) -> None:
    """Print to_json(payload) a piece at a time, with the same bytes: each
    top-level value, or for a list each of its items, is encoded by to_json
    with the pad of its depth in the whole document ("  " for a value, "    "
    for an item), written, then dropped.  A list may be an iterable that
    builds its items as it goes, such as a summary's runs."""
    write = sys.stdout.write
    opening = "{"
    for key, value in payload.items():
        write(f"{opening}\n  {to_json(key)}: ")
        opening = ","
        if isinstance(value, Iterable) and not isinstance(value, (str, dict)):
            bracket = "["
            for item in value:
                write(f"{bracket}\n    {to_json(item, '    ')}")
                bracket = ","
            write("[]" if bracket == "[" else "\n  ]")
        else:
            write(to_json(value, "  "))
    write("{}\n" if opening == "{" else "\n}\n")


def cmd_parse(args: argparse.Namespace, limits: Limits) -> Report:
    return TermReport(_operand(args)[0])


def cmd_reduce(args: argparse.Namespace, limits: Limits) -> Report:
    spine, beta_steps = head_reduce(_operand(args)[0], limits)
    return TermReport(app(*spine), beta_steps)


def cmd_normalize(args: argparse.Namespace, limits: Limits) -> Report:
    return TermReport(normalize(_operand(args)[0], limits))


def cmd_check_successor(args: argparse.Namespace, limits: Limits) -> Report:
    return check_successor(_operand(args, "successor")[0], args.k_max, limits)


def cmd_check_operator(args: argparse.Namespace, limits: Limits) -> Report:
    """check-storage and check-s-storage.  Only check-s-storage runs with the
    successor --succ names; check-storage reads it for the prelude's S only."""
    term, successor = _operand(args, "operator")
    if args.command == "check-storage":
        successor = None
    return check_operator(term, args.n_max, successor, limits, args.trace)


def cmd_theorem1(args: argparse.Namespace, limits: Limits) -> Report:
    return verify_theorem1_instance(*_operand(args, "operator"), args.n_max, limits)


def cmd_theorem2(args: argparse.Namespace, limits: Limits) -> Report:
    return verify_theorem2_instance(_operand(args, "operator")[0], args.n_max, limits)


def cmd_theorem3(args: argparse.Namespace, limits: Limits) -> Report:
    return verify_theorem3(args.n_max, limits)


def cmd_corpus(args: argparse.Namespace, limits: Limits) -> Report:
    """The whole battery on builtins, each row against its expected outcome.

    Theorem 2 runs every level of an operator's storage sweep and of its
    sweep with S1, so the storage and s-storage S1 rows sweep its levels'
    run verdicts (Verdict.sweep) rather than running them again.
    """
    env1 = prelude("S1")
    env2 = prelude("S2")
    n_max = args.n_max
    theorem2: dict[str, Verdict] = {}
    swept: dict[tuple[str, str], Verdict] = {}  # (operator, "x" or "S1") -> sweep verdict
    for name, env in (("T1", env1), ("T2", env1), ("T3", env2)):
        report = verify_theorem2_instance(env[name], n_max, limits)
        theorem2[name] = report.verdict
        swept[name, "x"] = Verdict.sweep(c.lower for c in report.checks)
        swept[name, "S1"] = Verdict.sweep(c.upper for c in report.checks)

    rows = [(f"successor {name}", Verdict.PASS, check_successor(env1[name], 10, limits).verdict)
            for name in ("S1", "S2")]
    rows += [(f"storage {name}", Verdict.ALL_PASS, swept[name, "x"]) for name in ("T1", "T2")]
    for name in ("T1", "T2"):
        rows.append((f"s-storage {name} S1", Verdict.ALL_PASS, swept[name, "S1"]))
        summary = check_operator(env2[name], n_max, env2["S2"], limits)
        rows.append((f"s-storage {name} S2", Verdict.ALL_PASS, summary.verdict))
    rows += [(f"theorem2 {name}", Verdict.PASS, theorem2[name]) for name in ("T1", "T2", "T3")]
    rows.append(("theorem3", Verdict.PASS, verify_theorem3(n_max, limits).verdict))
    return CorpusReport(n_max, tuple(rows))


def _bound(text: str) -> int:
    """argparse type of --n-max and --k-max: a level bound is never negative.
    int() refuses more digits than sys.get_int_max_str_digits(); such a
    bound is reported by its length, not echoed."""
    try:
        value = int(text)
    except ValueError:
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        if digits.isascii() and digits.isdigit():  # refused for its length alone
            raise argparse.ArgumentTypeError(f"number too long: {len(digits)} digits") from None
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


# Every flag once; each subcommand takes the subset it reads, in this order.
_FLAGS: dict[str, dict[str, Any]] = {
    "--succ": dict(default="S1", metavar="NAME",
                   help="successor bound to S in the prelude (default S1)"),
    "--n-max": dict(type=_bound, default=8, metavar="N",
                    help="check levels 0..N (default 8)"),
    "--head-fuel": dict(type=int, default=DEFAULT_LIMITS.head_fuel, metavar="N"),
    "--macro-fuel": dict(type=int, default=DEFAULT_LIMITS.macro_fuel, metavar="N"),
    "--norm-fuel": dict(type=int, default=DEFAULT_LIMITS.norm_fuel, metavar="N"),
    "--defs": dict(action="append", metavar="FILE",
                   help="definition file, repeatable, later files see earlier names"),
    "--json": dict(action="store_true", help="emit the JSON report"),
    "--trace": dict(action="store_true", help="include recorded macro steps"),
    "--k-max": dict(type=_bound, default=10, metavar="K"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="storlab",
                     description="Head-reduction laboratory for storage operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func: Any, help_text: str, flags: str, term: str | None = None) -> None:
        p = sub.add_parser(name, help=help_text)
        for flag in sorted(flags.split(), key=list(_FLAGS).index):
            p.add_argument(flag, **_FLAGS[flag])
        if term is not None:
            p.add_argument("term", metavar="TERM", help=term)
        p.set_defaults(func=func.__name__)

    env = "--succ --defs --json"
    fuel = "--head-fuel --macro-fuel --norm-fuel"
    levels = f"{env} --n-max {fuel}"
    add("parse", cmd_parse, "parse a term and print its canonical form", env,
        term="term literal or prelude/defs name")
    add("reduce", cmd_reduce, "head-reduce to head normal form", f"{env} --head-fuel",
        term="term literal or name")
    add("normalize", cmd_normalize, "reduce to beta-normal form", f"{env} --norm-fuel",
        term="term literal or name")
    add("check-successor", cmd_check_successor,
        "check (S)#k is beta-equivalent to #k+1 for k up to k-max",
        f"{env} --norm-fuel --k-max", term="candidate successor")
    add("check-storage", cmd_check_operator,
        "run the plain-constant characterization at each level", f"{levels} --trace",
        term="candidate storage operator")
    add("check-s-storage", cmd_check_operator,
        "run the successor-driven characterization at each level", f"{levels} --trace",
        term="candidate operator")
    add("theorem1", cmd_theorem1,
        "storage success must imply S-storage success, with the delayed-numeral check",
        levels, term="operator")
    add("theorem2", cmd_theorem2,
        "storage and S1-storage verdicts must coincide, witnesses and traces aligned",
        levels, term="operator")
    add("theorem3", cmd_theorem3,
        "builtin T3 with S2: S-storage passes while storage fails from level 1",
        f"--n-max {fuel} --json")
    add("corpus", cmd_corpus, "run every builtin claim against its expected outcome",
        f"--n-max {fuel} --json")
    return parser


# Built once, at import.  main looks up each command's cmd_* by name when it
# runs, so a cmd_* replaced after import is the one called.
_PARSER = _build_parser()


def _limits(args: argparse.Namespace) -> Limits:
    """The fuel flags' limits; a subcommand without a fuel flag runs on its default."""
    try:
        return Limits(**{name: value for name, value in vars(args).items()
                         if name.endswith("_fuel")})
    except ValueError as exc:  # a fuel below 1
        raise UsageError(str(exc)) from exc


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        try:
            code = _emit(globals()[args.func](args, _limits(args)), args)
        except FuelExhausted as exc:  # from any command: undecided, never a crash
            code = _emit(exc, args)
        sys.stdout.flush()  # a reader gone away shows here, not at interpreter exit
        return code
    except ParseError as exc:
        print(f"storlab: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"storlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # the reader went away: no report was delivered
        sys.stdout = None  # its unwritten buffer would fail again at exit, as code 120
        print("storlab: output closed before the report was written", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # RecursionError included: a crash is no verdict
        print(f"storlab: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
