"""Command-line front end.

Exit codes are part of the interface: 0 means the checked property holds,
1 means it was refuted, 2 means fuel ran out before a verdict, 3 means the
invocation or its terms were bad.  `--json` swaps the human output for the
serialized report; `--trace` adds the recorded macro steps to either form.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Sequence

from .builtins import prelude
from .checker import (
    EXIT_PASS,
    OperatorSummary,
    RunReport,
    Verdict,
    check_operator,
    summary_to_dict,
    to_json,
)
from .reduction import (
    DEFAULT_LIMITS,
    FuelExhausted,
    Limits,
    check_successor,
    head_reduce,
    normalize,
)
from .syntax import ParseError, load_defs, pretty, parse
from .terms import Family, Term, free_names, iter_consts
from .theorems import (
    Theorem1Report,
    Theorem2Report,
    verify_theorem1_instance,
    verify_theorem2_instance,
    verify_theorem3,
)

EXIT_USAGE = 3

# check_successor's per-k answer as a level verdict
_SUCCESSOR_LEVEL = {True: Verdict.PASS, False: Verdict.FAIL, None: Verdict.UNKNOWN}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is taken by fuel exhaustion here
    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_env(args: argparse.Namespace) -> tuple[dict[str, Term], Term]:
    """Two passes: defs are first read against the default prelude so the
    successor flag may name one of them, then everything is rebuilt with S
    bound to the chosen successor."""
    env = _env_pass(args, "S1")
    successor = _resolve(args.succ, env, closed=True, what="successor")
    return _env_pass(args, successor), successor


def _env_pass(args: argparse.Namespace, successor: str | Term) -> dict[str, Term]:
    env = prelude(successor)
    for path in args.defs or ():
        try:
            bindings = load_defs(path, env)
        except OSError as exc:
            raise UsageError(f"cannot read defs file: {exc}") from exc
        for binding in bindings:
            env[binding.name] = binding.value
    return env


def _resolve(ref: str, env: dict[str, Term], closed: bool = False,
             what: str = "term") -> Term:
    term = env.get(ref)
    if term is None:
        term = parse(ref, env)
    if closed:
        loose = sorted(free_names(term))
        if loose:
            raise UsageError(f"{what} {ref!r} has unbound names: {', '.join(loose)}")
        if any(True for _ in iter_consts(term)):
            raise UsageError(f"{what} {ref!r} contains symbolic constants")
    return term


def _limits(args: argparse.Namespace) -> Limits:
    defaults = DEFAULT_LIMITS
    return Limits(
        head_fuel=defaults.head_fuel if args.head_fuel is None else args.head_fuel,
        macro_fuel=defaults.macro_fuel if args.macro_fuel is None else args.macro_fuel,
        norm_fuel=defaults.norm_fuel if args.norm_fuel is None else args.norm_fuel,
    )


def _print_trace(report: RunReport) -> None:
    steps = report.trace
    for i, step in enumerate(steps):
        line = f"{pretty(step.u)}  ≻({step.beta_steps})  {pretty(step.v)}"
        if step.transform is not None:
            line += f"  —{step.transform}→"
            if i + 1 < len(steps):
                line += f"  {pretty(steps[i + 1].u)}"
        print(line)


def _emit_summary(summary: OperatorSummary, args: argparse.Namespace) -> int:
    if args.json:
        print(to_json(summary_to_dict(summary, include_trace=args.trace)))
        return summary.verdict.exit_code
    for report in summary.reports:
        line = f"n={report.n}: {report.verdict}"
        if report.reason is not None:
            line += f" ({report.reason})"
        if report.tau is not None:
            line += f"  tau = {pretty(report.tau)}"
        print(line)
        if args.trace:
            _print_trace(report)
    tail = f"verdict: {summary.verdict}"
    if summary.at is not None:
        tail += f" (n={summary.at})"
    print(tail)
    return summary.verdict.exit_code


def _emit_fuel(exc: FuelExhausted, args: argparse.Namespace) -> int:
    if args.json:
        print(to_json({"verdict": Verdict.FUEL, "stage": exc.stage,
                       "beta_steps": exc.steps, "partial": pretty(exc.partial)}))
    else:
        print(f"fuel exhausted after {exc.steps} steps: {pretty(exc.partial)}")
    return Verdict.FUEL.exit_code


def _emit_levels(report: Theorem1Report | Theorem2Report, args: argparse.Namespace,
                 upper: str, detail: Callable[[Any], str]) -> int:
    """A theorem 1 or 2 report: one row per level, then the verdict."""
    if args.json:
        print(to_json(report.to_dict()))
    else:
        for check in report.checks:
            print(f"n={check.n}: lower={check.lower.verdict} {upper}={check.upper.verdict}"
                  f"{detail(check)}  -> {check.status}")
        print(f"verdict: {report.verdict}")
    return report.verdict.exit_code


def cmd_parse(args: argparse.Namespace, limits: Limits) -> int:
    env, _ = _build_env(args)
    term = _resolve(args.term, env)
    if args.json:
        print(to_json({"term": pretty(term)}))
    else:
        print(pretty(term))
    return EXIT_PASS


def cmd_reduce(args: argparse.Namespace, limits: Limits) -> int:
    env, _ = _build_env(args)
    term = _resolve(args.term, env)
    try:
        result, steps = head_reduce(term, limits)
    except FuelExhausted as exc:
        return _emit_fuel(exc, args)
    if args.json:
        print(to_json({"term": pretty(result), "beta_steps": steps}))
    else:
        print(pretty(result))
    return EXIT_PASS


def cmd_normalize(args: argparse.Namespace, limits: Limits) -> int:
    env, _ = _build_env(args)
    term = _resolve(args.term, env)
    try:
        result = normalize(term, limits)
    except FuelExhausted as exc:
        return _emit_fuel(exc, args)
    if args.json:
        print(to_json({"term": pretty(result)}))
    else:
        print(pretty(result))
    return EXIT_PASS


def cmd_check_successor(args: argparse.Namespace, limits: Limits) -> int:
    env, _ = _build_env(args)
    term = _resolve(args.term, env, closed=True, what="successor")
    report = check_successor(term, args.k_max, limits)
    verdict = Verdict.fold(_SUCCESSOR_LEVEL[r] for r in report.results)
    if args.json:
        print(to_json({"check": "successor", "term": pretty(term),
                       "k_max": report.k_max, "verdict": verdict,
                       "results": list(report.results)}))
    else:
        for k, result in enumerate(report.results):
            word = {True: "ok", False: "FAILED", None: "unknown (fuel)"}[result]
            print(f"k={k}: {word}")
        print(f"verdict: {verdict}")
    return verdict.exit_code


def cmd_check_operator(args: argparse.Namespace, limits: Limits) -> int:
    """check-storage and check-s-storage; the subcommand sets args.family.
    check-storage still reads --succ, for the prelude's S only."""
    env, successor = _build_env(args)
    term = _resolve(args.term, env, closed=True, what="operator")
    if args.family is Family.LOWER:
        successor = None
    summary = check_operator(term, args.family, args.n_max, successor, limits)
    return _emit_summary(summary, args)


def cmd_theorem1(args: argparse.Namespace, limits: Limits) -> int:
    env, successor = _build_env(args)
    term = _resolve(args.term, env, closed=True, what="operator")
    report = verify_theorem1_instance(term, successor, args.n_max, limits)
    return _emit_levels(report, args, "upper", lambda check: (
        "" if check.hat_status is None else f" sigma-hat={check.hat_status}"))


def cmd_theorem2(args: argparse.Namespace, limits: Limits) -> int:
    env, _ = _build_env(args)
    term = _resolve(args.term, env, closed=True, what="operator")
    report = verify_theorem2_instance(term, args.n_max, limits)
    return _emit_levels(report, args, "upper[S1]", lambda check: (
        "" if check.tau_match is None
        else f" tau-match={check.tau_match} delta-match={check.delta_match}"))


def cmd_theorem3(args: argparse.Namespace, limits: Limits) -> int:
    report = verify_theorem3(args.n_max, limits)
    if args.json:
        print(to_json(report.to_dict()))
    else:
        print(f"X-family with S2: {report.upper_verdict}"
              f" (tau beta-equivalent: {report.upper_tau_ok})")
        line = f"x-family: {report.lower_verdict}"
        if report.lower_at is not None:
            line += (f" (n={report.lower_at},"
                     f" failures as expected: {report.lower_failures_ok})")
        print(line)
        print(f"verdict: {report.verdict}")
    return report.verdict.exit_code


def cmd_corpus(args: argparse.Namespace, limits: Limits) -> int:
    """The whole battery on builtins, each row against its expected outcome."""
    env1 = prelude("S1")
    env2 = prelude("S2")
    n_max = args.n_max
    rows: list[tuple[str, Verdict, Verdict]] = []

    for name in ("S1", "S2"):
        report = check_successor(env1[name], 10, limits)
        verdict = Verdict.fold(_SUCCESSOR_LEVEL[r] for r in report.results)
        rows.append((f"successor {name}", Verdict.PASS, verdict))
    for name in ("T1", "T2"):
        summary = check_operator(env1[name], Family.LOWER, n_max, limits=limits)
        rows.append((f"storage {name}", Verdict.ALL_PASS, summary.verdict))
    for name in ("T1", "T2"):
        for sname, env in (("S1", env1), ("S2", env2)):
            summary = check_operator(env[name], Family.UPPER, n_max,
                                     successor=env[sname], limits=limits)
            rows.append((f"s-storage {name} {sname}", Verdict.ALL_PASS, summary.verdict))
    for name, env in (("T1", env1), ("T2", env1), ("T3", env2)):
        report = verify_theorem2_instance(env[name], n_max, limits)
        rows.append((f"theorem2 {name}", Verdict.PASS, report.verdict))
    rows.append(("theorem3", Verdict.PASS, verify_theorem3(n_max, limits).verdict))

    # a row that starves is undecided; any other mismatch refutes
    verdict = Verdict.fold(
        Verdict.PASS if actual == expected else
        Verdict.FUEL if actual == Verdict.FUEL else Verdict.FAIL
        for _, expected, actual in rows)

    if args.json:
        payload = {"check": "corpus", "n_max": n_max, "verdict": verdict,
                   "rows": [{"claim": claim, "expected": expected,
                             "actual": actual, "ok": actual == expected}
                            for claim, expected, actual in rows]}
        print(to_json(payload))
    else:
        width = max(len(claim) for claim, _, _ in rows)
        for claim, expected, actual in rows:
            mark = "ok" if actual == expected else (
                "FUEL" if actual == Verdict.FUEL else "DEVIATION")
            print(f"{claim:<{width}}  expected={expected:<10} actual={actual:<14} {mark}")
        print(f"corpus: {verdict}")
    return verdict.exit_code


def _bound(text: str) -> int:
    """argparse type of --n-max and --k-max: a level bound is never negative."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--succ", default="S1", metavar="NAME",
                        help="successor bound to S in the prelude (default S1)")
    common.add_argument("--n-max", type=_bound, default=8, metavar="N",
                        help="check levels 0..N (default 8)")
    common.add_argument("--head-fuel", type=int, default=None, metavar="N")
    common.add_argument("--macro-fuel", type=int, default=None, metavar="N")
    common.add_argument("--norm-fuel", type=int, default=None, metavar="N")
    common.add_argument("--defs", action="append", metavar="FILE",
                        help="definition file, repeatable, later files see earlier names")
    common.add_argument("--json", action="store_true", help="emit the JSON report")
    common.add_argument("--trace", action="store_true",
                        help="include recorded macro steps")

    parser = _Parser(prog="storlab",
                     description="Head-reduction laboratory for storage operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func: Any, help_text: str, term: str | None = None,
            **defaults: Any) -> Any:
        p = sub.add_parser(name, parents=[common], help=help_text)
        if term is not None:
            p.add_argument("term", metavar="TERM", help=term)
        p.set_defaults(func=func, **defaults)
        return p

    add("parse", cmd_parse, "parse a term and print its canonical form",
        term="term literal or prelude/defs name")
    add("reduce", cmd_reduce, "head-reduce to head normal form",
        term="term literal or name")
    add("normalize", cmd_normalize, "reduce to beta-normal form",
        term="term literal or name")
    p = add("check-successor", cmd_check_successor,
            "check (S)#k is beta-equivalent to #k+1 for k up to k-max",
            term="candidate successor")
    p.add_argument("--k-max", type=_bound, default=10, metavar="K")
    add("check-storage", cmd_check_operator,
        "run the plain-constant characterization at each level",
        term="candidate storage operator", family=Family.LOWER)
    add("check-s-storage", cmd_check_operator,
        "run the successor-driven characterization at each level",
        term="candidate operator", family=Family.UPPER)
    add("theorem1", cmd_theorem1,
        "storage success must imply S-storage success, with the delayed-numeral check",
        term="operator")
    add("theorem2", cmd_theorem2,
        "storage and S1-storage verdicts must coincide, witnesses and traces aligned",
        term="operator")
    add("theorem3", cmd_theorem3,
        "builtin T3 with S2: S-storage passes while storage fails from level 1")
    add("corpus", cmd_corpus, "run every builtin claim against its expected outcome")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        limits = _limits(args)
        return args.func(args, limits)
    except UsageError as exc:
        print(f"storlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"storlab: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"storlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
