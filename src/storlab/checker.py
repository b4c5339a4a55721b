"""Storage-operator checking by symbolic-constant runs.

A run feeds the candidate operator a seed constant at level n plus a fresh
probe variable, head-reduces, and keeps firing the family's transform on
the constant-headed head normal forms.  A run succeeds when the probe
surfaces applied to exactly one closed argument beta-equal to the numeral
n.  Lower-family runs characterize plain storage operators; upper-family
runs, parameterized by a successor, characterize S-storage operators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable

from .reduction import (
    DEFAULT_LIMITS,
    STAGE_HEAD,
    STAGE_MACRO,
    STAGE_NORM,
    FuelExhausted,
    HnfDecomposition,
    Limits,
    beta_equiv,
    decompose_hnf,
    head_reduce,
)
from .syntax import pretty
from .terms import App, Const, Family, Term, Var, app, is_closed_pure, mk_church

EXIT_PASS = 0
EXIT_REFUTED = 1
EXIT_FUEL = 2


class Verdict(str, Enum):
    """Every verdict storlab reports; the value is the string printed and
    serialized.

    A run ends in SUCCESS, FAIL or FUEL; an operator summary is ALL_PASS,
    FIRST_FAILURE or FUEL; a theorem level is PASS, FAIL, VACUOUS or
    UNKNOWN; a claim as a whole is PASS, REFUTED or FUEL.
    """

    SUCCESS = "Success"
    FAIL = "Fail"
    FUEL = "FuelExhausted"
    ALL_PASS = "AllPass"
    FIRST_FAILURE = "FirstFailureAt"
    PASS = "Pass"
    REFUTED = "Refuted"
    VACUOUS = "Vacuous"
    UNKNOWN = "Unknown"

    # a plain (str, Enum) member would print as "Verdict.PASS"
    __str__ = str.__str__
    __format__ = str.__format__

    @property
    def exit_code(self) -> int:
        """The CLI exit code of a command whose overall verdict this is."""
        if self in (Verdict.PASS, Verdict.ALL_PASS):
            return EXIT_PASS
        return EXIT_FUEL if self is Verdict.FUEL else EXIT_REFUTED

    @staticmethod
    def fold(levels: Iterable[Verdict]) -> Verdict:
        """A claim's verdict from its levels: REFUTED if any level is FAIL,
        else FUEL if any is undecided (UNKNOWN or FUEL), else PASS."""
        seen = set(levels)
        if Verdict.FAIL in seen:
            return Verdict.REFUTED
        if Verdict.UNKNOWN in seen or Verdict.FUEL in seen:
            return Verdict.FUEL
        return Verdict.PASS


SEED_ZERO = "SeedZero"
SEED_SUCC = "SeedSucc"
STORED_ZERO = "StoredZero"
STORED_SUCC = "StoredSucc"
FINAL = "Final"

PREFIX_NOT_EMPTY = "PrefixNotEmpty"
FOREIGN_HEAD = "ForeignHead"
F_WRONG_ARITY = "FWithWrongArity"
MALFORMED_HEAD = "MalformedHead"
WRONG_LEVEL = "WrongLevel"
TAU_NOT_CLOSED = "TauNotClosed"
TAU_NOT_N = "TauNotN"


class TransformError(Exception):
    """A head normal form the transform rules do not cover."""

    reason = MALFORMED_HEAD


class MalformedHeadError(TransformError):
    reason = MALFORMED_HEAD


class WrongLevelError(TransformError):
    reason = WRONG_LEVEL


def _head_const(v: HnfDecomposition, family: Family) -> Const:
    head = v.head
    if not (isinstance(head, Const) and head.family is family):
        raise ValueError(f"head is not a {family.value}-family constant")
    return head


def x_transform(v: HnfDecomposition, n: int) -> Term:
    """One lower-family move.

    Seed at level k+1 takes arguments a b c...: the next term is
    (a) x[k; a, b, c...] c...; seed at level 0 gives (b) c....  A stored
    constant replays its remembered a, b against the current arguments,
    which may be any number including none.
    """
    head = _head_const(v, Family.LOWER)
    if head.is_seed:
        if head.level != n:
            raise WrongLevelError(f"seed at level {head.level}, expected {n}")
        if len(v.args) < 2:
            raise MalformedHeadError("seed constant applied to fewer than two arguments")
        a, b, *cs = v.args
    else:
        a, b = head.payload[0], head.payload[1]
        cs = list(v.args)
    if head.level == 0:
        return app(b, *cs)
    stored = Const(Family.LOWER, head.level - 1, (a, b, *cs))
    return app(App(a, stored), *cs)


def X_transform(v: HnfDecomposition, successor: Term, n: int) -> Term:
    """One upper-family move.

    Level k+1 yields ((S) X[k; u, v, w...]) u v w... and level 0 yields
    (#0) u v w..., always from the current arguments, of which there must
    be at least two.
    """
    head = _head_const(v, Family.UPPER)
    if head.is_seed and head.level != n:
        raise WrongLevelError(f"seed at level {head.level}, expected {n}")
    if len(v.args) < 2:
        raise MalformedHeadError("constant applied to fewer than two arguments")
    if head.level == 0:
        return app(mk_church(0), *v.args)
    stored = Const(Family.UPPER, head.level - 1, tuple(v.args))
    return app(App(successor, stored), *v.args)


def _step_kind(head: Const) -> str:
    if head.is_seed:
        return SEED_ZERO if head.level == 0 else SEED_SUCC
    return STORED_ZERO if head.level == 0 else STORED_SUCC


@dataclass
class MacroStep:
    """One recorded macro step: u head-reduces to v in beta_steps, then
    transform names what the run did with v (None when the run stopped)."""

    u: Term
    v: Term
    beta_steps: int
    transform: str | None


@dataclass
class RunReport:
    family: Family
    n: int
    verdict: Verdict
    successor: Term | None = None
    reason: str | None = None
    tau: Term | None = None
    trace: list[MacroStep] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict == Verdict.SUCCESS


def run_check(term: Term, family: Family, n: int, successor: Term | None = None,
              limits: Limits = DEFAULT_LIMITS, probe: str = "f") -> RunReport:
    """Run the family's characterization machine on one level n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not is_closed_pure(term):
        raise ValueError("operator must be a closed constant-free term")
    if family is Family.UPPER:
        if successor is None:
            raise ValueError("upper-family runs need a successor")
        if not is_closed_pure(successor):
            raise ValueError("successor must be a closed constant-free term")
    elif successor is not None:
        raise ValueError("successor is only meaningful for upper-family runs")

    def report(verdict: Verdict, reason: str | None = None,
               tau: Term | None = None) -> RunReport:
        return RunReport(family, n, verdict, successor, reason, tau, trace)

    trace: list[MacroStep] = []
    u = app(term, Const(family, n), Var(probe))
    for _ in range(limits.macro_fuel):
        try:
            v, beta_steps = head_reduce(u, limits)
        except FuelExhausted as exc:
            trace.append(MacroStep(u, exc.partial, exc.steps, None))
            return report(Verdict.FUEL, STAGE_HEAD)
        decomposed = decompose_hnf(v)
        if decomposed.prefix:
            trace.append(MacroStep(u, v, beta_steps, None))
            return report(Verdict.FAIL, PREFIX_NOT_EMPTY)
        head = decomposed.head
        if isinstance(head, Var):
            if head.name != probe:
                trace.append(MacroStep(u, v, beta_steps, None))
                return report(Verdict.FAIL, FOREIGN_HEAD)
            if len(decomposed.args) != 1:
                trace.append(MacroStep(u, v, beta_steps, None))
                return report(Verdict.FAIL, F_WRONG_ARITY)
            trace.append(MacroStep(u, v, beta_steps, FINAL))
            tau = decomposed.args[0]
            if not is_closed_pure(tau):
                return report(Verdict.FAIL, TAU_NOT_CLOSED, tau)
            equal = beta_equiv(tau, mk_church(n), limits)
            if equal is None:
                return report(Verdict.FUEL, STAGE_NORM, tau)
            if not equal:
                return report(Verdict.FAIL, TAU_NOT_N, tau)
            return report(Verdict.SUCCESS, None, tau)
        assert isinstance(head, Const)
        if head.family is not family:
            trace.append(MacroStep(u, v, beta_steps, None))
            return report(Verdict.FAIL, FOREIGN_HEAD)
        try:
            if family is Family.LOWER:
                nxt = x_transform(decomposed, n)
            else:
                assert successor is not None
                nxt = X_transform(decomposed, successor, n)
        except TransformError as exc:
            trace.append(MacroStep(u, v, beta_steps, None))
            return report(Verdict.FAIL, exc.reason)
        trace.append(MacroStep(u, v, beta_steps, _step_kind(head)))
        u = nxt
    return report(Verdict.FUEL, STAGE_MACRO)


@dataclass
class OperatorSummary:
    family: Family
    n_max: int
    reports: list[RunReport]
    successor: Term | None = None

    @property
    def verdict(self) -> Verdict:
        for report in self.reports:
            if report.verdict == Verdict.FAIL:
                return Verdict.FIRST_FAILURE
            if report.verdict == Verdict.FUEL:
                return Verdict.FUEL
        return Verdict.ALL_PASS

    @property
    def at(self) -> int | None:
        for report in self.reports:
            if report.verdict != Verdict.SUCCESS:
                return report.n
        return None

    @property
    def all_pass(self) -> bool:
        return self.verdict == Verdict.ALL_PASS


def check_operator(term: Term, family: Family, n_max: int,
                   successor: Term | None = None,
                   limits: Limits = DEFAULT_LIMITS) -> OperatorSummary:
    """Run every level 0..n_max and summarize."""
    reports = [run_check(term, family, n, successor, limits) for n in range(n_max + 1)]
    return OperatorSummary(family, n_max, reports, successor)


def step_to_dict(step: MacroStep) -> dict[str, Any]:
    return {
        "u": pretty(step.u),
        "v": pretty(step.v),
        "beta_steps": step.beta_steps,
        "transform": step.transform,
    }


def report_to_dict(report: RunReport, include_trace: bool = True) -> dict[str, Any]:
    out: dict[str, Any] = {"family": report.family.value}
    if report.successor is not None:
        out["successor"] = pretty(report.successor)
    out["n"] = report.n
    out["verdict"] = report.verdict
    if report.reason is not None:
        out["reason"] = report.reason
    if report.tau is not None:
        out["tau"] = pretty(report.tau)
    if include_trace:
        out["steps"] = [step_to_dict(s) for s in report.trace]
    return out


def summary_to_dict(summary: OperatorSummary, include_trace: bool = True) -> dict[str, Any]:
    out: dict[str, Any] = {"family": summary.family.value}
    if summary.successor is not None:
        out["successor"] = pretty(summary.successor)
    out["n_max"] = summary.n_max
    out["verdict"] = summary.verdict
    if summary.at is not None:
        out["at"] = summary.at
    out["runs"] = [report_to_dict(r, include_trace) for r in summary.reports]
    return out


def to_json(payload: Any) -> str:
    """Render with a fixed key order so identical inputs give identical bytes."""
    return json.dumps(payload, indent=2, sort_keys=False)
