"""Storage-operator checking by symbolic-constant runs.

A run feeds the candidate operator a seed constant at level n plus the
probe variable f, head-reduces, and keeps firing the family's transform on
the constant-headed head normal forms.  A run succeeds when the probe
surfaces applied to exactly one closed argument beta-equal to the numeral
n.  A run without a successor is lower-family and characterizes plain
storage operators; a run given a successor S is upper-family and
characterizes S-storage operators.
"""

from __future__ import annotations

import json
from functools import reduce
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Iterable, Iterator

from .reduction import (
    DEFAULT_LIMITS,
    STAGE_HEAD,
    STAGE_MACRO,
    STAGE_NORM,
    FuelExhausted,
    Limits,
    Verdict,
    head_reduce,
    is_numeral,
)
from .syntax import pretty, printer
from .terms import App, Const, Family, Lam, Term, Var, is_closed_pure, mk_church

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

PROBE = "f"  # an operator is closed, so the probe is fresh whatever its name
_ZERO = mk_church(0)


class TransformError(ValueError):
    """A head normal form the transform rules do not cover; reason names
    the rule it breaks (FOREIGN_HEAD, MALFORMED_HEAD or WRONG_LEVEL)."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def _head_const(head: Term, family: Family) -> Const:
    if not (isinstance(head, Const) and head.family is family):
        raise TransformError(FOREIGN_HEAD, f"head is not a {family.value}-family constant")
    return head


def x_transform(head: Term, args: list[Term], n: int) -> list[Term]:
    """One lower-family move from the head normal form (head) args...: the
    next term as a list, its head first, then its arguments.

    Seed at level k+1 takes arguments a b c...: the next term is
    (a) x[k; a, b, c...] c...; seed at level 0 gives (b) c....  A stored
    constant replays its remembered a, b against the current arguments,
    which may be any number including none.
    """
    head = _head_const(head, Family.LOWER)
    if head.is_seed:
        if head.level != n:
            raise TransformError(WRONG_LEVEL, f"seed at level {head.level}, expected {n}")
        if len(args) < 2:
            raise TransformError(MALFORMED_HEAD,
                                 "seed constant applied to fewer than two arguments")
        a, b, *cs = args
    else:
        a, b = head.payload[0], head.payload[1]
        cs = args
    if head.level == 0:
        return [b, *cs]
    return [a, Const(Family.LOWER, head.level - 1, (a, b, *cs)), *cs]


def X_transform(head: Term, args: list[Term], successor: Term, n: int) -> list[Term]:
    """One upper-family move, as a list like x_transform's.

    Level k+1 yields ((S) X[k; u, v, w...]) u v w... and level 0 yields
    (#0) u v w..., always from the current arguments, of which there must
    be at least two.
    """
    head = _head_const(head, Family.UPPER)
    if head.is_seed and head.level != n:
        raise TransformError(WRONG_LEVEL, f"seed at level {head.level}, expected {n}")
    if len(args) < 2:
        raise TransformError(MALFORMED_HEAD, "constant applied to fewer than two arguments")
    if head.level == 0:
        return [_ZERO, *args]
    return [successor, Const(Family.UPPER, head.level - 1, tuple(args)), *args]


def _step_kind(head: Const) -> str:
    if head.is_seed:
        return SEED_ZERO if head.level == 0 else SEED_SUCC
    return STORED_ZERO if head.level == 0 else STORED_SUCC


class MacroStep:
    """One recorded macro step: u head-reduces to v in beta_steps, then
    transform names what the run did with v (None when the run stopped).

    u and v may each be given as a list, its head first, then its
    arguments: the term is then built the first time it is read, and kept,
    so that every read gives the same nodes.  A step whose u and v are the
    same list builds that term once, for both.
    """

    __slots__ = ("_u", "_v", "beta_steps", "transform")

    def __init__(self, u: Term | list[Term], v: Term | list[Term], beta_steps: int,
                 transform: str | None):
        self._u = u
        self._v = v
        self.beta_steps = beta_steps
        self.transform = transform

    def _build(self, spine: list[Term]) -> Term:
        # not terms.app: bench/layers.py reads u and v after its traced pass ends
        term = reduce(App, spine)
        if self._u is spine:
            self._u = term
        if self._v is spine:
            self._v = term
        return term

    @property
    def u(self) -> Term:
        u = self._u
        return self._build(u) if type(u) is list else u

    @property
    def v(self) -> Term:
        v = self._v
        return self._build(v) if type(v) is list else v

    def __repr__(self) -> str:
        return (f"MacroStep(u={self.u!r}, v={self.v!r}, beta_steps={self.beta_steps!r}, "
                f"transform={self.transform!r})")


class RunReport:
    """One run of run_check: its verdict at level n, why it failed or starved
    (reason), the tau it stored, and its macro steps.  Two reports are equal
    only when they are the same object."""

    __slots__ = ("family", "n", "verdict", "successor", "reason", "tau", "trace")

    def __init__(self, family: Family, n: int, verdict: Verdict,
                 successor: Term | None = None, reason: str | None = None,
                 tau: Term | None = None, trace: list[MacroStep] | None = None):
        self.family = family
        self.n = n
        self.verdict = verdict
        self.successor = successor
        self.reason = reason
        self.tau = tau
        self.trace = [] if trace is None else trace

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"RunReport({fields})"

    def to_dict(self, trace: bool = False) -> dict[str, Any]:
        show = printer()  # one per report: its steps share most of their subterms
        out: dict[str, Any] = {"family": self.family.value}
        if self.successor is not None:
            out["successor"] = show(self.successor)
        out["n"] = self.n
        out["verdict"] = self.verdict
        if self.reason is not None:
            out["reason"] = self.reason
        if self.tau is not None:
            out["tau"] = show(self.tau)
        if trace:
            out["steps"] = [{"u": show(step.u), "v": show(step.v),
                             "beta_steps": step.beta_steps, "transform": step.transform}
                            for step in self.trace]
        return out

    def lines(self, trace: bool = False) -> Iterator[str]:
        """The verdict line, then with trace one line per macro step:
        u, its steps to v, and the transform into the next u."""
        show = printer()  # one per report, as in to_dict
        line = f"n={self.n}: {self.verdict}"
        if self.reason is not None:
            line += f" ({self.reason})"
        if self.tau is not None:
            line += f"  tau = {show(self.tau)}"
        yield line
        steps = self.trace if trace else []
        for i, step in enumerate(steps):
            line = f"{show(step.u)}  ≻({step.beta_steps})  {show(step.v)}"
            if step.transform is not None:
                line += f"  —{step.transform}→"
                if i + 1 < len(steps):
                    line += f"  {show(steps[i + 1].u)}"
            yield line


def _check_operands(term: Term, successor: Term | None) -> None:
    if not is_closed_pure(term):
        raise ValueError("operator must be a closed constant-free term")
    if successor is not None and not is_closed_pure(successor):
        raise ValueError("successor must be a closed constant-free term")


def run_check(term: Term, n: int, successor: Term | None = None,
              limits: Limits = DEFAULT_LIMITS, *, checked: bool = False) -> RunReport:
    """Run a characterization machine on one level n: macro steps from
    (term) x[n] f, or (term) X[n] f when given a successor, until one ends
    the run or macro fuel runs out.

    checked says that the operator and the successor were already found
    closed and constant-free, as check_operator() does once for all its levels.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not checked:
        _check_operands(term, successor)
    family = Family.LOWER if successor is None else Family.UPPER
    trace: list[MacroStep] = []
    u = [term, Const(family, n), Var(PROBE)]
    for _ in range(limits.macro_fuel):
        step, nxt = _macro_step(u, n, successor, limits)
        trace.append(step)
        if type(nxt) is tuple:
            verdict, reason, tau = nxt
            return RunReport(family, n, verdict, successor, reason, tau, trace)
        u = nxt
    return RunReport(family, n, Verdict.FUEL, successor, STAGE_MACRO, trace=trace)


def _macro_step(u: list[Term], n: int, successor: Term | None, limits: Limits
                ) -> tuple[MacroStep, list[Term] | tuple[Verdict, str | None, Term | None]]:
    """One macro step from the state u, given as a list, its head first: the
    recorded step, and either the next state as such a list or the run's end
    as (verdict, reason, tau).

    The head normal form either ends the run, at the probe applied to a
    closed tau beta-equal to #n, or goes to the transform (X_transform when
    given a successor, else x_transform), which fails any head that is not
    one of its family's constants.  So a state that holds no constant ends
    the run at its first head normal form.
    """
    try:
        v, beta_steps = head_reduce(u[0], limits, u[1:])
    except FuelExhausted as exc:
        return MacroStep(u, exc.partial, exc.steps, None), (Verdict.FUEL, STAGE_HEAD, None)
    if beta_steps == 0:
        u = v  # the state is already in head normal form: keep one spine
    head, args = v[0], v[1:]
    if type(head) is Lam:
        return MacroStep(u, v, beta_steps, None), (Verdict.FAIL, PREFIX_NOT_EMPTY, None)
    if type(head) is Var and head.name == PROBE:
        if len(args) != 1:
            return MacroStep(u, v, beta_steps, None), (Verdict.FAIL, F_WRONG_ARITY, None)
        step, tau = MacroStep(u, v, beta_steps, FINAL), args[0]
        if not is_closed_pure(tau):
            return step, (Verdict.FAIL, TAU_NOT_CLOSED, tau)
        equal = is_numeral(tau, n, limits)
        if equal is None:
            return step, (Verdict.FUEL, STAGE_NORM, tau)
        if not equal:
            return step, (Verdict.FAIL, TAU_NOT_N, tau)
        return step, (Verdict.SUCCESS, None, tau)
    try:
        if successor is None:
            nxt = x_transform(head, args, n)
        else:
            nxt = X_transform(head, args, successor, n)
    except TransformError as exc:
        return MacroStep(u, v, beta_steps, None), (Verdict.FAIL, exc.reason, None)
    return MacroStep(u, v, beta_steps, _step_kind(head)), nxt


class OperatorSummary:
    """The runs of one operator over the levels 0..n_max, and their verdict.

    A summary's runs are read once.  They may come lazily, as from
    check_operator(): each is then run when it is first reached.  Iterating
    yields each run and drops it, keeping only the first level that is not a
    Success and its run's verdict, which is all the sweep's verdict and `at`
    need; a second iteration yields nothing.  The verdict and `at` finish
    the read and answer at any time.  to_dict and lines() must be the first
    readers, and raise RuntimeError otherwise, so that they never write part
    of a sweep: lines() prints each run as it returns and then drops it,
    while to_dict holds every run, since its verdict comes before its runs.
    The family, the successor and n_max are the runs' own.  With trace,
    to_dict and lines show each run's macro steps.
    """

    __slots__ = ("_runs", "trace", "_read", "_miss")

    def __init__(self, runs: Iterable[RunReport], trace: bool = False):
        self._runs = iter(runs)
        self.trace = trace
        self._read = False
        self._miss: tuple[int, Verdict] | None = None  # the first run that is not a Success

    def __iter__(self) -> Iterator[RunReport]:
        """The runs not read yet, in level order, each run when first reached."""
        self._read = True
        for report in self._runs:
            if self._miss is None and report.verdict != Verdict.SUCCESS:
                self._miss = report.n, report.verdict
            yield report

    def _first_read(self) -> Iterator[RunReport]:
        if self._read:
            raise RuntimeError("this summary's runs were read already; "
                               "only its verdict and at remain")
        return iter(self)

    def _outcome(self) -> tuple[int, Verdict] | None:
        for _ in self:  # finish the read
            pass
        return self._miss

    @property
    def verdict(self) -> Verdict:
        miss = self._outcome()
        return Verdict.sweep(() if miss is None else (miss[1],))

    @property
    def at(self) -> int | None:
        """The first level that is not a Success, if any."""
        miss = self._outcome()
        return None if miss is None else miss[0]

    def to_dict(self) -> dict[str, Any]:
        """The summary; its runs are a generator of the runs' dicts, each
        built when the writer reaches it, which to_json writes as a list.
        cli._write_json encodes each run's dict alone, as to_json(run, "    "),
        at the depth it has in the whole document, and then drops it."""
        runs = list(self._first_read())
        first = runs[0]
        out: dict[str, Any] = {"family": first.family.value}
        if first.successor is not None:
            out["successor"] = pretty(first.successor)
        out["n_max"] = len(runs) - 1
        out["verdict"] = self.verdict
        if self.at is not None:
            out["at"] = self.at
        out["runs"] = (report.to_dict(self.trace) for report in runs)
        return out

    def lines(self) -> Iterator[str]:
        """Each run's lines as soon as it returns, then the verdict line; a
        run is dropped once its lines are out, so one run is held at a time."""
        for report in self._first_read():
            yield from report.lines(self.trace)
        tail = f"verdict: {self.verdict}"
        if self.at is not None:
            tail += f" (n={self.at})"
        yield tail


def check_operator(term: Term, n_max: int, successor: Term | None = None,
                   limits: Limits = DEFAULT_LIMITS, trace: bool = False) -> OperatorSummary:
    """The summary of the levels 0..n_max, each run by run_check when the
    summary first reaches it and read once: a storage operator's check, or
    with a successor S an S-storage operator's.  n_max and the operands are
    checked here, once, before any run.  With trace, the summary shows each
    run's macro steps."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    _check_operands(term, successor)
    return OperatorSummary((run_check(term, n, successor, limits, checked=True)
                            for n in range(n_max + 1)), trace)


def to_json(payload: Any, pad: str = "") -> str:
    """payload in JSON, byte for byte as the standard library's dumps writes
    it with indent=2 and default=list, with every line after the first
    indented by pad.  Keys keep their order, so identical inputs give
    identical bytes.  An iterable that json does not know, such as a
    summary's runs, stands for the list of its items.  The stdlib encodes an
    indented document in Python, one generator per container; this writer
    joins strings, and escapes them with the stdlib's own C escaper."""
    return _encode(payload, pad)


def _encode(value: Any, pad: str) -> str:
    # to_json's body, which recurses here and not through to_json, so that a
    # tracer wrapping to_json (bench/tracer.py) sees one call per document
    if isinstance(value, str):  # a Verdict included
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)  # NaN, Infinity and repr, as the stdlib writes them
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{_escape(key)}: {_encode(item, inner)}" for key, item in value.items()]
        brackets = "{}"
    else:
        items = [_encode(item, inner) for item in value]
        brackets = "[]"
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"
