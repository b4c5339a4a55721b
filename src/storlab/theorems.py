"""Translations and instance verifiers tying the two constant families together.

The checker runs two abstract machines: one over plain lower constants x[n],
one over upper constants X[n] driven by a successor term.  This module holds
the bridges between them and the real calculus:

  * ``delta_forward`` translates lower-family terms to the upper family.
  * ``verify_theorem1_instance``, ``verify_theorem2_instance`` and
    ``verify_theorem3`` machine-check, per level n, the three claims the
    machinery exists for: a storage operator is an S-storage operator for
    every successor S; being an S1-storage operator is the same thing as
    being a storage operator; and the builtin T3 with S2 witnesses that the
    equivalence stops at S1.  Theorem 1 also drives the operator with the
    delayed numeral (S^)^n 0^, built directly at each level n.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, NamedTuple

from .builtins import _CORE, prelude
from .checker import PROBE, TAU_NOT_CLOSED, RunReport, _macro_step, check_operator
from .reduction import DEFAULT_LIMITS, Limits, Verdict, _successor_answer
from .terms import (
    App,
    Const,
    Family,
    Lam,
    Term,
    Var,
    alpha_eq,
    app_power,
    iter_consts,
    mk_church,
)


def delta_forward(t: Term, memo: dict[int, Term] | None = None) -> Term:
    """Translate a lower-family term to its upper-family image.

    Seeds map level for level; a stored x[k; a, b, c...] becomes the stored
    upper constant re-applied to its own first two payload entries,
    (X[k; a', b', c'...]) a' b'.  The image of a machine state always
    satisfies (P).  Raises ValueError on an upper-family constant.

    The walk is post-order with an explicit stack and a memo keyed on node
    identity, so each distinct node is visited once, payloads included, at
    any depth.  The memo is this call's own, or the one given: calls can
    share one as long as every node it has seen stays alive.  A subterm that
    maps to itself comes back as the same object.
    """
    done: dict[int, Term] = {} if memo is None else memo
    todo: list[Term] = [t]
    while todo:
        node = todo[-1]
        if id(node) in done:
            todo.pop()
            continue
        kind = type(node)
        if kind is Var:
            result = node
        elif kind is App:
            fn, arg = done.get(id(node.fn)), done.get(id(node.arg))
            if fn is None or arg is None:
                if arg is None:
                    todo.append(node.arg)
                if fn is None:
                    todo.append(node.fn)
                continue
            result = node if fn is node.fn and arg is node.arg else App(fn, arg)
        elif kind is Lam:
            body = done.get(id(node.body))
            if body is None:
                todo.append(node.body)
                continue
            result = node if body is node.body else Lam(node.binder, body)
        elif kind is Const:
            if node.family is Family.UPPER:
                raise ValueError("delta_forward does not accept X-family constants")
            missing = [p for p in node.payload if id(p) not in done]
            if missing:
                todo.extend(reversed(missing))
                continue
            if node.payload:
                payload = tuple(done[id(p)] for p in node.payload)
                stored = Const(Family.UPPER, node.level, payload)
                result = App(App(stored, payload[0]), payload[1])
            else:
                result = Const(Family.UPPER, node.level)
        else:
            raise TypeError(f"not a term: {node!r}")
        todo.pop()
        done[id(node)] = result
    return done[id(t)]


class LevelCheck(NamedTuple):
    """One level of theorem 1 or 2: the lower and upper runs' verdicts at n
    and the status their comparison earns.  Theorem 1 fills sigma_hat and its
    match (the delayed-numeral check), theorem 2 tau_match and delta_match.
    The fields are the level's JSON keys, in order; a None is left out."""

    n: int
    lower: Verdict
    upper: Verdict
    status: Verdict
    sigma_hat: Verdict | None = None
    sigma_hat_matches_tau: bool | None = None
    tau_match: bool | None = None
    delta_match: bool | None = None


class LevelReport(NamedTuple):
    """Theorem 1 or 2 (named by check) over the levels 0..n_max."""

    check: str
    n_max: int
    checks: tuple[LevelCheck, ...]

    @property
    def verdict(self) -> Verdict:
        return Verdict.fold(c.status for c in self.checks)

    def to_dict(self) -> dict[str, Any]:
        levels = [{k: v for k, v in c._asdict().items() if v is not None} for c in self.checks]
        return {"check": self.check, "n_max": self.n_max, "verdict": self.verdict,
                "checks": levels}

    def lines(self) -> Iterator[str]:
        upper = "upper" if self.check == "theorem1" else "upper[S1]"  # theorem 2 runs S1
        for check in self.checks:
            detail = ""
            if check.sigma_hat is not None:
                detail += f" sigma-hat={check.sigma_hat}"
            if check.tau_match is not None:
                detail += f" tau-match={check.tau_match} delta-match={check.delta_match}"
            yield (f"n={check.n}: lower={check.lower}"
                   f" {upper}={check.upper}{detail}  -> {check.status}")
        yield f"verdict: {self.verdict}"


def _levels(check: str, operator: Term, successor: Term, n_max: int, limits: Limits,
            judge: Callable[[RunReport, RunReport], LevelCheck]) -> LevelReport:
    """Per level: the lower run, the upper run with successor, then judge.
    Both sweeps are read once, a level at a time, so no run outlives its
    level's check."""
    lower = check_operator(operator, n_max, limits=limits)
    upper = check_operator(operator, n_max, successor, limits)
    return LevelReport(check, n_max, tuple(map(judge, lower, upper)))


def verify_theorem1_instance(operator: Term, successor: Term, n_max: int,
                             limits: Limits = DEFAULT_LIMITS) -> LevelReport:
    """Check that lower-run success forces upper-run success with the given
    successor, and that the delayed numeral (S^)^n 0^ drives the operator,
    on the upper run's machine, to (f)t with t closed and beta-equal to #n.

    Levels where the lower run fails are vacuous.  Fuel exhaustion on either
    side leaves the level undecided rather than refuted.  A level n that
    would fail relies on (S)#k being #k+1 for every k < n: it is Vacuous if
    that is false for some k < n, else Unknown if norm fuel left some k
    undecided, and only else Fail.  Each k is checked once per call, in
    order, as far as a failing level needs and never past the first false.
    """
    answers: list[bool | None] = []  # (S)#k against #k+1, for k = 0, 1, ...

    def judge(lower: RunReport, upper: RunReport) -> LevelCheck:
        if lower.verdict == Verdict.FAIL:
            return LevelCheck(lower.n, lower.verdict, upper.verdict, Verdict.VACUOUS)
        if Verdict.FUEL in (lower.verdict, upper.verdict):
            return LevelCheck(lower.n, lower.verdict, upper.verdict, Verdict.UNKNOWN)
        sigma_hat = matches = None
        if upper.verdict == Verdict.FAIL:
            status = Verdict.FAIL
        else:
            sigma_hat, matches = _hat_check(operator, successor, upper, limits)
            status = sigma_hat
        if status == Verdict.FAIL:
            while len(answers) < lower.n and False not in answers:
                answers.append(_successor_answer(successor, len(answers), limits))
            below = answers[:lower.n]
            status = (Verdict.VACUOUS if False in below
                      else Verdict.UNKNOWN if None in below else Verdict.FAIL)
        return LevelCheck(lower.n, lower.verdict, upper.verdict, status, sigma_hat, matches)

    return _levels("theorem1", operator, successor, n_max, limits, judge)


def _hat_check(operator: Term, successor: Term, upper: RunReport,
               limits: Limits) -> tuple[Verdict, bool | None]:
    # the delayed numeral (S^)^n 0^, with S^ = (\x. S) y and 0^ = (\x. #0) y,
    # is not normal: each unfolds by one head step, (S^)t > (S)t and 0^ > #0.
    # It holds no constant, so its first macro step ends the run
    numeral = app_power(App(Lam("x", successor), Var("y")), upper.n,
                        App(Lam("x", mk_church(0)), Var("y")))
    _, (verdict, _, tau) = _macro_step([operator, numeral, Var(PROBE)], upper.n,
                                       successor, limits)
    if verdict == Verdict.FUEL:
        return Verdict.UNKNOWN, None
    # the upper run succeeded, so it carries its tau
    matches = None if tau is None else alpha_eq(tau, upper.tau)
    return (Verdict.PASS if verdict == Verdict.SUCCESS else Verdict.FAIL), matches


def verify_theorem2_instance(operator: Term, n_max: int,
                             limits: Limits = DEFAULT_LIMITS) -> LevelReport:
    """Check per level that the lower run and the upper run with S1 agree.

    On agreement in Success the two witnesses must be alpha-equivalent and
    each lower head normal form must project into the upper trace:
    delta_forward of the i-th lower head normal form must be the i-th upper
    one, up to alpha.  The upper machine's head reduction absorbs the one
    extra (S1) contraction it performs per constant step.
    """
    def judge(lower: RunReport, upper: RunReport) -> LevelCheck:
        if Verdict.FUEL in (lower.verdict, upper.verdict):
            return LevelCheck(lower.n, lower.verdict, upper.verdict, Verdict.UNKNOWN)
        if lower.verdict != upper.verdict:
            return LevelCheck(lower.n, lower.verdict, upper.verdict, Verdict.FAIL)
        if lower.verdict != Verdict.SUCCESS:
            return LevelCheck(lower.n, lower.verdict, upper.verdict, Verdict.PASS)
        assert lower.tau is not None and upper.tau is not None
        tau_match = alpha_eq(lower.tau, upper.tau)
        delta_match = _delta_correspondence(lower, upper)
        status = Verdict.PASS if tau_match and delta_match else Verdict.FAIL
        return LevelCheck(lower.n, lower.verdict, upper.verdict, status,
                          tau_match=tau_match, delta_match=delta_match)

    return _levels("theorem2", operator, _CORE["S1"], n_max, limits, judge)


def _delta_correspondence(lower: RunReport, upper: RunReport) -> bool:
    if len(lower.trace) != len(upper.trace):
        return False
    # one memo for the whole trace, which keeps every node it maps alive:
    # the states share most of their subterms, so each is mapped once
    memo: dict[int, Term] = {}
    # delta commutes with head reduction, so delta of a lower head normal
    # form is what head-reducing delta of its start state gives
    return all(alpha_eq(delta_forward(mine.v, memo), theirs.v)
               for mine, theirs in zip(lower.trace, upper.trace))


class Theorem3Report(NamedTuple):
    """The separating example: T3 with S2 passes the upper check at every
    level while the lower check fails from level 1 on, each escaping witness
    still carrying a level-0 stored constant.  An answer that fuel left
    undecided is None, serialized null and printed unknown."""

    n_max: int
    upper_verdict: Verdict
    lower_verdict: Verdict
    lower_at: int | None
    lower_failures_ok: bool | None

    @property
    def upper_tau_ok(self) -> bool | None:
        """Every upper tau is beta-equal to its numeral: a run succeeds only
        then.  None when the upper sweep ran out of fuel first."""
        if self.upper_verdict == Verdict.FUEL:
            return None
        return self.upper_verdict == Verdict.ALL_PASS

    @property
    def verdict(self) -> Verdict:
        if (self.lower_verdict == Verdict.FUEL
                or None in (self.upper_tau_ok, self.lower_failures_ok)):
            return Verdict.FUEL
        # level 0 passes, and the first level that does not is 1 when there is a level 1
        lower_good = self.lower_at == (1 if self.n_max else None) and self.lower_failures_ok
        return Verdict.PASS if self.upper_tau_ok and lower_good else Verdict.REFUTED

    def to_dict(self) -> dict[str, Any]:
        return {"check": "theorem3", "n_max": self.n_max,
                "verdict": self.verdict,
                "checks": [{"family": "X", "verdict": self.upper_verdict,
                            "tau_beta_equiv": self.upper_tau_ok},
                           {"family": "x", "verdict": self.lower_verdict,
                            "first_failure": self.lower_at,
                            "failures_as_expected": self.lower_failures_ok}]}

    def lines(self) -> Iterator[str]:
        yield (f"X-family with S2: {self.upper_verdict}"
               f" (tau beta-equivalent: {_answer(self.upper_tau_ok)})")
        line = f"x-family: {self.lower_verdict}"
        if self.lower_at is not None:
            line += (f" (n={self.lower_at},"
                     f" failures as expected: {_answer(self.lower_failures_ok)})")
        yield line
        yield f"verdict: {self.verdict}"


def verify_theorem3(n_max: int, limits: Limits = DEFAULT_LIMITS) -> Theorem3Report:
    """Run both families of checks on the builtin T3 under S2 and compare
    against the expected split.  The lower sweep is read once: each run
    from level 1 on is judged as it returns and dropped, and the sweep's
    verdict and `at` are read after."""
    env = prelude("S2")
    t3, s2 = env["T3"], env["S2"]
    upper_verdict = check_operator(t3, n_max, s2, limits).verdict
    lower = check_operator(t3, n_max, limits=limits)

    def failed_as_expected(r: RunReport) -> bool | None:
        """Failed on a tau holding a stored lower constant at level 0; None: no fuel."""
        if r.verdict == Verdict.FUEL:
            return None
        return (r.verdict == Verdict.FAIL and r.reason == TAU_NOT_CLOSED
                and r.tau is not None
                and any(c.family is Family.LOWER and not c.is_seed and c.level == 0
                        for c in iter_consts(r.tau)))

    # any level failing otherwise refutes; else a level that starved leaves it unknown
    answers = {failed_as_expected(r) for r in lower if r.n}
    failures_ok = False if False in answers else None if None in answers else True
    return Theorem3Report(n_max, upper_verdict, lower.verdict, lower.at, failures_ok)


def _answer(known: bool | None) -> bool | str:
    return "unknown" if known is None else known
