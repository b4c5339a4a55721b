"""Substitutions and instance verifiers tying the two constant families together.

The checker runs two abstract machines: one over plain lower constants x[n],
one over upper constants X[n] driven by a successor term.  This module holds
the bridges between them and the real calculus:

  * ``sigma_subst`` erases upper constants into concrete numerals (S)^k #0,
    turning an abstract trace into an ordinary head reduction.
  * ``sigma_hat_subst`` does the same with delayed redexes, so every constant
    image still has a head redex to contract.
  * property (P) singles out the upper terms that are images of lower terms;
    ``delta_forward`` and ``delta_inverse`` convert between the two families.
  * ``verify_theorem1_instance``, ``verify_theorem2_instance`` and
    ``verify_theorem3`` machine-check, per level n, the three claims the
    machinery exists for: a storage operator is an S-storage operator for
    every successor S; being an S1-storage operator is the same thing as
    being a storage operator; and the builtin T3 with S2 witnesses that the
    equivalence stops at S1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from .builtins import prelude
from .checker import (
    TAU_NOT_CLOSED,
    MacroStep,
    RunReport,
    Verdict,
    check_operator,
    run_check,
)
from .reduction import (
    DEFAULT_LIMITS,
    FuelExhausted,
    Limits,
    beta_equiv,
    decompose_hnf,
    head_reduce,
    head_step,
)
from .terms import (
    App,
    Const,
    Family,
    Lam,
    Term,
    Var,
    alpha_eq,
    app,
    app_power,
    free_names,
    is_closed_pure,
    iter_consts,
    mk_church,
    spine,
)

NOT_APPLIED_TO_AB = "NotAppliedToAB"
BOUND_NAME_IN_AB = "BoundNameInAB"
PAYLOAD_VIOLATION = "PayloadViolation"


def _reject_family(t: Term, family: Family, who: str) -> None:
    for const in iter_consts(t):
        if const.family is family:
            raise ValueError(f"{who} does not accept {family.value}-family constants")


def sigma_subst(t: Term, successor: Term) -> Term:
    """Replace every upper constant of level k by (S)^k #0, payload dropped.

    The images are closed, so no renaming is ever needed and the substitution
    commutes with head steps.  Lower constants are rejected rather than passed
    through.
    """
    if not is_closed_pure(successor):
        raise ValueError("successor must be a closed constant-free term")
    _reject_family(t, Family.LOWER, "sigma_subst")
    return _erase(t, successor, mk_church(0))


def sigma_hat_subst(t: Term, successor: Term, y: str = "y") -> Term:
    """Like sigma_subst but with delayed images built from a fresh variable y.

    Level k maps to (S^)^k 0^ where S^ = (\\x. S) y and 0^ = (\\x. #0) y.
    Both unfold by one head step, (S^)t > (S)t and 0^ > #0, which is what
    lets a fully abstract trace project onto a reduction that starts from a
    non-normal numeral.  y must not occur free in the input.
    """
    if not is_closed_pure(successor):
        raise ValueError("successor must be a closed constant-free term")
    if y in free_names(t):
        raise ValueError(f"{y!r} occurs free in the term")
    _reject_family(t, Family.LOWER, "sigma_hat_subst")
    s_hat = App(Lam("x", successor), Var(y))
    zero_hat = App(Lam("x", mk_church(0)), Var(y))
    return _erase(t, s_hat, zero_hat)


def _erase(t: Term, succ_image: Term, zero_image: Term) -> Term:
    match t:
        case Var():
            return t
        case Const(level=level):
            return app_power(succ_image, level, zero_image)
        case Lam(binder, body):
            return Lam(binder, _erase(body, succ_image, zero_image))
        case App(fn, arg):
            return App(_erase(fn, succ_image, zero_image),
                       _erase(arg, succ_image, zero_image))
    raise TypeError(f"not a term: {t!r}")


@dataclass(frozen=True)
class PViolation:
    """Where and how property (P) fails.

    path addresses the offending stored-constant occurrence: "body" steps
    under a binder, "fn"/"arg" through applications, "payload[i]" into a
    constant's payload.
    """

    path: tuple[str, ...]
    kind: str


class PViolationError(Exception):
    def __init__(self, violation: PViolation):
        super().__init__(f"{violation.kind} at {'/'.join(violation.path) or '<root>'}")
        self.violation = violation


def p_violation(t: Term) -> PViolation | None:
    """First property-(P) violation in t, or None.

    A stored upper constant X[k; a, b, ...] is in order when it heads an
    application whose first two arguments are alpha-copies of a and b, when
    a and b use no name bound by an enclosing abstraction, and when the
    payload itself is recursively in order.  Seed constants and lower-family
    constants are unconstrained.
    """
    return _scan_p(t, frozenset(), ())


def satisfies_P(t: Term) -> bool:
    return p_violation(t) is None


def _is_constrained(head: Term) -> bool:
    return isinstance(head, Const) and head.family is Family.UPPER and not head.is_seed


def _scan_p(t: Term, bound: frozenset[str], path: tuple[str, ...]) -> PViolation | None:
    match t:
        case Var():
            return None
        case Const():
            if _is_constrained(t):
                return PViolation(path, NOT_APPLIED_TO_AB)
            # seed payloads are empty; stored lower payloads still scan
            return _scan_payload(t, bound, path)
        case Lam(binder, body):
            return _scan_p(body, bound | {binder}, path + ("body",))
        case App():
            head, args = spine(t)
            if _is_constrained(head):
                assert isinstance(head, Const)
                head_path = path + ("fn",) * len(args)
                a, b = head.payload[0], head.payload[1]
                if len(args) < 2 or not (alpha_eq(args[0], a) and alpha_eq(args[1], b)):
                    return PViolation(head_path, NOT_APPLIED_TO_AB)
                if (free_names(a) | free_names(b)) & bound:
                    return PViolation(head_path, BOUND_NAME_IN_AB)
                inner = _scan_payload(head, bound, head_path)
                if inner is not None:
                    return PViolation(inner.path, PAYLOAD_VIOLATION)
                for i, arg in enumerate(args):
                    arg_path = path + ("fn",) * (len(args) - 1 - i) + ("arg",)
                    found = _scan_p(arg, bound, arg_path)
                    if found is not None:
                        return found
                return None
            found = _scan_p(t.fn, bound, path + ("fn",))
            if found is not None:
                return found
            return _scan_p(t.arg, bound, path + ("arg",))
    raise TypeError(f"not a term: {t!r}")


def _scan_payload(const: Const, bound: frozenset[str],
                  path: tuple[str, ...]) -> PViolation | None:
    for i, item in enumerate(const.payload):
        found = _scan_p(item, bound, path + (f"payload[{i}]",))
        if found is not None:
            return found
    return None


def delta_forward(t: Term) -> Term:
    """Translate a lower-family term to its upper-family image.

    Seeds map level for level; a stored x[k; a, b, c...] becomes the stored
    upper constant re-applied to its own first two payload entries,
    (X[k; a', b', c'...]) a' b'.  The image of a machine state always
    satisfies (P).
    """
    _reject_family(t, Family.UPPER, "delta_forward")
    return _delta(t)


def _delta(t: Term) -> Term:
    match t:
        case Var():
            return t
        case Const(level=level, payload=payload):
            if not payload:
                return Const(Family.UPPER, level)
            image = tuple(_delta(p) for p in payload)
            stored = Const(Family.UPPER, level, image)
            return App(App(stored, image[0]), image[1])
        case Lam(binder, body):
            return Lam(binder, _delta(body))
        case App(fn, arg):
            return App(_delta(fn), _delta(arg))
    raise TypeError(f"not a term: {t!r}")


def delta_inverse(t: Term) -> Term:
    """Inverse translation, defined exactly on the (P)-satisfying terms.

    Strips the re-applied copies of a and b from every stored constant's
    application and converts constants back to the lower family, so that
    delta_forward(delta_inverse(t)) is alpha-equivalent to t.  Raises
    PViolationError when t does not satisfy (P).
    """
    _reject_family(t, Family.LOWER, "delta_inverse")
    violation = p_violation(t)
    if violation is not None:
        raise PViolationError(violation)
    return _delta_inv(t)


def _delta_inv(t: Term) -> Term:
    match t:
        case Var():
            return t
        case Const(level=level, payload=()):
            return Const(Family.LOWER, level)
        case Const():
            # bare stored constant; p_violation would have flagged it
            raise PViolationError(PViolation((), NOT_APPLIED_TO_AB))
        case Lam(binder, body):
            return Lam(binder, _delta_inv(body))
        case App():
            head, args = spine(t)
            if _is_constrained(head):
                assert isinstance(head, Const)
                back = Const(Family.LOWER, head.level,
                             tuple(_delta_inv(p) for p in head.payload))
                return app(back, *(_delta_inv(a) for a in args[2:]))
            return App(_delta_inv(t.fn), _delta_inv(t.arg))
    raise TypeError(f"not a term: {t!r}")


@dataclass(frozen=True)
class Lemma1Report:
    """Outcome of replaying an upper trace and checking (P) step by step.

    A violation is a single head step from a term satisfying (P) to one that
    does not.  States outside (P) are not themselves violations; the claim
    under test is preservation, not membership.
    """

    pairs_checked: int
    macro_index: int | None = None
    step_index: int | None = None
    witness: PViolation | None = None

    @property
    def ok(self) -> bool:
        return self.witness is None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"check": "lemma1", "ok": self.ok,
                               "pairs_checked": self.pairs_checked}
        if self.witness is not None:
            out["macro_index"] = self.macro_index
            out["step_index"] = self.step_index
            out["kind"] = self.witness.kind
            out["path"] = "/".join(self.witness.path)
        return out


def _replay(step: MacroStep) -> Iterator[tuple[Term, Term]]:
    t = step.u
    for _ in range(step.beta_steps):
        nxt = head_step(t)
        if nxt is None:
            raise ValueError("trace does not replay: ran out of head redexes")
        yield t, nxt
        t = nxt


def verify_lemma1_along(report: RunReport) -> Lemma1Report:
    """Scan every head step of a recorded upper run for a (P) preservation
    failure."""
    if report.family is not Family.UPPER:
        raise ValueError("lemma 1 concerns upper-family runs")
    pairs = 0
    for i, step in enumerate(report.trace):
        for j, (t, nxt) in enumerate(_replay(step)):
            pairs += 1
            if satisfies_P(t) and not satisfies_P(nxt):
                return Lemma1Report(pairs, i, j, p_violation(nxt))
    return Lemma1Report(pairs)


@dataclass(frozen=True)
class ImplicationCheck:
    """One level of the storage-implies-S-storage claim."""

    n: int
    lower: RunReport
    upper: RunReport
    status: Verdict
    hat_status: Verdict | None = None
    hat_matches_tau: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"n": self.n, "lower": self.lower.verdict,
                               "upper": self.upper.verdict, "status": self.status}
        if self.hat_status is not None:
            out["sigma_hat"] = self.hat_status
        if self.hat_matches_tau is not None:
            out["sigma_hat_matches_tau"] = self.hat_matches_tau
        return out


@dataclass(frozen=True)
class Theorem1Report:
    successor: Term
    n_max: int
    checks: tuple[ImplicationCheck, ...]

    @property
    def verdict(self) -> Verdict:
        return Verdict.fold(c.status for c in self.checks)

    @property
    def ok(self) -> bool:
        return self.verdict == Verdict.PASS

    def to_dict(self) -> dict[str, Any]:
        return {"check": "theorem1", "n_max": self.n_max,
                "verdict": self.verdict,
                "checks": [c.to_dict() for c in self.checks]}


def verify_theorem1_instance(operator: Term, successor: Term, n_max: int,
                             limits: Limits = DEFAULT_LIMITS) -> Theorem1Report:
    """Check that lower-run success forces upper-run success with the given
    successor, and that the delayed numeral (S^)^n 0^ really drives the
    operator to (f)t with t beta-equivalent to #n.

    Levels where the lower run fails are vacuous.  Fuel exhaustion on either
    side leaves the level undecided rather than refuted.
    """
    checks = []
    for n in range(n_max + 1):
        lower = run_check(operator, Family.LOWER, n, limits=limits)
        upper = run_check(operator, Family.UPPER, n, successor=successor, limits=limits)
        hat_status: Verdict | None = None
        hat_matches: bool | None = None
        if lower.verdict == Verdict.FUEL:
            status = Verdict.UNKNOWN
        elif lower.verdict == Verdict.FAIL:
            status = Verdict.VACUOUS
        elif upper.verdict == Verdict.FUEL:
            status = Verdict.UNKNOWN
        elif upper.verdict == Verdict.FAIL:
            status = Verdict.FAIL
        else:
            hat_status, hat_matches = _hat_check(operator, successor, upper, n, limits)
            status = hat_status
        checks.append(ImplicationCheck(n, lower, upper, status, hat_status, hat_matches))
    return Theorem1Report(successor, n_max, tuple(checks))


def _hat_check(operator: Term, successor: Term, upper: RunReport, n: int,
               limits: Limits) -> tuple[Verdict, bool | None]:
    numeral = sigma_hat_subst(Const(Family.UPPER, n), successor)
    start = app(operator, numeral, Var("f"))
    try:
        hnf, _ = head_reduce(start, limits)
    except FuelExhausted:
        return Verdict.UNKNOWN, None
    v = decompose_hnf(hnf)
    if v.prefix or v.head != Var("f") or len(v.args) != 1:
        return Verdict.FAIL, None
    t = v.args[0]
    equal = beta_equiv(t, mk_church(n), limits)
    if equal is None:
        return Verdict.UNKNOWN, None
    matches = alpha_eq(t, upper.tau) if upper.tau is not None else None
    return (Verdict.PASS if equal else Verdict.FAIL), matches


@dataclass(frozen=True)
class EquivalenceCheck:
    """One level of the S1-equivalence claim: same verdict both ways, same
    witness on success, and the lower trace lands inside the upper one under
    delta."""

    n: int
    lower: RunReport
    upper: RunReport
    status: Verdict
    tau_match: bool | None = None
    delta_match: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"n": self.n, "lower": self.lower.verdict,
                               "upper": self.upper.verdict, "status": self.status}
        if self.tau_match is not None:
            out["tau_match"] = self.tau_match
        if self.delta_match is not None:
            out["delta_match"] = self.delta_match
        return out


@dataclass(frozen=True)
class Theorem2Report:
    n_max: int
    checks: tuple[EquivalenceCheck, ...]

    @property
    def verdict(self) -> Verdict:
        return Verdict.fold(c.status for c in self.checks)

    @property
    def ok(self) -> bool:
        return self.verdict == Verdict.PASS

    def to_dict(self) -> dict[str, Any]:
        return {"check": "theorem2", "n_max": self.n_max,
                "verdict": self.verdict,
                "checks": [c.to_dict() for c in self.checks]}


def verify_theorem2_instance(operator: Term, n_max: int,
                             limits: Limits = DEFAULT_LIMITS) -> Theorem2Report:
    """Check per level that the lower run and the upper run with S1 agree.

    On agreement in Success the two witnesses must be alpha-equivalent and
    each lower state must project into the upper trace: head-reducing
    delta_forward of the i-th lower start term must reach the i-th upper
    head normal form.  The projection absorbs the one extra (S1) contraction
    the upper machine performs per constant step.
    """
    s1 = prelude()["S1"]
    checks = []
    for n in range(n_max + 1):
        lower = run_check(operator, Family.LOWER, n, limits=limits)
        upper = run_check(operator, Family.UPPER, n, successor=s1, limits=limits)
        tau_match: bool | None = None
        delta_match: bool | None = None
        if Verdict.FUEL in (lower.verdict, upper.verdict):
            status = Verdict.UNKNOWN
        elif lower.verdict != upper.verdict:
            status = Verdict.FAIL
        elif lower.verdict == Verdict.SUCCESS:
            assert lower.tau is not None and upper.tau is not None
            tau_match = alpha_eq(lower.tau, upper.tau)
            delta_match = _delta_correspondence(lower, upper, limits)
            if delta_match is None:
                status = Verdict.UNKNOWN
            else:
                status = Verdict.PASS if tau_match and delta_match else Verdict.FAIL
        else:
            status = Verdict.PASS
        checks.append(EquivalenceCheck(n, lower, upper, status, tau_match, delta_match))
    return Theorem2Report(n_max, tuple(checks))


def _delta_correspondence(lower: RunReport, upper: RunReport,
                          limits: Limits) -> bool | None:
    if len(lower.trace) != len(upper.trace):
        return False
    for mine, theirs in zip(lower.trace, upper.trace):
        try:
            hnf, _ = head_reduce(delta_forward(mine.u), limits)
        except FuelExhausted:
            return None
        if not alpha_eq(hnf, theirs.v):
            return False
    return True


@dataclass(frozen=True)
class Theorem3Report:
    """The separating example: T3 with S2 passes the upper check at every
    level while the lower check fails from level 1 on, each escaping witness
    still carrying a level-0 stored constant."""

    n_max: int
    upper_verdict: Verdict
    lower_verdict: Verdict
    lower_at: int | None
    upper_tau_ok: bool
    lower_failures_ok: bool

    @property
    def verdict(self) -> Verdict:
        if Verdict.FUEL in (self.upper_verdict, self.lower_verdict):
            return Verdict.FUEL
        return Verdict.PASS if self.ok else Verdict.REFUTED

    @property
    def ok(self) -> bool:
        upper_good = self.upper_verdict == Verdict.ALL_PASS and self.upper_tau_ok
        if self.n_max == 0:
            return upper_good and self.lower_verdict == Verdict.ALL_PASS
        return (upper_good and self.lower_verdict == Verdict.FIRST_FAILURE
                and self.lower_at == 1 and self.lower_failures_ok)

    def to_dict(self) -> dict[str, Any]:
        return {"check": "theorem3", "n_max": self.n_max,
                "verdict": self.verdict,
                "checks": [{"family": "X", "verdict": self.upper_verdict,
                            "tau_beta_equiv": self.upper_tau_ok},
                           {"family": "x", "verdict": self.lower_verdict,
                            "first_failure": self.lower_at,
                            "failures_as_expected": self.lower_failures_ok}]}


def verify_theorem3(n_max: int, limits: Limits = DEFAULT_LIMITS) -> Theorem3Report:
    """Run both families of checks on the builtin T3 under S2 and compare
    against the expected split."""
    env = prelude("S2")
    t3, s2 = env["T3"], env["S2"]
    upper = check_operator(t3, Family.UPPER, n_max, successor=s2, limits=limits)
    lower = check_operator(t3, Family.LOWER, n_max, limits=limits)

    tau_ok = all(r.tau is not None and beta_equiv(r.tau, mk_church(r.n), limits) is True
                 for r in upper.reports)

    def stored_zero(c: Const) -> bool:
        return not c.is_seed and c.level == 0

    failures_ok = all(
        r.verdict == Verdict.FAIL and r.reason == TAU_NOT_CLOSED
        and r.tau is not None
        and any(stored_zero(c) for c in iter_consts(r.tau)
                if c.family is Family.LOWER)
        for r in lower.reports[1:]
    )
    return Theorem3Report(n_max, upper.verdict, lower.verdict, lower.at,
                          tau_ok, failures_ok)
