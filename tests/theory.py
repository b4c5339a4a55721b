"""The paper's supporting lemmas, kept for the tests since no command runs them.

``sigma_subst`` erases upper constants of level k into numerals (S)^k #0,
and ``sigma_hat_subst`` into delayed numerals (S^)^k 0^, where
S^ = (\\x. S) y and 0^ = (\\x. #0) y; both drop payloads and refuse lower
constants.  They are the recursive maps of ``oracles``, served here under
these names; storlab itself has no σ map.  Property (P) singles out the
upper terms that are images of lower terms, and ``delta_inverse`` inverts
``storlab.theorems.delta_forward`` on them.  ``verify_lemma1_along`` replays
a recorded upper run and checks that no head step leaves (P) (Lemma 1).
The walks recurse once per level of depth and a shared subterm is walked
once per occurrence, so they are for small terms only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from oracles import oracle_sigma_hat_subst as sigma_hat_subst
from oracles import oracle_sigma_subst as sigma_subst
from oracles import head_normal_form, spine
from storlab.checker import MacroStep, RunReport
from storlab.reduction import FuelExhausted, Limits
from storlab.terms import (App, Const, Family, Lam, Term, Var, alpha_eq, app, free_names,
                           iter_consts)

NOT_APPLIED_TO_AB = "NotAppliedToAB"
BOUND_NAME_IN_AB = "BoundNameInAB"
PAYLOAD_VIOLATION = "PayloadViolation"


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


def delta_inverse(t: Term) -> Term:
    """Inverse translation, defined exactly on the (P)-satisfying terms.

    Strips the re-applied copies of a and b from every stored constant's
    application and converts constants back to the lower family, so that
    delta_forward(delta_inverse(t)) is alpha-equivalent to t.  Raises
    PViolationError when t does not satisfy (P).
    """
    if any(c.family is Family.LOWER for c in iter_consts(t)):
        raise ValueError("delta_inverse does not accept x-family constants")
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


def head_step(term: Term) -> Term | None:
    """Contract the head redex, or None if the term is in head normal form:
    the production head reduction with a budget of one step."""
    try:
        result, steps = head_normal_form(term, Limits(head_fuel=1))
    except FuelExhausted as exc:
        return exc.partial
    return result if steps else None
