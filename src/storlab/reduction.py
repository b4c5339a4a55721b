"""Head reduction, normal-order normalization, and the successor test.

Head reduction contracts only the head redex: in a term of the form
lam-prefix over (h) a1 ... ak, the redex (h) a1 with h an abstraction.
Symbolic constants in head position are inert here; the checker layer owns
their meaning.  All loops are fuel-bounded and exhaustion is reported as
FuelExhausted, never as a negative answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    App,
    Const,
    Lam,
    Term,
    Var,
    alpha_eq,
    app,
    is_closed_pure,
    mk_church,
    spine,
    substitute,
)

STAGE_HEAD = "Head"
STAGE_MACRO = "Macro"
STAGE_NORM = "Norm"


@dataclass(frozen=True)
class Limits:
    """Step budgets: head beta-steps per reduction, macro transforms per
    run, beta-steps per normalization."""

    head_fuel: int = 1_000_000
    macro_fuel: int = 10_000
    norm_fuel: int = 1_000_000

    def __post_init__(self) -> None:
        for field in ("head_fuel", "macro_fuel", "norm_fuel"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be at least 1")


DEFAULT_LIMITS = Limits()


class FuelExhausted(Exception):
    """A step budget ran out; carries the stage, partial term, and count."""

    def __init__(self, stage: str, partial: Term, steps: int):
        super().__init__(f"{stage} fuel exhausted after {steps} steps")
        self.stage = stage
        self.partial = partial
        self.steps = steps


def head_step(term: Term) -> Term | None:
    """Contract the head redex, or None if the term is in head normal form."""
    prefix: list[str] = []
    body = term
    while isinstance(body, Lam):
        prefix.append(body.binder)
        body = body.body
    head, args = spine(body)
    if not (isinstance(head, Lam) and args):
        return None
    result = app(substitute(head.body, head.binder, args[0]), *args[1:])
    for binder in reversed(prefix):
        result = Lam(binder, result)
    return result


def head_reduce(term: Term, limits: Limits = DEFAULT_LIMITS) -> tuple[Term, int]:
    """Head-reduce to head normal form, returning (result, beta steps)."""
    steps = 0
    while steps < limits.head_fuel:
        nxt = head_step(term)
        if nxt is None:
            return term, steps
        term = nxt
        steps += 1
    if head_step(term) is None:
        return term, steps
    raise FuelExhausted(STAGE_HEAD, term, steps)


@dataclass(frozen=True)
class HnfDecomposition:
    """A head normal form split as prefix binders, head, arguments.

    The head is always a variable or a symbolic constant.
    """

    prefix: tuple[str, ...]
    head: Term
    args: tuple[Term, ...]


def decompose_hnf(term: Term) -> HnfDecomposition:
    prefix: list[str] = []
    body = term
    while isinstance(body, Lam):
        prefix.append(body.binder)
        body = body.body
    head, args = spine(body)
    if isinstance(head, Lam):
        raise ValueError("term still has a head redex")
    return HnfDecomposition(tuple(prefix), head, tuple(args))


def _normal_step(term: Term) -> Term | None:
    """Contract the leftmost-outermost redex, descending into payloads."""
    match term:
        case Var(_):
            return None
        case Lam(binder, body):
            nxt = _normal_step(body)
            return Lam(binder, nxt) if nxt is not None else None
        case App(Lam(binder, body), arg):
            return substitute(body, binder, arg)
        case App(fn, arg):
            nxt = _normal_step(fn)
            if nxt is not None:
                return App(nxt, arg)
            nxt = _normal_step(arg)
            return App(fn, nxt) if nxt is not None else None
        case Const(family, level, payload):
            for i, p in enumerate(payload):
                nxt = _normal_step(p)
                if nxt is not None:
                    return Const(family, level, payload[:i] + (nxt,) + payload[i + 1:])
            return None
    raise TypeError(f"not a term: {term!r}")


def normalize(term: Term, limits: Limits = DEFAULT_LIMITS) -> Term:
    """Normal-order reduction to beta-normal form, fuel-bounded."""
    steps = 0
    while steps < limits.norm_fuel:
        nxt = _normal_step(term)
        if nxt is None:
            return term
        term = nxt
        steps += 1
    if _normal_step(term) is None:
        return term
    raise FuelExhausted(STAGE_NORM, term, steps)


def beta_equiv(t: Term, u: Term, limits: Limits = DEFAULT_LIMITS) -> bool | None:
    """True/False by comparing normal forms, None when fuel runs out first."""
    try:
        tn = normalize(t, limits)
        un = normalize(u, limits)
    except FuelExhausted:
        return None
    return alpha_eq(tn, un)


@dataclass(frozen=True)
class SuccessorReport:
    k_max: int
    results: tuple[bool | None, ...]

    @property
    def all_pass(self) -> bool:
        return all(r is True for r in self.results)

    @property
    def first_failure(self) -> int | None:
        for k, r in enumerate(self.results):
            if r is False:
                return k
        return None


def check_successor(successor: Term, k_max: int,
                    limits: Limits = DEFAULT_LIMITS) -> SuccessorReport:
    """Does (S) k-numeral equal the k+1 numeral for every k up to k_max?"""
    if not is_closed_pure(successor):
        raise ValueError("successor must be a closed constant-free term")
    results = tuple(
        beta_equiv(App(successor, mk_church(k)), mk_church(k + 1), limits)
        for k in range(k_max + 1)
    )
    return SuccessorReport(k_max, results)
