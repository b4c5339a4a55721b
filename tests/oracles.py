"""Reference implementations the production code replaced, kept as oracles.

Each is the recursive original of a walker that now runs on an explicit
stack: simultaneous substitution over a dict, alpha-equivalence with one
binder map per scope, and head reduction as a loop of single head steps,
each unwinding and rebuilding the whole spine.  They recurse once per level
of depth, so they are for small generated terms only.
"""

from __future__ import annotations

from typing import Mapping

from storlab.reduction import DEFAULT_LIMITS, STAGE_HEAD, FuelExhausted, Limits
from storlab.terms import App, Const, Lam, Term, Var, app, fresh_name, free_names, spine


def substitute_many(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution of free variables.

    Binders are renamed (deterministically, by priming) only when they would
    capture a free name of an incoming term.  Constant payloads are rewritten
    like any other subterm.  A subterm with none of the mapped names free is
    returned as it is, not rebuilt.
    """
    return _subst(term, dict(mapping))


def _subst(t: Term, m: dict[str, Term]) -> Term:
    match t:
        case Var(name):
            return m.get(name, t)
        case App(fn, arg):
            if free_names(t).isdisjoint(m):
                return t
            return App(_subst(fn, m), _subst(arg, m))
        case Const(family, level, payload):
            if free_names(t).isdisjoint(m):
                return t
            return Const(family, level, tuple(_subst(p, m) for p in payload))
        case Lam(binder, body):
            body_free = free_names(body)
            live = {k: v for k, v in m.items() if k != binder and k in body_free}
            if not live:
                return t
            incoming: set[str] = set()
            for v in live.values():
                incoming |= free_names(v)
            if binder in incoming:
                renamed = fresh_name(binder, incoming | body_free | set(live))
                body = _subst(body, {binder: Var(renamed)})
                binder = renamed
            return Lam(binder, _subst(body, live))
    raise TypeError(f"not a term: {t!r}")


def oracle_alpha_eq(t: Term, u: Term) -> bool:
    return _alpha(t, u, {}, {}, 0)


def _alpha(t: Term, u: Term, tb: dict, ub: dict, depth: int) -> bool:
    match (t, u):
        case (Var(a), Var(b)):
            return tb.get(a, a) == ub.get(b, b)
        case (Lam(a, abody), Lam(b, bbody)):
            return _alpha(abody, bbody, {**tb, a: depth}, {**ub, b: depth}, depth + 1)
        case (App(af, aa), App(bf, ba)):
            return _alpha(af, bf, tb, ub, depth) and _alpha(aa, ba, tb, ub, depth)
        case (Const(afam, alvl, apay), Const(bfam, blvl, bpay)):
            return (
                afam is bfam
                and alvl == blvl
                and len(apay) == len(bpay)
                and all(_alpha(p, q, tb, ub, depth) for p, q in zip(apay, bpay))
            )
        case _:
            return False


def oracle_head_step(term: Term) -> Term | None:
    """Contract the head redex by splitting the whole term into prefix,
    head and arguments and wrapping it back; None at a head normal form."""
    prefix: list[str] = []
    while isinstance(term, Lam):
        prefix.append(term.binder)
        term = term.body
    head, args = spine(term)
    if not isinstance(head, Lam):
        return None
    term = app(_subst(head.body, {head.binder: args[0]}), *args[1:])
    for binder in reversed(prefix):
        term = Lam(binder, term)
    return term


def oracle_head_reduce(term: Term, limits: Limits = DEFAULT_LIMITS) -> tuple[Term, int]:
    steps = 0
    while steps < limits.head_fuel:
        nxt = oracle_head_step(term)
        if nxt is None:
            return term, steps
        term = nxt
        steps += 1
    if oracle_head_step(term) is None:
        return term, steps
    raise FuelExhausted(STAGE_HEAD, term, steps)
