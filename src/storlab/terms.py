"""Lambda terms extended with indexed symbolic constants.

Two constant families live alongside ordinary terms.  Lower-case constants
unfold by handing their level to the first head argument one step at a
time; upper-case constants only ever answer "zero or successor".  A
constant with an empty payload is a seed; a stored constant remembers the
two head arguments it was created under plus the argument tail current at
that moment.  Payloads are ordinary term data: substitution rewrites them
and alpha-equivalence compares them, so two constants are the same exactly
when family, level, and payloads match up to alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Union


class Family(Enum):
    LOWER = "x"
    UPPER = "X"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    binder: str
    body: "Term"


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Const:
    family: Family
    level: int
    payload: tuple["Term", ...] = ()

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("constant level must be non-negative")
        if len(self.payload) == 1:
            raise ValueError("a stored constant carries at least two payload terms")

    @property
    def is_seed(self) -> bool:
        return not self.payload


Term = Union[Var, Lam, App, Const]


def app(fn: Term, *args: Term) -> Term:
    """Left-associated application of fn to args."""
    for a in args:
        fn = App(fn, a)
    return fn


def spine(term: Term) -> tuple[Term, list[Term]]:
    """Unwind nested applications into (head, argument list)."""
    args: list[Term] = []
    while isinstance(term, App):
        args.append(term.arg)
        term = term.fn
    args.reverse()
    return term, args


def app_power(fn: Term, n: int, seed: Term) -> Term:
    """fn applied n times to seed."""
    term = seed
    for _ in range(n):
        term = App(fn, term)
    return term


def mk_church(n: int) -> Term:
    if n < 0:
        raise ValueError("Church numerals are non-negative")
    return Lam("f", Lam("x", app_power(Var("f"), n, Var("x"))))


def church_value(term: Term) -> int | None:
    """The n such that term is literally \\f x. f (f ... (f x)), else None."""
    if not (isinstance(term, Lam) and isinstance(term.body, Lam)):
        return None
    f, x = term.binder, term.body.binder
    body = term.body.body
    n = 0
    while isinstance(body, App):
        if f == x or body.fn != Var(f):
            return None
        body = body.arg
        n += 1
    return n if body == Var(x) else None


def free_names(term: Term) -> frozenset[str]:
    match term:
        case Var(name):
            return frozenset((name,))
        case Lam(binder, body):
            return free_names(body) - {binder}
        case App(fn, arg):
            return free_names(fn) | free_names(arg)
        case Const(_, _, payload):
            out: frozenset[str] = frozenset()
            for p in payload:
                out |= free_names(p)
            return out
    raise TypeError(f"not a term: {term!r}")


def alpha_eq(t: Term, u: Term) -> bool:
    def go(t: Term, u: Term, tb: dict, ub: dict, depth: int) -> bool:
        match (t, u):
            case (Var(a), Var(b)):
                return tb.get(a, a) == ub.get(b, b)
            case (Lam(a, abody), Lam(b, bbody)):
                return go(abody, bbody, {**tb, a: depth}, {**ub, b: depth}, depth + 1)
            case (App(af, aa), App(bf, ba)):
                return go(af, bf, tb, ub, depth) and go(aa, ba, tb, ub, depth)
            case (Const(afam, alvl, apay), Const(bfam, blvl, bpay)):
                return (
                    afam is bfam
                    and alvl == blvl
                    and len(apay) == len(bpay)
                    and all(go(p, q, tb, ub, depth) for p, q in zip(apay, bpay))
                )
            case _:
                return False

    return go(t, u, {}, {}, 0)


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    taken = set(avoid)
    candidate = base
    while candidate in taken:
        candidate += "'"
    return candidate


def substitute_many(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution of free variables.

    Binders are renamed (deterministically, by priming) only when they would
    capture a free name of an incoming term.  Constant payloads are rewritten
    like any other subterm.
    """

    def go(t: Term, m: dict[str, Term]) -> Term:
        match t:
            case Var(name):
                return m.get(name, t)
            case App(fn, arg):
                return App(go(fn, m), go(arg, m))
            case Const(family, level, payload):
                if not payload:
                    return t
                return Const(family, level, tuple(go(p, m) for p in payload))
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
                    body = go(body, {binder: Var(renamed)})
                    binder = renamed
                return Lam(binder, go(body, live))
        raise TypeError(f"not a term: {t!r}")

    return go(term, dict(mapping))


def substitute(term: Term, name: str, replacement: Term) -> Term:
    return substitute_many(term, {name: replacement})


def iter_consts(term: Term) -> Iterator[Const]:
    """Every constant occurrence, payloads included, left to right."""
    match term:
        case Var(_):
            return
        case Lam(_, body):
            yield from iter_consts(body)
        case App(fn, arg):
            yield from iter_consts(fn)
            yield from iter_consts(arg)
        case Const(_, _, payload) as c:
            yield c
            for p in payload:
                yield from iter_consts(p)


def is_closed_pure(term: Term) -> bool:
    """No free names and no symbolic constants anywhere."""
    return not free_names(term) and next(iter_consts(term), None) is None
