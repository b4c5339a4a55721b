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

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Union


class Family(Enum):
    LOWER = "x"
    UPPER = "X"


# Every node computes its free-name set when it is built, from its
# children's sets, into a private slot.  The slot takes no part in the
# constructor, ==, hash or repr.  Sets are shared, not copied: every Var of a
# name gets the same singleton, a Lam whose binder is not free in its body
# keeps the body's set, and an App or Const keeps a child's set when that set
# already holds the others'.

_EMPTY: frozenset[str] = frozenset()
_SINGLETONS: dict[str, frozenset[str]] = {}


def _join(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """a | b, but a or b itself when one holds the other."""
    return a if b <= a else b if a <= b else a | b


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    _fv: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fv = _SINGLETONS.get(self.name)
        if fv is None:
            fv = _SINGLETONS[self.name] = frozenset((self.name,))
        object.__setattr__(self, "_fv", fv)


@dataclass(frozen=True, slots=True)
class Lam:
    binder: str
    body: "Term"
    _fv: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fv = self.body._fv
        if self.binder in fv:
            fv = fv - {self.binder} or _EMPTY
        object.__setattr__(self, "_fv", fv)


@dataclass(frozen=True, slots=True)
class App:
    fn: "Term"
    arg: "Term"
    _fv: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_fv", _join(self.fn._fv, self.arg._fv))


@dataclass(frozen=True, slots=True)
class Const:
    family: Family
    level: int
    payload: tuple["Term", ...] = ()
    _fv: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("constant level must be non-negative")
        if len(self.payload) == 1:
            raise ValueError("a stored constant carries at least two payload terms")
        fv = _EMPTY
        for p in self.payload:
            fv = _join(fv, p._fv)
        object.__setattr__(self, "_fv", fv)

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
        fn = body.fn
        if f == x or not (isinstance(fn, Var) and fn.name == f):
            return None
        body = body.arg
        n += 1
    return n if isinstance(body, Var) and body.name == x else None


def free_names(term: Term) -> frozenset[str]:
    """The free names of term, computed when the node was built."""
    try:
        return term._fv
    except AttributeError:
        raise TypeError(f"not a term: {term!r}") from None


def alpha_eq(t: Term, u: Term) -> bool:
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


def substitute(term: Term, name: str, replacement: Term) -> Term:
    return substitute_many(term, {name: replacement})


def iter_consts(term: Term) -> Iterator[Const]:
    """Every constant occurrence, payloads included, left to right."""
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            stack.append(t.arg)
            stack.append(t.fn)
        elif isinstance(t, Lam):
            stack.append(t.body)
        elif isinstance(t, Const):
            yield t
            stack.extend(reversed(t.payload))


def is_closed_pure(term: Term) -> bool:
    """No free names and no symbolic constants anywhere."""
    return not free_names(term) and next(iter_consts(term), None) is None
