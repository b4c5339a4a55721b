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

from enum import Enum
from functools import reduce
from typing import Iterable, Iterator


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


# == and hash are structural, binder names included, and leave the free-name
# slot out; so does repr.  Each walks with its own stack, so deep terms compare,
# hash and print without a depth limit.  == skips a pair whenever both sides are
# one node, so terms that share subterms compare at the cost of the parts they
# do not share; hash walks what _shape yields.

def _shape(term: Term) -> Iterator[object]:
    """Each node's own part, in pre-order: a Var's name, App, a Lam's binder,
    a Const's family, level and payload length."""
    stack = [term]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is Var:
            yield t.name
        elif kind is App:
            yield App
            stack.append(t.arg)
            stack.append(t.fn)
        elif kind is Lam:
            yield Lam, t.binder
            stack.append(t.body)
        else:
            yield t.family, t.level, len(t.payload)
            stack.extend(reversed(t.payload))


# The nodes are immutable: __init__ fills the slots through _set, and
# assigning or deleting an attribute afterwards raises AttributeError.

_set = object.__setattr__


class Term:
    """The base of the four node kinds: the free-name slot, ==, hash, repr
    and immutability.  It is not built itself."""

    __slots__ = ("_fv",)

    def __init__(self) -> None:
        raise TypeError("build a Var, Lam, App or Const, not a Term")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        stack: list[tuple[Term, Term]] = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            kind = type(a)
            if kind is not type(b):
                return False
            if kind is App:
                stack.append((a.arg, b.arg))
                stack.append((a.fn, b.fn))
            elif kind is Var:
                if a.name != b.name:
                    return False
            elif kind is Lam:
                if a.binder != b.binder:
                    return False
                stack.append((a.body, b.body))
            elif (a.family, a.level, len(a.payload)) == (b.family, b.level, len(b.payload)):
                stack.extend(zip(a.payload, b.payload))
            else:
                return False
        return True

    def __hash__(self) -> int:
        return hash(tuple(_shape(self)))

    def __repr__(self) -> str:
        """The constructor call with keywords, built on an explicit stack of
        terms and text."""
        out: list[str] = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            kind = type(t)
            if kind is str:
                out.append(t)
            elif kind is Var:
                out.append(f"Var(name={t.name!r})")
            elif kind is App:
                out.append("App(fn=")
                stack += [")", t.arg, ", arg=", t.fn]
            elif kind is Lam:
                out.append(f"Lam(binder={t.binder!r}, body=")
                stack += [")", t.body]
            else:
                out.append(f"Const(family={t.family!r}, level={t.level!r}, payload=(")
                items = [x for p in reversed(t.payload) for x in (p, ", ")]
                stack += ["))", *items[:-1]]
        return "".join(out)

    def __setattr__(self, name: str, *_value: object) -> None:
        raise AttributeError(f"cannot assign or delete {type(self).__name__}.{name}")

    __delattr__ = __setattr__


class Var(Term):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        fv = _SINGLETONS.get(name)
        if fv is None:
            fv = _SINGLETONS[name] = frozenset((name,))
        _set(self, "name", name)
        _set(self, "_fv", fv)


class Lam(Term):
    __slots__ = __match_args__ = ("binder", "body")

    def __init__(self, binder: str, body: Term) -> None:
        fv = body._fv
        if binder in fv:
            fv = fv - {binder} or _EMPTY
        _set(self, "binder", binder)
        _set(self, "body", body)
        _set(self, "_fv", fv)


class App(Term):
    __slots__ = __match_args__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term) -> None:
        a, b = fn._fv, arg._fv
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        _set(self, "_fv", a if b <= a else b if a <= b else a | b)  # _join(a, b)


class Const(Term):
    __slots__ = __match_args__ = ("family", "level", "payload")

    def __init__(self, family: Family, level: int, payload: tuple[Term, ...] = ()) -> None:
        if level < 0:
            raise ValueError("constant level must be non-negative")
        if len(payload) == 1:
            raise ValueError("a stored constant carries at least two payload terms")
        fv = _EMPTY
        for p in payload:
            fv = _join(fv, p._fv)
        _set(self, "family", family)
        _set(self, "level", level)
        _set(self, "payload", payload)
        _set(self, "_fv", fv)

    @property
    def is_seed(self) -> bool:
        return not self.payload


def app(fn: Term, *args: Term) -> Term:
    """Left-associated application of fn to args."""
    return reduce(App, args, fn)


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
    """Equal up to the names of bound variables, payloads included.

    Walks both terms with an explicit stack, so there is no depth limit.
    Each binder pair gets a number; a name stands for the number of its
    innermost binder pair in scope, or for itself when free, and each side
    maps names to what they stand for.  A pair of one and the same closed
    node is equal without a look inside; an open one is not skipped, since
    its free names may be bound differently above it.
    """
    tb: dict[str, int | str] = {}
    ub: dict[str, int | str] = {}
    pairs = 0
    stack: list = [(t, u)]
    while stack:
        t, u = stack.pop()
        if t is None:  # leaving a binder pair: u holds what its names stood for
            a, old_a, b, old_b = u
            tb[a], ub[b] = old_a, old_b
            continue
        if t is u and not t._fv:
            continue
        kind = type(t)
        if kind is not type(u):
            return False
        if kind is Var:
            a, b = t.name, u.name
            if tb.get(a, a) != ub.get(b, b):
                return False
        elif kind is App:
            stack.append((t.arg, u.arg))
            stack.append((t.fn, u.fn))
        elif kind is Lam:
            a, b = t.binder, u.binder
            stack.append((None, (a, tb.get(a, a), b, ub.get(b, b))))
            tb[a] = ub[b] = pairs
            pairs += 1
            stack.append((t.body, u.body))
        elif kind is Const:
            if (t.family is not u.family or t.level != u.level
                    or len(t.payload) != len(u.payload)):
                return False
            stack.extend(zip(reversed(t.payload), reversed(u.payload)))
        else:
            raise TypeError(f"not a term: {t!r}")
    return True


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    taken = set(avoid)
    candidate = base
    while candidate in taken:
        candidate += "'"
    return candidate


def substitute(term: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of replacement for the free name: the
    one-name case of substitute_many, which never gives None."""
    return substitute_many(term, {name: replacement})


def substitute_many(term: Term, mapping: dict[str, Term]) -> Term | None:
    """Simultaneous capture-avoiding substitution of each mapped term for
    its free name, or None.

    With one name, a binder that would capture a free name of the
    replacement is renamed, deterministically by priming; the result is
    never None.  With two or more names, the walk renames nothing: it
    returns None at a binder that would capture a free name of a term it
    carries into the body, or that differs from a name free in the body
    only in primes (substituting one name at a time might rename that
    name's own binder to it further out).  A caller then falls back to one
    name at a time, and gets the same primed names either way.  A binder
    that is a mapped name shadows it in the body.  Constant payloads are
    rewritten like any other subterm.  A subterm with none of the names
    free is returned as it is, not rebuilt and not visited.

    The walk is post-order with an explicit stack, so there is no depth
    limit.  Only nodes with a name free are pushed, and an App takes the
    replacement for a Var child without pushing it.  The rebuild of a node
    is pushed below its children as a marker: the binder (a str) for a Lam;
    for an App, its (fn, arg) pair with None for each child taken from the
    results; for a Const, the node in a list.  A Lam that shadows a name
    pushes the mapping outside it (a dict) below its own marker.
    """
    m = mapping
    if term._fv.isdisjoint(m):
        return term
    if type(term) is Var:
        return m[term.name]
    # with one name, the free names of its replacement, which a binder must avoid
    avoid = next(iter(m.values()))._fv if len(m) == 1 else None
    done: list[Term] = []
    todo: list = [term]
    while todo:
        t = todo.pop()
        kind = type(t)
        if kind is Var:
            done.append(m[t.name])
        elif kind is App:
            fn, arg = t.fn, t.arg
            f = fn if fn._fv.isdisjoint(m) else m[fn.name] if type(fn) is Var else None
            a = arg if arg._fv.isdisjoint(m) else m[arg.name] if type(arg) is Var else None
            if f is None or a is None:
                todo.append((f, a))
                if a is None:
                    todo.append(arg)
                if f is None:
                    todo.append(fn)
            else:
                done.append(App(f, a))
        elif kind is tuple:
            fn, arg = t
            if arg is None:
                arg = done.pop()
            done.append(App(done.pop() if fn is None else fn, arg))
        elif kind is Lam:
            binder, body = t.binder, t.body
            if avoid is None:
                if binder in m:
                    todo.append(m)
                    m = {k: v for k, v in m.items() if k != binder}
                base = binder.rstrip("'")
                for k, v in m.items():
                    if k in body._fv and (binder in v._fv or k.rstrip("'") == base):
                        return None
            elif binder in avoid:  # the name is free in body, so it is avoided too
                renamed = fresh_name(binder, avoid | body._fv)
                body = substitute_many(body, {binder: Var(renamed)})
                binder = renamed
            todo.append(binder)
            todo.append(body)
        elif kind is str:
            done.append(Lam(t, done.pop()))
        elif kind is dict:
            m = t
        elif kind is Const:
            todo.append([t])
            todo.extend(reversed([p for p in t.payload if not p._fv.isdisjoint(m)]))
        elif kind is list:
            c = t[0]
            payload = list(c.payload)
            for i in range(len(payload) - 1, -1, -1):
                if not payload[i]._fv.isdisjoint(m):
                    payload[i] = done.pop()
            done.append(Const(c.family, c.level, tuple(payload)))
    return done[0]


def iter_consts(term: Term) -> Iterator[Const]:
    """Every constant occurrence, payloads included, left to right, except
    below an application already walked: a shared subterm is walked once,
    and a term costs its DAG, not its tree.  Only applications' ids are kept,
    about half the DAG; a shared abstraction or constant is passed again."""
    seen: set[int] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is App:
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append(t.arg)
            stack.append(t.fn)
        elif kind is Lam:
            stack.append(t.body)
        elif kind is Const:
            yield t
            stack.extend(reversed(t.payload))


def is_closed_pure(term: Term) -> bool:
    """No free names and no symbolic constants anywhere."""
    return not free_names(term) and next(iter_consts(term), None) is None
