"""Seeded random term generators shared by the test modules.

Binder names and free-variable names come from disjoint pools, so a stored
constant whose payload is built from the free pool can never have a payload
name captured by an enclosing binder. That keeps generated lower-family
terms inside the image of the translation round-trip, and generated
upper-family terms inside the payload-discipline property by construction.
"""

from __future__ import annotations

import random

from storlab.syntax import parse
from storlab.terms import (
    App,
    Const,
    Family,
    Lam,
    Term,
    Var,
    app,
    free_names,
    fresh_name,
    mk_church,
    substitute,
)

BINDERS = ("s", "t", "g", "h")
FREEPOOL = ("p", "q", "r")


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def pure_term(r: random.Random, depth: int = 4, bound: tuple[str, ...] = ()) -> Term:
    """A constant-free term whose free variables come from FREEPOOL."""
    if depth <= 0 or r.random() < 0.3:
        if r.random() < 0.15:
            return mk_church(r.randint(0, 3))
        return Var(r.choice(bound + FREEPOOL))
    if r.random() < 0.45:
        name = r.choice(BINDERS)
        return Lam(name, pure_term(r, depth - 1, bound + (name,)))
    return App(pure_term(r, depth - 1, bound), pure_term(r, depth - 1, bound))


def lower_term(r: random.Random, depth: int = 4, bound: tuple[str, ...] = ()) -> Term:
    """A term over the x-constant family.

    Payload parts are generated with an empty binder context, so their free
    names stay inside FREEPOOL and the forward translation of the result
    always satisfies the payload discipline.
    """
    roll = r.random()
    if depth <= 0 or roll < 0.25:
        if r.random() < 0.2:
            return Const(Family.LOWER, r.randint(0, 3))
        return pure_term(r, 0, bound)
    if roll < 0.4:
        name = r.choice(BINDERS)
        return Lam(name, lower_term(r, depth - 1, bound + (name,)))
    if roll < 0.5:
        parts = tuple(lower_term(r, depth - 2, ()) for _ in range(r.randint(2, 3)))
        return Const(Family.LOWER, r.randint(0, 2), parts)
    return App(lower_term(r, depth - 1, bound), lower_term(r, depth - 1, bound))


def p_term(r: random.Random, depth: int = 4, bound: tuple[str, ...] = ()) -> Term:
    """An X-family term satisfying the payload discipline by construction.

    Stored constants only ever appear at the head of an application whose
    first two arguments are exact copies of the remembered pair, and that
    pair is generated in an empty binder context.
    """
    roll = r.random()
    if depth <= 0 or roll < 0.25:
        if r.random() < 0.2:
            return Const(Family.UPPER, r.randint(0, 3))
        return pure_term(r, 0, bound)
    if roll < 0.4:
        name = r.choice(BINDERS)
        return Lam(name, p_term(r, depth - 1, bound + (name,)))
    if roll < 0.5:
        a = p_term(r, depth - 2, ())
        b = p_term(r, depth - 2, ())
        extras = tuple(p_term(r, depth - 2, bound) for _ in range(r.randint(0, 2)))
        trailing = [p_term(r, depth - 2, bound) for _ in range(r.randint(0, 2))]
        head = Const(Family.UPPER, r.randint(0, 2), (a, b) + extras)
        return app(head, a, b, *trailing)
    return App(p_term(r, depth - 1, bound), p_term(r, depth - 1, bound))


def any_term(r: random.Random, depth: int = 4, bound: tuple[str, ...] = ()) -> Term:
    """An unconstrained term mixing both constant families. Round-trip fodder."""
    roll = r.random()
    if depth <= 0 or roll < 0.3:
        if r.random() < 0.25:
            family = r.choice((Family.LOWER, Family.UPPER))
            return Const(family, r.randint(0, 3))
        return pure_term(r, 0, bound)
    if roll < 0.45:
        name = r.choice(BINDERS)
        return Lam(name, any_term(r, depth - 1, bound + (name,)))
    if roll < 0.55:
        family = r.choice((Family.LOWER, Family.UPPER))
        parts = tuple(any_term(r, depth - 2, bound) for _ in range(r.randint(2, 4)))
        return Const(family, r.randint(0, 2), parts)
    return App(any_term(r, depth - 1, bound), any_term(r, depth - 1, bound))


def with_head_redex(r: random.Random, gen=pure_term, depth: int = 3) -> Term:
    """(\\name. body) value extras..., so a head redex always exists."""
    name = r.choice(BINDERS)
    body = gen(r, depth, (name,))
    value = gen(r, depth, ())
    extras = [gen(r, 2, ()) for _ in range(r.randint(0, 2))]
    return app(Lam(name, body), value, *extras)


def substitution_for(r: random.Random, term: Term) -> dict[str, Term]:
    """A substitution over some of the term's FREEPOOL free names.

    The candidate list is sorted first: set iteration order depends on the
    interpreter's hash seed and would break cross-run determinism.
    """
    candidates = sorted(free_names(term) & set(FREEPOOL))
    return {name: pure_term(r, 2, ()) for name in candidates if r.random() < 0.7}


def closed_term(r: random.Random, depth: int = 2) -> Term:
    """A closed constant-free term: a pure_term under a binder for each of
    its free names."""
    term = pure_term(r, depth)
    for name in sorted(free_names(term)):
        term = Lam(name, term)
    return term


def with_redexes(r: random.Random, term: Term) -> Term:
    """term with 1-3 redexes put in at random subterm positions.

    The subterm s at a position becomes (\\v. s) w, (\\v. v) s or
    (\\v v'. v) s w, with v and v' names the term does not use and w a
    closed_term, so each contracts back to s and adds no free name or
    constant.  A shared subterm is one position per occurrence, and only
    the chosen occurrence changes.
    """
    for _ in range(r.randint(1, 3)):
        names = _names(term)
        v = fresh_name("v", names)
        v2 = fresh_name("w", names)
        form = r.randrange(3)
        term = _replace(term, r.randrange(_size(term)),
                        lambda s: head_expansion(r, form, s, v, v2))
    return term


def head_expansion(r: random.Random, form: int, s: Term, v: str = "v",
                   w: str = "w") -> Term:
    """s in the redex numbered form, which contracts back to s: (\\v. s) c,
    (\\v. v) s or (\\v w. v) s c, with c a closed_term.  v must not be free in s."""
    if form == 0:
        return App(Lam(v, s), closed_term(r))
    if form == 1:
        return App(Lam(v, Var(v)), s)
    return app(Lam(v, Lam(w, Var(v))), s, closed_term(r))


def _names(term: Term) -> set[str]:
    """Every variable and binder name in term, payloads included."""
    match term:
        case Var(name):
            return {name}
        case Lam(binder, body):
            return {binder} | _names(body)
        case App(fn, arg):
            return _names(fn) | _names(arg)
        case Const(payload=payload):
            return set().union(*map(_names, payload))
    raise TypeError(f"not a term: {term!r}")


def _size(term: Term) -> int:
    """The number of subterm positions in term, a constant counting as one."""
    if isinstance(term, Lam):
        return 1 + _size(term.body)
    if isinstance(term, App):
        return 1 + _size(term.fn) + _size(term.arg)
    return 1


def _replace(term: Term, k: int, make) -> Term:
    """term with its k-th subterm in pre-order, s, replaced by make(s)."""
    if k == 0:
        return make(term)
    if isinstance(term, Lam):
        return Lam(term.binder, _replace(term.body, k - 1, make))
    left = _size(term.fn)
    if k <= left:
        return App(_replace(term.fn, k - 1, make), term.arg)
    return App(term.fn, _replace(term.arg, k - 1 - left, make))


# The shapes of the builtins T1 and T2 over a free step A and a free zero Z
SHAPES = (r"\n. n (\x y. x (\z. y (A z))) (\f. f Z)", r"\n f. n (\x y. x (A y)) f Z")
SUCCESSORS = (r"\n f x. f (n f x)", r"\n f x. n f (f x)", r"\n f. (\g x. g (n g x)) f",
              r"\n f x. (\y. f y) (n f x)")
NEAR_MISSES = (r"\z. z", r"\n f x. f (f (n f x))", r"\n f x. n f x")
ZEROS = ("#0", r"(\k. k) #0", "#1")


def builtin_shaped(r: random.Random) -> tuple[Term, str, str]:
    """An operator in T1's or T2's shape with A a step drawn from SUCCESSORS
    and NEAR_MISSES, given redexes 40% of the time, and Z a zero drawn from
    ZEROS; returned with the step's and the zero's source text.  A and Z are
    closed, so putting them in captures no name."""
    step, zero = r.choice(SUCCESSORS + NEAR_MISSES), r.choice(ZEROS)
    a = parse(step)
    if r.random() < 0.4:
        a = with_redexes(r, a)
    shape = parse(r.choice(SHAPES))
    return substitute(substitute(shape, "A", a), "Z", parse(zero)), step, zero
