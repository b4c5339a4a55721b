"""Head reduction, normal-order normalization, beta-equivalence and the
successor test.

Head reduction contracts only the head redex: in a term of the form
lam-prefix over (h) a1 ... ak, the redex (h) a1 with h an abstraction.
Symbolic constants in head position are inert here; the checker layer owns
their meaning.  All loops are fuel-bounded and exhaustion is reported as
FuelExhausted, never as a negative answer.  normalize gives the named
normal form; beta-equivalence compares name-free normal forms, which a
closure machine builds without substituting (_nf_tokens).
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .syntax import pretty
from .terms import (
    App,
    Const,
    Lam,
    Term,
    Var,
    app,
    is_closed_pure,
    mk_church,
    substitute_many,
)


class Verdict(str, Enum):
    """Every verdict storlab reports; the value is the string printed and
    serialized.

    A run ends in SUCCESS, FAIL or FUEL; an operator summary is ALL_PASS,
    FIRST_FAILURE or FUEL; a theorem level is PASS, FAIL, VACUOUS or
    UNKNOWN; a claim as a whole is PASS, REFUTED or FUEL.
    """

    SUCCESS = "Success"
    FAIL = "Fail"
    FUEL = "FuelExhausted"
    ALL_PASS = "AllPass"
    FIRST_FAILURE = "FirstFailureAt"
    PASS = "Pass"
    REFUTED = "Refuted"
    VACUOUS = "Vacuous"
    UNKNOWN = "Unknown"

    # a plain (str, Enum) member would print as "Verdict.PASS"
    __str__ = str.__str__
    __format__ = str.__format__

    @staticmethod
    def fold(levels: Iterable[Verdict]) -> Verdict:
        """A claim's verdict from its levels: REFUTED if any level is FAIL,
        else FUEL if any is undecided (UNKNOWN or FUEL), else PASS."""
        seen = set(levels)
        if Verdict.FAIL in seen:
            return Verdict.REFUTED
        if Verdict.UNKNOWN in seen or Verdict.FUEL in seen:
            return Verdict.FUEL
        return Verdict.PASS

    @staticmethod
    def sweep(runs: Iterable[Verdict]) -> Verdict:
        """A sweep's verdict from its runs' verdicts, in level order: the first
        that is not SUCCESS decides, FAIL as FIRST_FAILURE and FUEL as FUEL."""
        for verdict in runs:
            if verdict == Verdict.FAIL:
                return Verdict.FIRST_FAILURE
            if verdict == Verdict.FUEL:
                return Verdict.FUEL
        return Verdict.ALL_PASS


STAGE_HEAD = "Head"
STAGE_MACRO = "Macro"
STAGE_NORM = "Norm"


class _Fuels(NamedTuple):  # Limits' fields: a NamedTuple's own __new__ cannot be replaced
    head_fuel: int = 1_000_000
    macro_fuel: int = 10_000
    norm_fuel: int = 1_000_000


class Limits(_Fuels):
    """Step budgets: head beta-steps per reduction, macro transforms per
    run, beta-steps per normalization.  Each is at least 1."""

    __slots__ = ()

    def __new__(cls, *args: int, **kwargs: int) -> Limits:
        self = super().__new__(cls, *args, **kwargs)
        for field, value in zip(self._fields, self):
            if value < 1:
                raise ValueError(f"{field} must be at least 1")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> Limits:  # _replace builds through it too
        return cls(*_Fuels._make(iterable))


DEFAULT_LIMITS = Limits()


class FuelExhausted(Exception):
    """A step budget ran out; carries the stage, partial term, and count."""

    verdict = Verdict.FUEL  # it is the report of any command it escapes from

    def __init__(self, stage: str, partial: Term, steps: int):
        super().__init__(f"{stage} fuel exhausted after {steps} steps")
        self.stage = stage
        self.partial = partial
        self.steps = steps

    def to_dict(self) -> dict[str, Any]:
        return {"verdict": self.verdict, "stage": self.stage,
                "beta_steps": self.steps, "partial": pretty(self.partial)}

    def lines(self) -> Iterator[str]:
        yield f"fuel exhausted after {self.steps} steps: {pretty(self.partial)}"


def _run_head(term: Term, args: list[Term], steps: int,
              fuel: int) -> tuple[list[str], Term, list[Term], int]:
    """Head-reduce term applied to the arguments on the stack `args` until it
    is a head normal form or `steps` reaches `fuel`, returning (prefix
    binders, head, argument stack, steps).

    The argument stack holds the head's arguments with the first one last.
    A head abstraction contracts as many of its prefix binders as there are
    arguments and fuel for, k of them, in one simultaneous substitution that
    counts k steps (see _contract); if that would rename a binder, it
    contracts one binder instead, so every name is the one single steps
    give.  An application that comes out as the new head is unwound onto
    the stack; an abstraction with no argument left joins the prefix.  The
    head is a Lam exactly when fuel ran out before the head normal form.
    """
    prefix: list[str] = []
    head = term
    while True:
        kind = type(head)
        if kind is App:
            args.append(head.arg)
            head = head.fn
        elif kind is not Lam:
            return prefix, head, args, steps
        elif not args:
            prefix.append(head.binder)
            head = head.body
        elif steps == fuel:
            return prefix, head, args, steps
        else:
            binders, body = [head.binder], head.body
            most = min(len(args), fuel - steps)
            while type(body) is Lam and len(binders) < most:
                binders.append(body.binder)
                body = body.body
            reduced = _contract(binders, body, args)
            if reduced is None:
                binders, body = binders[:1], head.body
                reduced = _contract(binders, body, args)
            head = reduced
            steps += len(binders)


def _contract(binders: list[str], body: Term, args: list[Term]) -> Term | None:
    """Contract the head abstraction's binders b1..bk, over body, with the
    last k arguments on the stack: the new head, or None, with the stack
    left as it was, when substitute_many gives None (never for k = 1).

    Only the live arguments are substituted: those whose binder is free in
    the body and not shadowed by a later binder of the k.  The arguments
    along the body's spine that a binder is free in are substituted and
    pushed straight onto the stack, and only the spine's head is substituted
    as a term, so that no application is built only to be unwound again.
    """
    free, mapping = body._fv, {}
    for i in range(len(binders) - 1, -1, -1):  # a later binder shadows an earlier one
        if binders[i] in free and binders[i] not in mapping:
            mapping[binders[i]] = args[-1 - i]
    pushed: list[Term] = []
    while type(body) is App and not body._fv.isdisjoint(mapping):
        arg = substitute_many(body.arg, mapping)
        if arg is None:
            return None
        pushed.append(arg)
        body = body.fn
    head = substitute_many(body, mapping)
    if head is None:
        return None
    del args[-len(binders):]
    args += pushed
    return head


def _wrap(prefix: list[str], head: Term, args: list[Term]) -> Term:
    """The prefix binders over head applied to args, the first argument first."""
    term = app(head, *args)
    for binder in reversed(prefix):
        term = Lam(binder, term)
    return term


def head_reduce(term: Term, limits: Limits = DEFAULT_LIMITS,
                args: Sequence[Term] = ()) -> tuple[list[Term], int]:
    """Head-reduce (term) args... to head normal form, returning (spine,
    beta steps).  The arguments go straight onto the machine's stack, so
    their application to term is not built first.

    The spine is the head normal form as a list, its head first, then its
    arguments, so that app(*spine) builds it and a caller that splits it
    builds no application: the head is never an App.  A head normal form
    under a lambda-prefix comes alone, built, in a one-element list; when it
    took no step and was given no arguments that is [term], the term itself.
    """
    prefix, head, stack, steps = _run_head(term, list(reversed(args)), 0, limits.head_fuel)
    if isinstance(head, Lam):
        raise FuelExhausted(STAGE_HEAD, _wrap(prefix, head, stack[::-1]), steps)
    if prefix:
        return [_wrap(prefix, head, stack[::-1]) if steps or args else term], steps
    stack.append(head)
    stack.reverse()
    return stack, steps


def _rebuild(prefix: list[str], head: Term, items: list[Term]) -> Term:
    """The head normal form with these items: a head constant's payload,
    then the arguments."""
    if isinstance(head, Const) and head.payload:
        cut = len(head.payload)
        head, items = Const(head.family, head.level, tuple(items[:cut])), items[cut:]
    return _wrap(prefix, head, items)


def normalize(term: Term, limits: Limits = DEFAULT_LIMITS) -> Term:
    """Normal-order reduction to beta-normal form, fuel-bounded.

    Normal order is head reduction to a head normal form, then the
    normalization of its items left to right: a head constant's payload,
    then the arguments.  Each frame on the stack is a head normal form's
    parts and the normal forms of its items done so far; `term` is the next
    item.
    """
    steps = 0
    frames: list[tuple[list[str], Term, list[Term], list[Term]]] = []
    while True:
        prefix, head, args, steps = _run_head(term, [], steps, limits.norm_fuel)
        args.reverse()
        if isinstance(head, Lam):
            term = _wrap(prefix, head, args)
            # put the item back into its context, innermost frame first
            for fprefix, fhead, items, done in reversed(frames):
                term = _rebuild(fprefix, fhead, done + [term] + items[len(done) + 1:])
            raise FuelExhausted(STAGE_NORM, term, steps)
        items = [*head.payload, *args] if isinstance(head, Const) else args
        frames.append((prefix, head, items, []))
        while True:
            prefix, head, items, done = frames[-1]
            if len(done) < len(items):
                term = items[len(done)]
                break
            frames.pop()
            hnf = _rebuild(prefix, head, done)
            if not frames:
                return hnf
            frames[-1][3].append(hnf)  # into the parent frame's done list


def _nf_tokens(term: Term, fuel: int) -> list[tuple] | None:
    """term's normal form as a flat, name-free token list, or None when more
    than `fuel` beta-steps would be needed.  Two terms that have normal
    forms are beta-equal exactly when their lists are equal.

    The reduction is normal order, as in normalize, with closures in place
    of substitution.  A closure is a term and an environment, a linked
    (name, value, parent) tuple looked up innermost first; a value is a
    closure, or the de Bruijn level of a lambda crossed with no argument.  A
    head abstraction with an argument on the stack binds its binder to it,
    or drops it when the binder is not free in the body; either way it is
    one beta-step, so the steps and the fuel cut-off are exactly normalize's.
    An argument that is a variable bound to a closure is pushed as that
    closure, so a chain of variables passed on from binder to binder is
    resolved once, not at every lookup; resolving a name is no beta-step.

    Each head normal form gives one token, (prefix length, head, item
    count), followed by the tokens of its items in pre-order.  The head is
    a level, a free name (str), or (family, level, payload length) for a
    constant; its items are a constant's payload, then the arguments.  An
    explicit stack holds the items still to do with their depth, so there
    is no recursion, and comparing two flat lists needs none either.
    """
    tokens: list[tuple] = []
    steps = 0
    todo: list[tuple[Term, Any, int]] = [(term, None, 0)]
    while todo:
        t, env, depth = todo.pop()
        prefix = 0
        args: list[tuple[Term, Any]] = []  # closures, the first argument last
        while True:
            kind = type(t)
            if kind is App:
                arg = t.arg
                closure = (arg, env)
                if type(arg) is Var:  # pass on the closure it names, not one of it
                    name, scope = arg.name, env
                    while scope is not None and scope[0] != name:
                        scope = scope[2]
                    if scope is not None and type(scope[1]) is not int:
                        closure = scope[1]
                args.append(closure)
                t = t.fn
            elif kind is Lam:
                if args:
                    if steps == fuel:
                        return None
                    steps += 1
                    value = args.pop()
                else:
                    value = depth
                    depth += 1
                    prefix += 1
                if t.binder in t.body._fv:
                    env = (t.binder, value, env)
                t = t.body
            elif kind is Var:
                name, scope = t.name, env
                while scope is not None and scope[0] != name:
                    scope = scope[2]
                if scope is None:
                    head = name
                    break
                value = scope[1]
                if type(value) is int:
                    head = value
                    break
                t, env = value
            else:
                head = (t.family, t.level, len(t.payload))
                args += [(p, env) for p in reversed(t.payload)]
                break
        tokens.append((prefix, head, len(args)))
        todo += [(a, e, depth) for a, e in args]
    return tokens


def is_numeral(t: Term, n: int, limits: Limits = DEFAULT_LIMITS) -> bool | None:
    """Is t beta-equal to the numeral #n?  None when fuel runs out first.

    t's normal-form tokens are compared with #n's, built from n: \\f x. at
    levels 0 and 1, then f applied n times, then x.
    """
    if n < 0:
        raise ValueError("Church numerals are non-negative")
    tokens = _nf_tokens(t, limits.norm_fuel)
    if tokens is None:
        return None
    if n == 0:
        return tokens == [(2, 1, 0)]
    return tokens == [(2, 0, 1)] + [(0, 0, 1)] * (n - 1) + [(0, 1, 0)]


def beta_equiv(t: Term, u: Term, limits: Limits = DEFAULT_LIMITS) -> bool | None:
    """True/False by comparing normal forms up to alpha, None when fuel runs
    out first."""
    tokens = _nf_tokens(t, limits.norm_fuel)
    if tokens is None:
        return None
    other = _nf_tokens(u, limits.norm_fuel)
    return None if other is None else tokens == other


# check_successor's answer at one k: as a level verdict, and as a word
_SUCCESSOR_ANSWERS = {True: (Verdict.PASS, "ok"), False: (Verdict.FAIL, "FAILED"),
                      None: (Verdict.UNKNOWN, "unknown (fuel)")}


class SuccessorReport(NamedTuple):
    """Whether (term) #k is beta-equal to #k+1, per k up to k_max; None: no fuel."""

    term: Term
    k_max: int
    results: tuple[bool | None, ...]

    @property
    def verdict(self) -> Verdict:
        return Verdict.fold(_SUCCESSOR_ANSWERS[r][0] for r in self.results)

    def to_dict(self) -> dict[str, Any]:
        return {"check": "successor", "term": pretty(self.term), "k_max": self.k_max,
                "verdict": self.verdict, "results": list(self.results)}

    def lines(self) -> Iterator[str]:
        for k, result in enumerate(self.results):
            yield f"k={k}: {_SUCCESSOR_ANSWERS[result][1]}"
        yield f"verdict: {self.verdict}"


def _successor_answer(successor: Term, k: int, limits: Limits) -> bool | None:
    """Is (successor) #k beta-equal to #k+1?  None: norm fuel ran out."""
    return is_numeral(App(successor, mk_church(k)), k + 1, limits)


def check_successor(successor: Term, k_max: int,
                    limits: Limits = DEFAULT_LIMITS) -> SuccessorReport:
    """Does (S) k-numeral equal the k+1 numeral for every k up to k_max?"""
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    if not is_closed_pure(successor):
        raise ValueError("successor must be a closed constant-free term")
    results = tuple(_successor_answer(successor, k, limits) for k in range(k_max + 1))
    return SuccessorReport(successor, k_max, results)
