"""A fixed reference job that measures how fast the host runs right now.

The host this benchmark was built on changes speed by 20-40% over tens of
seconds (other tenants share its cores and memory), and storlab's passes
slow down with it.  Interleaving this job with the passes gives a reading
of the host's speed taken at the same moments.  It runs in a helper
process of its own (`python3 bench/reference.py`: each line read from
stdin runs the job once and answers with its seconds), so nothing storlab
does to the benchmark's heap, garbage collector or allocator reaches the
yardstick.  The job is a frozen copy
of the work storlab does most (capture-avoiding substitution, free-name
sets, head and normal-order reduction on Church numerals, printing), in
this file's own code, so a change to storlab never changes it.  Do not
edit it: its time is the yardstick that pass times are compared against.
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass
from typing import Any, Union


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


Term = Union[Var, Lam, App]


def free_names(term: Term) -> frozenset[str]:
    match term:
        case Var(name):
            return frozenset((name,))
        case Lam(binder, body):
            return free_names(body) - {binder}
        case App(fn, arg):
            return free_names(fn) | free_names(arg)
    raise TypeError(term)


def substitute(term: Term, name: str, value: Term) -> Term:
    def go(t: Term, m: dict[str, Term]) -> Term:
        match t:
            case Var(n):
                return m.get(n, t)
            case App(fn, arg):
                return App(go(fn, m), go(arg, m))
            case Lam(binder, body):
                body_free = free_names(body)
                live = {k: v for k, v in m.items() if k != binder and k in body_free}
                if not live:
                    return t
                incoming: set[str] = set()
                for v in live.values():
                    incoming |= free_names(v)
                if binder in incoming:
                    renamed = binder
                    while renamed in incoming | body_free | set(live):
                        renamed += "'"
                    body = go(body, {binder: Var(renamed)})
                    binder = renamed
                return Lam(binder, go(body, live))
        raise TypeError(t)

    return go(term, {name: value})


def head_reduce(term: Term) -> Term:
    while True:
        prefix = []
        body = term
        while isinstance(body, Lam):
            prefix.append(body.binder)
            body = body.body
        args = []
        while isinstance(body, App):
            args.append(body.arg)
            body = body.fn
        if not (isinstance(body, Lam) and args):
            return term
        args.reverse()
        result = substitute(body.body, body.binder, args[0])
        for a in args[1:]:
            result = App(result, a)
        for binder in reversed(prefix):
            result = Lam(binder, result)
        term = result


def _normal_step(term: Term) -> Term | None:
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
    raise TypeError(term)


def pretty(term: Term) -> str:
    match term:
        case Var(name):
            return name
        case Lam(binder, body):
            return f"(\\{binder}. {pretty(body)})"
        case App(fn, arg):
            return f"({pretty(fn)} {pretty(arg)})"
    raise TypeError(term)


def church(n: int) -> Term:
    body: Term = Var("x")
    for _ in range(n):
        body = App(Var("f"), body)
    return Lam("f", Lam("x", body))


def _lam(*names_and_body: Any) -> Term:
    *names, body = names_and_body
    for name in reversed(names):
        body = Lam(name, body)
    return body


def _app(fn: Term, *args: Term) -> Term:
    for a in args:
        fn = App(fn, a)
    return fn


# T1 = \n. n G d0 with G = \x y. x (\z. y (S z)), d0 = \f. f #0, S = S1
_S1 = _lam("n", "f", "x", App(Var("f"), _app(Var("n"), Var("f"), Var("x"))))
_G = _lam("x", "y", App(Var("x"), Lam("z", App(Var("y"), App(_S1, Var("z"))))))
_D0 = Lam("f", App(Var("f"), church(0)))
_T1 = Lam("n", _app(Var("n"), _G, _D0))

LEVEL = 16


def job() -> int:
    """Store the numeral LEVEL with T1, normalize the stored copy, print
    every intermediate; returns the printed length as a check value."""
    printed = 0
    hnf = head_reduce(_app(_T1, church(LEVEL), Var("k")))
    if not (isinstance(hnf, App) and hnf.fn == Var("k")):
        raise AssertionError("reference job did not reach (k) tau")
    tau = hnf.arg
    while (nxt := _normal_step(tau)) is not None:
        printed += len(pretty(nxt))
        tau = nxt
    if tau != church(LEVEL):
        raise AssertionError("reference job computed a wrong numeral")
    return printed


def serve() -> None:
    """Time job() once for every line read from stdin."""
    for _ in range(3):  # warm-up, not reported
        job()
    for _ in sys.stdin:
        gc.collect()
        start = time.perf_counter()
        job()
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    serve()
