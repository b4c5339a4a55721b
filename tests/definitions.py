"""Concrete inputs for sampling the paper's definition of a storage operator.

T is a storage operator when, for every numeral n, there is one closed tau_n
beta-equal to #n such that (T) t f head-reduces to (f) tau_n for every t
beta-equal to #n.  The checker decides this symbolically, by runs on a seed
constant; here the definition is applied as written, to a few t per n.
delayed_numeral gives the upper family's inputs, which drive an operator
through the successor S one head step at a time.
"""

from __future__ import annotations

import random

from genterms import head_expansion
from storlab.checker import PROBE
from oracles import head_normal_form, spine
from storlab.syntax import parse
from storlab.terms import App, Lam, Term, Var, app, app_power, mk_church

ADD = parse(r"\a b f x. a f (b f x)")  # Church addition


def numeral_inputs(n: int, env: dict[str, Term]) -> dict[str, Term]:
    """Terms beta-equal to #n, by name; env gives the successors S1 and S2."""
    church, zero = mk_church(n), mk_church(0)
    return {
        "#n": church,
        "S1^n #0": app_power(env["S1"], n, zero),
        "S2^n #0": app_power(env["S2"], n, zero),
        r"(\k. k) #n": App(Lam("k", Var("k")), church),
        "ADD #n #0": app(ADD, church, zero),
        "ADD #0 #n": app(ADD, zero, church),
    }


def delayed_numeral(n: int, successor: Term, r: random.Random) -> Term:
    """A closed term that head-reduces to (S) t with t such a term for n - 1,
    or at n = 0 to #0: (S)^n #0 with each S, each #0 and each (S) t wrapped
    in 0-2 nested head-expansions (genterms.head_expansion)."""
    def delayed(s: Term) -> Term:
        for _ in range(r.randint(0, 2)):
            s = head_expansion(r, r.randrange(3), s)
        return s

    t = delayed(mk_church(0))
    for _ in range(n):
        t = delayed(App(delayed(successor), t))
    return t


def stored(operator: Term, t: Term) -> Term | None:
    """The tau of (operator) t f's head normal form (f) tau, or None when
    that head normal form has another shape."""
    v, _ = head_normal_form(operator, args=(t, Var(PROBE)))
    head, args = spine(v)
    if isinstance(v, Lam) or head != Var(PROBE) or len(args) != 1:
        return None
    return args[0]
