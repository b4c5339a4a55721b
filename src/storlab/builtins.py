"""Built-in bindings: identity, two successors, and the operator corpus.

The bindings are two texts in the syntax of a `--defs` file, read by
parse_defs once, at import.  G, d0, T1, F, T2, a3, b3, T3 see the core but
not S, which they leave free; `prelude` puts the chosen successor in for S,
so asking for a different successor yields differently instantiated
operators.
"""

from __future__ import annotations

from .syntax import parse_defs
from .terms import Term, is_closed_pure, substitute


_CORE_DEFS = r"""
def I  = \x. x;
def S1 = \n f x. f (n f x);
def S2 = \n f x. n f (f x);
"""
_OPERATOR_DEFS = r"""
def G  = \x y. x (\z. y (S z));
def d0 = \f. f #0;
def T1 = \n. n G d0;
def F  = \x y. x (S y);
def T2 = \n f. n F f #0;
def a3 = \x y z. x (z (x I I (\x. #0))) (\x. S (z x));
def b3 = \x y z. z x;
def T3 = \x. x a3 b3 #0 S;
"""
_CORE = parse_defs(_CORE_DEFS)
_OPERATORS = parse_defs(_OPERATOR_DEFS, _CORE)


def prelude(successor: str | Term = "S1") -> dict[str, Term]:
    """Standard bindings, with S bound to the chosen successor: a new dict
    on every call.  The successor is closed, so putting it in for S renames
    no binder."""
    env = dict(_CORE)
    if isinstance(successor, str):
        if successor not in env:
            raise ValueError(f"unknown successor {successor!r}")
        successor = env[successor]
    elif not is_closed_pure(successor):
        raise ValueError("successor must be a closed constant-free term")
    env["S"] = successor
    for name, term in _OPERATORS.items():
        env[name] = substitute(term, "S", successor)
    return env
