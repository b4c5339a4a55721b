"""Built-in bindings: identity, two successors, and the operator corpus.

G, d0, T1, F, T2, a3, b3, T3 all mention a successor S; `prelude` binds S
to the chosen successor before those sources are parsed, so asking for a
different successor yields differently instantiated operators.
"""

from __future__ import annotations

from .syntax import parse
from .terms import Term, is_closed_pure

_CORE = (
    ("I", "\\x. x"),
    ("S1", "\\n f x. f (n f x)"),
    ("S2", "\\n f x. n f (f x)"),
)

_OPERATORS = (
    ("G", "\\x y. x (\\z. y (S z))"),
    ("d0", "\\f. f #0"),
    ("T1", "\\n. n G d0"),
    ("F", "\\x y. x (S y)"),
    ("T2", "\\n f. n F f #0"),
    ("a3", "\\x y z. x (z (x I I (\\x. #0))) (\\x. S (z x))"),
    ("b3", "\\x y z. z x"),
    ("T3", "\\x. x a3 b3 #0 S"),
)


def core() -> dict[str, Term]:
    """The bindings that need no successor: I, S1 and S2."""
    env: dict[str, Term] = {}
    for name, source in _CORE:
        env[name] = parse(source, env)
    return env


def prelude(successor: str | Term = "S1") -> dict[str, Term]:
    """Standard bindings, with S bound to the chosen successor."""
    env = core()
    if isinstance(successor, str):
        if successor not in env:
            raise ValueError(f"unknown successor {successor!r}")
        env["S"] = env[successor]
    else:
        if not is_closed_pure(successor):
            raise ValueError("successor must be a closed constant-free term")
        env["S"] = successor
    for name, source in _OPERATORS:
        env[name] = parse(source, env)
    return env
