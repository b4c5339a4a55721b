"""Built-in bindings: identity, two successors, and the operator corpus.

G, d0, T1, F, T2, a3, b3, T3 all mention a successor S.  Their sources are
parsed once, at import, with S left free; `prelude` puts the chosen
successor in for S, so asking for a different successor yields differently
instantiated operators.
"""

from __future__ import annotations

from .syntax import parse
from .terms import Term, is_closed_pure, substitute


def _bind(sources: tuple[tuple[str, str], ...], env: dict[str, Term]) -> dict[str, Term]:
    """Parse each source against env and the names bound before it."""
    bound: dict[str, Term] = {}
    for name, source in sources:
        bound[name] = parse(source, env | bound)
    return bound


_CORE_SOURCES = (
    ("I", "\\x. x"),
    ("S1", "\\n f x. f (n f x)"),
    ("S2", "\\n f x. n f (f x)"),
)
_OPERATOR_SOURCES = (
    ("G", "\\x y. x (\\z. y (S z))"),
    ("d0", "\\f. f #0"),
    ("T1", "\\n. n G d0"),
    ("F", "\\x y. x (S y)"),
    ("T2", "\\n f. n F f #0"),
    ("a3", "\\x y z. x (z (x I I (\\x. #0))) (\\x. S (z x))"),
    ("b3", "\\x y z. z x"),
    ("T3", "\\x. x a3 b3 #0 S"),
)
_CORE = _bind(_CORE_SOURCES, {})
# each operator sees the core and the operators before it, but never S
_OPERATORS = _bind(_OPERATOR_SOURCES, _CORE)


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
