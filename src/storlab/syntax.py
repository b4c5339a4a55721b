"""Concrete syntax: lexer, parser, pretty-printer, and definition files.

Grammar:

    term  := lam | app
    lam   := ("\\" | "λ") ident+ "." term
    app   := atom atom*                       (left-associative)
    atom  := ident | "#" nat | konst | "(" term ")"
    konst := ("x" | "X") "[" nat (";" term ("," term)*)? "]"
    ident := letter (letter | digit | "_" | "'")*

"#" followed by a digit is a Church numeral literal; "#" followed by
anything else opens a line comment.  Identifiers resolve to the innermost
lambda binder, then to a binding from the environment (spliced verbatim),
and otherwise stand for a free variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .terms import App, Const, Family, Lam, Term, Var, church_value, mk_church


class ParseError(Exception):
    def __init__(self, message: str, text: str = "", pos: int = 0):
        self.pos = pos
        self.line = text.count("\n", 0, pos) + 1
        self.column = pos - text.rfind("\n", 0, pos)
        super().__init__(f"{message} (line {self.line}, column {self.column})")


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    pos: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#(?![0-9])[^\n]*)
      | (?P<church>\#[0-9]+)
      | (?P<nat>[0-9]+)
      | (?P<ident>[A-Za-z][A-Za-z0-9_']*)
      | (?P<lam>\\|λ)
      | (?P<punct>[()\[\];,.=])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        kind = m.lastgroup or ""
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(Token("eof", "", len(text)))
    return tokens


def _as_env(env) -> dict[str, Term]:
    if env is None:
        return {}
    if isinstance(env, Mapping):
        return dict(env)
    return {b.name: b.value for b in env}


class _Parser:
    def __init__(self, text: str, tokens: list[Token], env: dict[str, Term]):
        self.text = text
        self.tokens = tokens
        self.env = env
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.value or 'end of input'!r}",
                             self.text, tok.pos)
        return self.advance()

    def at_atom(self) -> bool:
        tok = self.peek()
        return tok.kind in ("ident", "church") or (tok.kind == "punct" and tok.value == "(")

    def parse_term(self, bound: frozenset[str]) -> Term:
        tok = self.peek()
        if tok.kind == "lam":
            self.advance()
            binders = [self.expect("ident").value]
            while self.peek().kind == "ident":
                binders.append(self.advance().value)
            self.expect("punct", ".")
            body = self.parse_term(bound | set(binders))
            for b in reversed(binders):
                body = Lam(b, body)
            return body
        return self.parse_app(bound)

    def parse_app(self, bound: frozenset[str]) -> Term:
        if not self.at_atom():
            tok = self.peek()
            raise ParseError(f"expected a term, found {tok.value or 'end of input'!r}",
                             self.text, tok.pos)
        term = self.parse_atom(bound)
        while self.at_atom():
            term = App(term, self.parse_atom(bound))
        return term

    def parse_atom(self, bound: frozenset[str]) -> Term:
        tok = self.peek()
        if tok.kind == "church":
            self.advance()
            return mk_church(int(tok.value[1:]))
        if tok.kind == "punct" and tok.value == "(":
            self.advance()
            term = self.parse_term(bound)
            self.expect("punct", ")")
            return term
        if tok.kind == "ident":
            nxt = self.peek(1)
            if tok.value in ("x", "X") and nxt.kind == "punct" and nxt.value == "[":
                return self.parse_const(bound)
            self.advance()
            if tok.value in bound:
                return Var(tok.value)
            if tok.value in self.env:
                return self.env[tok.value]
            return Var(tok.value)
        raise ParseError(f"expected a term, found {tok.value or 'end of input'!r}",
                         self.text, tok.pos)

    def parse_const(self, bound: frozenset[str]) -> Term:
        fam_tok = self.expect("ident")
        family = Family.LOWER if fam_tok.value == "x" else Family.UPPER
        self.expect("punct", "[")
        level = int(self.expect("nat").value)
        payload: list[Term] = []
        if self.peek().kind == "punct" and self.peek().value == ";":
            self.advance()
            payload.append(self.parse_term(bound))
            while self.peek().kind == "punct" and self.peek().value == ",":
                self.advance()
                payload.append(self.parse_term(bound))
        close = self.expect("punct", "]")
        if len(payload) == 1:
            raise ParseError("a stored constant needs at least two payload terms",
                             self.text, close.pos)
        return Const(family, level, tuple(payload))


def parse(text: str, env: Mapping[str, Term] | Iterable | None = None) -> Term:
    """Parse a single term; env maps names to terms spliced on use."""
    tokens = tokenize(text)
    parser = _Parser(text, tokens, _as_env(env))
    term = parser.parse_term(frozenset())
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.value!r}", text, tok.pos)
    return term


@dataclass(frozen=True)
class Binding:
    name: str
    value: Term


def parse_defs(text: str, env: Mapping[str, Term] | Iterable | None = None) -> list[Binding]:
    """Parse a definition file: `def name = term ;` statements.

    Later definitions see earlier ones (and the supplied env); a repeated
    name shadows the previous binding from that point on.
    """
    parser = _Parser(text, tokenize(text), _as_env(env))
    bindings: list[Binding] = []
    while parser.peek().kind != "eof":
        parser.expect("ident", "def")
        name = parser.expect("ident").value
        parser.expect("punct", "=")
        value = parser.parse_term(frozenset())
        parser.expect("punct", ";")
        parser.env[name] = value
        bindings.append(Binding(name, value))
    return bindings


def load_defs(path: str, env: Mapping[str, Term] | Iterable | None = None) -> list[Binding]:
    with open(path, encoding="utf-8") as handle:
        return parse_defs(handle.read(), env)


def pretty(term: Term) -> str:
    """Minimal-parenthesis rendering; re-parsing gives an alpha-equal term.

    Church numerals print as #n and lambda prefixes collapse to one
    backslash with multiple binders.
    """
    return printer()(term)


# How a rendered node is parenthesized below its parent: an atom (variable,
# constant, numeral) never, an application only as an argument, a lambda
# both as a function and as an argument.  At the top, in a payload and after
# a binder prefix nothing is parenthesized.
_ATOM, _APP, _LAM = 0, 1, 2


def printer() -> Callable[[Term], str]:
    """A pretty that renders each distinct node once over all its calls.

    The memo is keyed on node identity and holds the node itself, so an
    id cannot be reused while the printer lives.  It keeps the text of
    every node it has rendered, which along a chain of d nested nodes is
    about d * d / 2 characters, so make one per group of terms that share
    subterms (a run report) and drop it afterwards.
    """
    memo: dict[int, tuple[Term, str, int]] = {}

    def show(term: Term) -> str:
        _render(term, memo)
        return memo[id(term)][1]

    return show


def _render(root: Term, memo: dict[int, tuple[Term, str, int]]) -> None:
    """Put root and every node below it that memo lacks into memo, children
    first, with an explicit stack of (node, ready) entries.  A node is
    pushed ready above its children and rendered from their entries when it
    comes back, so church_value runs once per Lam.  Dispatch is on the exact
    class: class patterns in a match took twice as long here."""
    stack: list[tuple[Term, bool]] = [(root, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if key in memo:
            continue
        cls = type(node)
        if cls is App:
            if ready:
                _, fn_text, fn_kind = memo[id(node.fn)]
                _, arg_text, arg_kind = memo[id(node.arg)]
                if fn_kind == _LAM:
                    fn_text = f"({fn_text})"
                if arg_kind != _ATOM:
                    arg_text = f"({arg_text})"
                memo[key] = (node, f"{fn_text} {arg_text}", _APP)
            else:
                stack += ((node, True), (node.arg, False), (node.fn, False))
        elif cls is Var:
            memo[key] = (node, node.name, _ATOM)
        elif cls is Lam:
            if ready:
                _, text, kind = memo[id(node.body)]
                if kind == _LAM:  # the body's binders join this prefix
                    text = f"\\{node.binder} {text[1:]}"
                else:
                    text = f"\\{node.binder}. {text}"
                memo[key] = (node, text, _LAM)
            elif (n := church_value(node)) is not None:
                memo[key] = (node, f"#{n}", _ATOM)
            else:
                stack += ((node, True), (node.body, False))
        elif cls is Const:
            if ready:
                inner = ", ".join(memo[id(p)][1] for p in node.payload)
                memo[key] = (node, f"{node.family.value}[{node.level}; {inner}]", _ATOM)
            elif node.payload:
                stack.append((node, True))
                stack += ((p, False) for p in node.payload)
            else:
                memo[key] = (node, f"{node.family.value}[{node.level}]", _ATOM)
        else:
            raise TypeError(f"not a term: {node!r}")
