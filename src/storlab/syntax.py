"""Concrete syntax: lexer, parser, pretty-printer, and definition files.

Grammar:

    term  := lam | app
    lam   := ("\\" | "λ") ident+ "." term
    app   := atom atom*                       (left-associative)
    atom  := ident | "#" nat | konst | "(" term ")"
    konst := ("x" | "X") "[" nat (";" term ("," term)*)? "]"
    ident := letter (letter | digit | "_" | "'")*

"#" followed by a digit is a Church numeral literal, at most MAX_NUMERAL;
"#" followed by anything else opens a line comment.  Identifiers resolve to
the innermost lambda binder, then to a binding from the environment
(spliced verbatim), and otherwise stand for a free variable.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping, NamedTuple

from .terms import App, Const, Family, Lam, Term, Var, church_value, mk_church


# A "#" literal builds one node per unit, about 56 MB of heap at the bound;
# a level in x[...] or X[...] builds none and has no bound.
MAX_NUMERAL = 1_000_000


class ParseError(Exception):
    def __init__(self, message: str, text: str = "", pos: int = 0):
        self.pos = pos
        self.line = text.count("\n", 0, pos) + 1
        self.column = pos - text.rfind("\n", 0, pos)
        super().__init__(f"{message} (line {self.line}, column {self.column})")


class Token(NamedTuple):
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


class _Parser:
    def __init__(self, text: str, env: Mapping[str, Term], defs: bool = False):
        self.text = text
        self.tokens = tokenize(text)
        self.env = env
        self.defs = defs  # in a definition file, `def` ends a term instead of naming one
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        self.i += 1  # never past eof: every caller has looked at the token
        return self.tokens[self.i - 1]

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.value or 'end of input'!r}",
                             self.text, tok.pos)
        return self.advance()

    def number(self, tok: Token) -> int:
        """The value of a level or of a numeral literal, whose "#" is dropped.
        int() refuses more digits than sys.get_int_max_str_digits(); a
        numeral literal above MAX_NUMERAL is refused too."""
        digits = tok.value.lstrip("#")
        try:
            value = int(digits)
        except ValueError:
            raise ParseError(f"number too long: {len(digits)} digits",
                             self.text, tok.pos) from None
        if tok.kind == "church" and value > MAX_NUMERAL:
            raise ParseError(f"numeral literal above the bound #{MAX_NUMERAL}",
                             self.text, tok.pos)
        return value

    def term(self) -> Term:
        """Parse the term at the cursor, up to the first token that cannot
        continue it.  Each open parenthesis or constant payload is a frame on
        an explicit stack.  A frame holds the binders of its lambda prefix,
        its scope (the env names that open binders shadow; no other name
        needs one), the application built so far and its opener: None at the
        top, "(", or a constant's family, level and payload so far.  A lambda
        may only start a term, a parenthesis or a payload item; any other
        token that is not an atom closes the frame.
        """
        stack: list[tuple] = []
        binders, scope, fn, opener = [], frozenset(), None, None
        while True:
            tok = self.peek()
            if tok.kind == "lam" and fn is None:
                self.advance()
                names = [self.expect("ident").value]
                while self.peek().kind == "ident":
                    names.append(self.advance().value)
                self.expect("punct", ".")
                binders += names
                scope = scope.union(n for n in names if n in self.env)
                continue
            if tok.kind == "church":
                self.advance()
                atom = mk_church(self.number(tok))
            elif tok.kind == "ident" and not (self.defs and tok.value == "def"):
                self.advance()
                if tok.value in ("x", "X") and self.peek().value == "[":
                    self.advance()
                    level = self.number(self.expect("nat"))
                    if self.peek().value == ";":
                        self.advance()
                        stack.append((binders, scope, fn, opener))
                        binders, fn, opener = [], None, (Family(tok.value), level, [])
                        continue
                    self.expect("punct", "]")
                    atom = Const(Family(tok.value), level)
                elif tok.value in scope or tok.value not in self.env:
                    atom = Var(tok.value)
                else:
                    atom = self.env[tok.value]
            elif tok.value == "(":
                self.advance()
                stack.append((binders, scope, fn, opener))
                binders, fn, opener = [], None, "("
                continue
            else:
                if fn is None:
                    raise ParseError(f"expected a term, found {tok.value or 'end of input'!r}",
                                     self.text, tok.pos)
                for b in reversed(binders):
                    fn = Lam(b, fn)
                if opener is None:
                    return fn
                if opener == "(":
                    self.expect("punct", ")")
                    atom = fn
                else:
                    family, level, payload = opener
                    payload.append(fn)
                    if tok.value == ",":
                        self.advance()
                        binders, scope, fn = [], stack[-1][1], None
                        continue
                    close = self.expect("punct", "]")
                    if len(payload) == 1:
                        raise ParseError("a stored constant needs at least two payload terms",
                                         self.text, close.pos)
                    atom = Const(family, level, tuple(payload))
                binders, scope, fn, opener = stack.pop()
            fn = atom if fn is None else App(fn, atom)


def parse(text: str, env: Mapping[str, Term] | None = None) -> Term:
    """Parse a single term; env maps names to terms spliced on use."""
    parser = _Parser(text, env or {})
    term = parser.term()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.value!r}", text, tok.pos)
    return term


def parse_defs(text: str, env: Mapping[str, Term] | None = None) -> dict[str, Term]:
    """Parse a definition file of `def name = term ;` statements into a
    dict, in file order.

    Later definitions see earlier ones (and the supplied env); a repeated
    name shadows the previous definition from that point on and keeps only
    its last value in the dict.  `def` ends a term here, so a definition
    that lacks its `;` is reported at the next `def`.
    """
    env = dict(env or {})
    parser = _Parser(text, env, defs=True)
    defs: dict[str, Term] = {}
    while parser.peek().kind != "eof":
        parser.expect("ident", "def")
        name = parser.expect("ident").value
        parser.expect("punct", "=")
        value = parser.term()
        parser.expect("punct", ";")
        env[name] = defs[name] = value
    return defs


def load_defs(path: str, env: Mapping[str, Term] | None = None) -> dict[str, Term]:
    with open(path, encoding="utf-8") as handle:
        return parse_defs(handle.read(), env)


def pretty(term: Term) -> str:
    """Minimal-parenthesis rendering; re-parsing gives an alpha-equal term.

    Church numerals print as #n and lambda prefixes collapse to one
    backslash with multiple binders.
    """
    return printer()(term)


def printer() -> Callable[[Term], str]:
    """A pretty that renders each distinct node once over all its calls.

    The memo is keyed on node identity and holds the node itself, so an
    id cannot be reused while the printer lives.  It keeps the text of
    every node it has rendered, which along a chain of d nested nodes is
    about d * d / 2 characters, so make one per group of terms that share
    subterms (a run report) and drop it afterwards.
    """
    memo: dict[int, tuple[Term, str]] = {}

    def show(term: Term) -> str:
        _render(term, memo)
        return memo[id(term)][1]

    return show


def _render(root: Term, memo: dict[int, tuple[Term, str]]) -> None:
    """Put root and every node below it that memo lacks into memo, children
    first, with an explicit stack of (node, ready) entries.  A node is
    pushed ready above its children and rendered from their entries when it
    comes back, so church_value runs once per Lam.  Dispatch is on the exact
    class: class patterns in a match took twice as long here.  A lambda
    printed with a backslash (not as #n) is parenthesized as a function and
    as an argument, an application only as an argument, nothing else ever."""
    stack: list[tuple[Term, bool]] = [(root, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if key in memo:
            continue
        cls = type(node)
        if cls is App:
            if ready:
                fn, fn_text = memo[id(node.fn)]
                arg, arg_text = memo[id(node.arg)]
                if type(fn) is Lam and fn_text[0] == "\\":
                    fn_text = f"({fn_text})"
                if type(arg) is App or (type(arg) is Lam and arg_text[0] == "\\"):
                    arg_text = f"({arg_text})"
                memo[key] = (node, f"{fn_text} {arg_text}")
            else:
                stack += ((node, True), (node.arg, False), (node.fn, False))
        elif cls is Var:
            memo[key] = (node, node.name)
        elif cls is Lam:
            if ready:
                body, text = memo[id(node.body)]
                if type(body) is Lam and text[0] == "\\":  # the body's binders join this prefix
                    text = f"\\{node.binder} {text[1:]}"
                else:
                    text = f"\\{node.binder}. {text}"
                memo[key] = (node, text)
            elif (n := church_value(node)) is not None:
                memo[key] = (node, f"#{n}")
            else:
                stack += ((node, True), (node.body, False))
        elif cls is Const:
            if ready:
                inner = ", ".join(memo[id(p)][1] for p in node.payload)
                memo[key] = (node, f"{node.family.value}[{node.level}; {inner}]")
            elif node.payload:
                stack.append((node, True))
                stack += ((p, False) for p in node.payload)
            else:
                memo[key] = (node, f"{node.family.value}[{node.level}]")
        else:
            raise TypeError(f"not a term: {node!r}")
