"""Reference implementations the production code replaced, kept as oracles.

Each is the recursive original of a walker that now runs on an explicit
stack: simultaneous substitution over a dict, alpha-equivalence with one
binder map per scope, head reduction as a loop of single head steps, each
unwinding and rebuilding the whole spine, and the constant mappings sigma,
sigma-hat and delta as a tree walk after a separate scan for constants of
the rejected family, the repr the dataclasses generated, and the parser as
four methods that call one another.  They recurse once per level of depth,
so they are for small generated terms only.  The delta correspondence maps
each state of a lower trace on its own, without the memo that
theorems._delta_correspondence shares across the trace.  Theorem 1's
sigma-hat check head-reduces (T) (S^)^n 0^ f once and tests the probe and
the numeral by hand, without the run's closedness test on t.
beta_equiv is the original that normalizes both sides and compares them by
alpha-equivalence; nf_tokens is the closure machine before it followed
chains of variable closures.  Theorem 3's upper tau check normalizes every upper tau a
second time, as the theorem did before it read the runs' verdict.  The
prelude parses both builtin definition files on each call, with S bound to
the successor.  spine unwinds an application for these oracles and for the
lemma checks in theory.py; head_normal_form builds the spine that
head_reduce hands back.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from storlab.builtins import _CORE_DEFS, _OPERATOR_DEFS
from storlab.checker import PROBE
from storlab.reduction import (
    DEFAULT_LIMITS,
    STAGE_HEAD,
    FuelExhausted,
    Limits,
    Verdict,
    beta_equiv,
    head_reduce,
    is_numeral,
    normalize,
)
from storlab.syntax import ParseError, Token, tokenize
from storlab.terms import (
    App,
    Const,
    Family,
    Lam,
    Term,
    Var,
    alpha_eq,
    app,
    app_power,
    fresh_name,
    free_names,
    is_closed_pure,
    iter_consts,
    mk_church,
)


def spine(term: Term) -> tuple[Term, list[Term]]:
    """Unwind nested applications into (head, argument list)."""
    args: list[Term] = []
    while isinstance(term, App):
        args.append(term.arg)
        term = term.fn
    args.reverse()
    return term, args


def head_normal_form(term: Term, limits: Limits = DEFAULT_LIMITS,
                     args: tuple[Term, ...] = ()) -> tuple[Term, int]:
    """head_reduce's answer with its spine built: (head normal form, steps)."""
    parts, steps = head_reduce(term, limits, args)
    return app(*parts), steps


def substitute_many(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution of free variables.

    Binders are renamed (deterministically, by priming) only when they would
    capture a free name of an incoming term.  Constant payloads are rewritten
    like any other subterm.  A subterm with none of the mapped names free is
    returned as it is, not rebuilt.
    """
    return _subst(term, dict(mapping))


def _subst(t: Term, m: dict[str, Term]) -> Term:
    match t:
        case Var(name):
            return m.get(name, t)
        case App(fn, arg):
            if free_names(t).isdisjoint(m):
                return t
            return App(_subst(fn, m), _subst(arg, m))
        case Const(family, level, payload):
            if free_names(t).isdisjoint(m):
                return t
            return Const(family, level, tuple(_subst(p, m) for p in payload))
        case Lam(binder, body):
            body_free = free_names(body)
            live = {k: v for k, v in m.items() if k != binder and k in body_free}
            if not live:
                return t
            incoming: set[str] = set()
            for v in live.values():
                incoming |= free_names(v)
            if binder in incoming:
                renamed = fresh_name(binder, incoming | body_free | set(live))
                body = _subst(body, {binder: Var(renamed)})
                binder = renamed
            return Lam(binder, _subst(body, live))
    raise TypeError(f"not a term: {t!r}")


def oracle_alpha_eq(t: Term, u: Term) -> bool:
    return _alpha(t, u, {}, {}, 0)


def _alpha(t: Term, u: Term, tb: dict, ub: dict, depth: int) -> bool:
    match (t, u):
        case (Var(a), Var(b)):
            return tb.get(a, a) == ub.get(b, b)
        case (Lam(a, abody), Lam(b, bbody)):
            return _alpha(abody, bbody, {**tb, a: depth}, {**ub, b: depth}, depth + 1)
        case (App(af, aa), App(bf, ba)):
            return _alpha(af, bf, tb, ub, depth) and _alpha(aa, ba, tb, ub, depth)
        case (Const(afam, alvl, apay), Const(bfam, blvl, bpay)):
            return (
                afam is bfam
                and alvl == blvl
                and len(apay) == len(bpay)
                and all(_alpha(p, q, tb, ub, depth) for p, q in zip(apay, bpay))
            )
        case _:
            return False


def oracle_repr(t: Term) -> str:
    match t:
        case Var(name):
            return f"Var(name={name!r})"
        case Lam(binder, body):
            return f"Lam(binder={binder!r}, body={oracle_repr(body)})"
        case App(fn, arg):
            return f"App(fn={oracle_repr(fn)}, arg={oracle_repr(arg)})"
        case Const(family, level, payload):
            items = ", ".join(oracle_repr(p) for p in payload)
            return f"Const(family={family!r}, level={level!r}, payload=({items}))"
    raise TypeError(f"not a term: {t!r}")


def oracle_head_step(term: Term) -> Term | None:
    """Contract the head redex by splitting the whole term into prefix,
    head and arguments and wrapping it back; None at a head normal form."""
    prefix: list[str] = []
    while isinstance(term, Lam):
        prefix.append(term.binder)
        term = term.body
    head, args = spine(term)
    if not isinstance(head, Lam):
        return None
    term = app(_subst(head.body, {head.binder: args[0]}), *args[1:])
    for binder in reversed(prefix):
        term = Lam(binder, term)
    return term


def oracle_head_reduce(term: Term, limits: Limits = DEFAULT_LIMITS) -> tuple[Term, int]:
    steps = 0
    while steps < limits.head_fuel:
        nxt = oracle_head_step(term)
        if nxt is None:
            return term, steps
        term = nxt
        steps += 1
    if oracle_head_step(term) is None:
        return term, steps
    raise FuelExhausted(STAGE_HEAD, term, steps)


def oracle_beta_equiv(t: Term, u: Term, limits: Limits = DEFAULT_LIMITS) -> bool | None:
    try:
        tn = normalize(t, limits)
        un = normalize(u, limits)
    except FuelExhausted:
        return None
    return alpha_eq(tn, un)


def oracle_nf_tokens(term: Term, fuel: int) -> list[tuple] | None:
    """reduction._nf_tokens as it was before it passed on the closure a bare
    variable argument names: each such argument becomes a new closure of the
    variable, so a chain of them is walked at every lookup."""
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
                args.append((t.arg, env))
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


def oracle_upper_tau_ok(upper, limits: Limits = DEFAULT_LIMITS) -> bool | None:
    """Every run of upper has a tau beta-equal to the numeral of its level:
    False when some run's tau is not, else None when a run ran out of fuel
    before its tau or its comparison was decided."""
    def answer(r) -> bool | None:
        if r.tau is None:
            return None if r.verdict == Verdict.FUEL else False
        return beta_equiv(r.tau, mk_church(r.n), limits)

    answers = set(map(answer, upper))
    return False if False in answers else None if None in answers else True


def oracle_hat_check(operator: Term, successor: Term, upper,
                     limits: Limits = DEFAULT_LIMITS) -> tuple[Verdict, bool | None]:
    """theorems._hat_check as its own head reduction: (sigma_hat,
    sigma_hat_matches_tau) for the level of the successful upper run."""
    numeral = app_power(App(Lam("x", successor), Var("y")), upper.n,
                        App(Lam("x", mk_church(0)), Var("y")))
    try:
        hnf, _ = head_normal_form(app(operator, numeral, Var(PROBE)), limits)
    except FuelExhausted:
        return Verdict.UNKNOWN, None
    head, args = spine(hnf)
    if isinstance(hnf, Lam) or head != Var(PROBE) or len(args) != 1:
        return Verdict.FAIL, None
    t = args[0]
    equal = is_numeral(t, upper.n, limits)
    if equal is None:
        return Verdict.UNKNOWN, None
    return (Verdict.PASS if equal else Verdict.FAIL), alpha_eq(t, upper.tau)


def _reject_family(t: Term, family: Family, who: str) -> None:
    for const in iter_consts(t):
        if const.family is family:
            raise ValueError(f"{who} does not accept {family.value}-family constants")


def _map_consts(t: Term, image: Callable[[Const], Term]) -> Term:
    """t rebuilt with every constant replaced by image(constant); payloads
    are left to image."""
    match t:
        case Var():
            return t
        case Const():
            return image(t)
        case Lam(binder, body):
            return Lam(binder, _map_consts(body, image))
        case App(fn, arg):
            return App(_map_consts(fn, image), _map_consts(arg, image))
    raise TypeError(f"not a term: {t!r}")


def oracle_sigma_subst(t: Term, successor: Term) -> Term:
    if not is_closed_pure(successor):
        raise ValueError("successor must be a closed constant-free term")
    _reject_family(t, Family.LOWER, "sigma_subst")
    zero = mk_church(0)
    return _map_consts(t, lambda c: app_power(successor, c.level, zero))


def oracle_sigma_hat_subst(t: Term, successor: Term, y: str = "y") -> Term:
    if not is_closed_pure(successor):
        raise ValueError("successor must be a closed constant-free term")
    if y in free_names(t):
        raise ValueError(f"{y!r} occurs free in the term")
    _reject_family(t, Family.LOWER, "sigma_hat_subst")
    s_hat = App(Lam("x", successor), Var(y))
    zero_hat = App(Lam("x", mk_church(0)), Var(y))
    return _map_consts(t, lambda c: app_power(s_hat, c.level, zero_hat))


def oracle_delta_forward(t: Term) -> Term:
    _reject_family(t, Family.UPPER, "delta_forward")
    return _map_consts(t, _delta_const)


def _delta_const(const: Const) -> Term:
    if not const.payload:
        return Const(Family.UPPER, const.level)
    image = tuple(_map_consts(p, _delta_const) for p in const.payload)
    stored = Const(Family.UPPER, const.level, image)
    return App(App(stored, image[0]), image[1])


def oracle_delta_correspondence(lower, upper, limits: Limits = DEFAULT_LIMITS) -> bool | None:
    """theorems._delta_correspondence state by state: each lower state's
    delta image mapped on its own, head-reduced and compared with the
    upper state's head normal form."""
    if len(lower.trace) != len(upper.trace):
        return False
    for mine, theirs in zip(lower.trace, upper.trace):
        try:
            hnf, _ = head_normal_form(oracle_delta_forward(mine.u), limits)
        except FuelExhausted:
            return None
        if not alpha_eq(hnf, theirs.v):
            return False
    return True


class _OracleParser:
    def __init__(self, text: str, tokens: list[Token], env: dict[str, Term],
                 defs: bool = False):
        self.text = text
        self.tokens = tokens
        self.env = env
        self.defs = defs
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
        if tok.kind == "ident":
            return not (self.defs and tok.value == "def")
        return tok.kind == "church" or (tok.kind == "punct" and tok.value == "(")

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


def oracle_parse(text: str, env: Mapping[str, Term] | None = None) -> Term:
    parser = _OracleParser(text, tokenize(text), dict(env or {}))
    term = parser.parse_term(frozenset())
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.value!r}", text, tok.pos)
    return term


def oracle_parse_defs(text: str, env: Mapping[str, Term] | None = None) -> dict[str, Term]:
    parser = _OracleParser(text, tokenize(text), dict(env or {}), defs=True)
    defs: dict[str, Term] = {}
    while parser.peek().kind != "eof":
        parser.expect("ident", "def")
        name = parser.expect("ident").value
        parser.expect("punct", "=")
        value = parser.parse_term(frozenset())
        parser.expect("punct", ";")
        parser.env[name] = defs[name] = value
    return defs


def oracle_prelude(successor: str | Term = "S1") -> dict[str, Term]:
    """builtins.prelude as it was before: both builtin definition files
    parsed on each call, the operators with S bound to the successor in the
    env."""
    env = oracle_parse_defs(_CORE_DEFS)
    if isinstance(successor, str):
        if successor not in env:
            raise ValueError(f"unknown successor {successor!r}")
        env["S"] = env[successor]
    else:
        if not is_closed_pure(successor):
            raise ValueError("successor must be a closed constant-free term")
        env["S"] = successor
    env.update(oracle_parse_defs(_OPERATOR_DEFS, env))
    return env
