"""Parser and pretty-printer round trips, definition files, error positions."""

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from genterms import BINDERS, FREEPOOL, any_term, lower_term, p_term, pure_term, rng
from oracles import oracle_parse, oracle_parse_defs, oracle_prelude
from storlab import checker, cli, prelude, syntax
from storlab.checker import run_check
from storlab.reduction import normalize
from storlab.syntax import (
    ParseError,
    load_defs,
    parse,
    parse_defs,
    pretty,
    printer,
    tokenize,
)
from storlab.terms import (
    App,
    Const,
    Family,
    Lam,
    Var,
    alpha_eq,
    app,
    app_power,
    church_value,
    free_names,
    mk_church,
    substitute,
)


def test_parse_church_body():
    assert parse("\\f x. f (f x)") == mk_church(2)


def test_parse_numeral_sugar():
    assert parse("#3") == mk_church(3)
    assert parse("#0") == mk_church(0)


def test_numeral_literals_are_bounded(monkeypatch):
    # each unit of a literal is a node; the bound is read when the literal is
    monkeypatch.setattr(syntax, "MAX_NUMERAL", 5)
    assert parse("#5") == mk_church(5)
    with pytest.raises(ParseError, match=r"^numeral literal above the bound #5 "
                                         r"\(line 1, column 5\)$") as info:
        parse("\\y. #6 y")
    assert info.value.pos == 4
    assert parse("x[6]") == Const(Family.LOWER, 6)  # a level builds no node


def test_parse_constants():
    assert parse("x[2]") == Const(Family.LOWER, 2)
    assert parse("X[2; a, b, c]") == Const(Family.UPPER, 2, (Var("a"), Var("b"), Var("c")))
    assert parse("x[0; \\s. s, q]") == Const(Family.LOWER, 0, (Lam("s", Var("s")), Var("q")))


def test_parse_application_grouping():
    # juxtaposition associates left; parentheses group a whole argument
    assert parse("f a b") == App(App(Var("f"), Var("a")), Var("b"))
    assert parse("f (a b)") == App(Var("f"), App(Var("a"), Var("b")))
    assert parse("\\x. x y") == Lam("x", App(Var("x"), Var("y")))


def test_lambda_binder_collapse():
    assert parse("\\a b. a") == parse("\\a. \\b. a")


def test_pretty_examples():
    assert pretty(Const(Family.LOWER, 0)) == "x[0]"
    assert pretty(Const(Family.UPPER, 2, (Var("a"), Var("b"), Var("c")))) == "X[2; a, b, c]"
    assert pretty(mk_church(4)) == "#4"
    assert pretty(Lam("x", Var("x"))) == "\\x. x"


def test_comments_do_not_eat_numerals():
    assert parse("#2 # trailing note") == mk_church(2)
    assert parse("# a leading comment\n#2") == mk_church(2)


def test_env_lookup():
    env = prelude()
    assert normalize(parse("S1 #0", env)) == mk_church(1)
    assert alpha_eq(parse("I", env), Lam("x", Var("x")))


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse("(p")
    assert info.value.line == 1
    assert info.value.column == 3
    assert "line 1" in str(info.value)


PARSE_ERRORS = {
    "": "expected a term, found 'end of input' (line 1, column 1)",
    "p q)": "unexpected trailing input ')' (line 1, column 4)",
    "x[1; a]": "a stored constant needs at least two payload terms (line 1, column 7)",
    "x[": "expected 'nat', found 'end of input' (line 1, column 3)",
    "\\. x": "expected 'ident', found '.' (line 1, column 2)",
    "X[-1]": "unexpected character '-' (line 1, column 3)",
    "def p = q;": "unexpected trailing input '=' (line 1, column 7)",
    "(p": "expected ')', found 'end of input' (line 1, column 3)",
    "f \\x. x": "unexpected trailing input '\\\\' (line 1, column 3)",
    "xx[0]": "unexpected trailing input '[' (line 1, column 3)",
    "x[1; a, b": "expected ']', found 'end of input' (line 1, column 10)",
    "(\\x. x": "expected ')', found 'end of input' (line 1, column 7)",
}

DEFS_ERRORS = {
    "def broken = \\x. x": "expected ';', found 'end of input' (line 1, column 19)",
    "def = x;": "expected 'ident', found '=' (line 1, column 5)",
    "x = y;": "expected 'def', found 'x' (line 1, column 1)",
    "def a = ;": "expected a term, found ';' (line 1, column 9)",
    "# T4 lacks the ; that ends a definition\ndef T4 = \\n f. n F f #0\ndef T5 = T4;\n":
        "expected ';', found 'def' (line 3, column 1)",
}


def test_parse_error_cases():
    for parser, errors in ((parse, PARSE_ERRORS), (parse_defs, DEFS_ERRORS)):
        for source, message in errors.items():
            with pytest.raises(ParseError) as info:
                parser(source)
            assert str(info.value) == message, source


def test_parse_defs_sees_earlier_bindings():
    defs = parse_defs("def twice = \\f x. f (f x);\ndef four = twice twice;\n"
                      "def k = x[1; p, q]; def u = k;")
    assert list(defs) == ["twice", "four", "k", "u"]
    assert defs["twice"] == mk_church(2)
    assert defs["four"] == App(mk_church(2), mk_church(2))
    stored = Const(Family.LOWER, 1, (Var("p"), Var("q")))
    assert defs["k"] == stored and defs["u"] is defs["k"]


def test_parse_defs_shadowing():
    defs = parse_defs("def one = #1;\ndef use1 = one;\ndef one = #2;\ndef use2 = one;")
    assert defs == {"one": mk_church(2), "use1": mk_church(1), "use2": mk_church(2)}


def test_parse_defs_requires_semicolons():
    with pytest.raises(ParseError):
        parse_defs("def broken = \\x. x")


def test_load_defs(tmp_path):
    path = tmp_path / "extra.defs"
    path.write_text("# a storage operator clone\ndef T4 = \\n f. n F f #0;\n")
    defs = load_defs(str(path), prelude())
    assert list(defs) == ["T4"]
    assert alpha_eq(defs["T4"], prelude()["T2"])


def test_round_trip_spec_strings():
    for source in ("\\f x. f (f x)", "#3", "X[2; a, b, c]", "x[0]",
                   "\\n f x. n f (f x)", "x[1; p, \\s. s q]"):
        assert alpha_eq(parse(pretty(parse(source))), parse(source))


def test_round_trip_generated_terms():
    r = rng(37)
    for _ in range(400):
        t = any_term(r, 5)
        assert alpha_eq(parse(pretty(t)), t)


def test_round_trip_deep_payload_nesting():
    inner = Const(Family.UPPER, 0, (Var("p"), Const(Family.LOWER, 1, (Var("q"), Var("r")))))
    t = Lam("s", app(inner, Var("s"), mk_church(2)))
    assert alpha_eq(parse(pretty(t)), t)


def test_parse_splices_env_terms_as_the_same_objects():
    env = prelude()
    term = parse("T1 G", env)
    assert term.fn is env["T1"] and term.arg is env["G"]
    assert parse_defs("def a = T1; def b = a;", env)["b"] is env["T1"]
    # a binder shadows an env name only up to the end of its parenthesis or
    # payload item
    assert parse("(\\I. I) I", env) == App(Lam("I", Var("I")), env["I"])
    assert parse("x[1; \\I. I, I]", env).payload == (Lam("I", Var("I")), env["I"])


# -- the builtins, parsed once at import and instantiated per successor --

# a successor name or term: S1, S2 and three literal successors
SUCCESSORS = ("S1", "S2", "\\n. n S1 #1", "\\n f x. n (\\y. f y) (f x)",
              "\\n f. (\\g x. g (n g x)) f")


@pytest.mark.parametrize("source", SUCCESSORS)
def test_prelude_matches_parsing_with_s_bound(source):
    successor = source if source in ("S1", "S2") else parse(source, prelude())
    env, expected = prelude(successor), oracle_prelude(successor)
    assert list(env) == list(expected)
    for name in expected:
        assert env[name] == expected[name], name


def test_prelude_returns_a_new_dict_each_call():
    env = prelude()
    assert env is not prelude()
    env.update(S1=Var("p"), T1=Var("q"))
    assert prelude() == oracle_prelude()


@pytest.mark.parametrize("successor", ["S3", "T1", Var("p"), parse("\\n. n p"),
                                       Const(Family.UPPER, 0)])
def test_prelude_rejects_an_unknown_or_open_successor(successor):
    with pytest.raises(ValueError):
        prelude(successor)
    with pytest.raises(ValueError):
        oracle_prelude(successor)


# -- the parser at depth, and checked against the recursive original --


DEPTH = 5000


def test_parse_deep_binders():
    source = "".join(f"\\x{i}. " for i in range(DEPTH)) + "x0"
    lams = Var("x0")
    for i in reversed(range(DEPTH)):
        lams = Lam(f"x{i}", lams)
    assert parse(source) == lams
    assert parse_defs(f"def deep = {source};") == {"deep": lams}
    # each binder shadows the prelude's I, in a parenthesis of its own
    shadowing = Var("I")
    for _ in range(DEPTH):
        shadowing = Lam("I", shadowing)
    assert parse("\\I. (" * DEPTH + "I" + ")" * DEPTH, prelude()) == shadowing


def test_parse_deep_parentheses():
    assert parse("(" * DEPTH + "p" + ")" * DEPTH) == Var("p")
    assert parse("(" * DEPTH + "f" + " a)" * DEPTH) == app(Var("f"), *[Var("a")] * DEPTH)
    assert parse("g (" * DEPTH + "x" + ")" * DEPTH) == app_power(Var("g"), DEPTH, Var("x"))


def test_parse_deep_payloads():
    nested = Var("p")
    for _ in range(DEPTH):
        nested = Const(Family.LOWER, 1, (Var("a"), nested))
    assert parse("x[1; a, " * DEPTH + "p" + "]" * DEPTH) == nested


def test_cli_parses_deep_binders(capsys):
    names = [f"x{i}" for i in range(1500)]
    source = "".join(f"\\{name}. " for name in names) + "x0"
    assert cli.main(["parse", source]) == 0
    assert capsys.readouterr().out == "\\" + " ".join(names) + ". x0\n"


# tokens of the grammar, a comment, a character outside it, and names that
# the env binds.  Each numeral ends in a space, so that joined with sep=""
# no digit can extend it: "#2" then "12" three times would spell #2121212,
# a term of 2.1M nodes
SOUP = ("\\", "λ", "x", "X", "[", "]", ";", ",", "(", ")", ".", "=", "#0 ", "#2 ", "#12 ",
        "0", "1", "12", "a", "b", "f", "s", "p", "def", "S1", "I", "T1", "# note\n", "-")
# the prelude, and some of genterms' binder and free names, so that
# generated terms both shadow env names and splice them
ENV = prelude() | {name: Const(Family.UPPER, 1) for name in ("p", "s", "g")}


def one_token_edit(source, r):
    """source with one token deleted, replaced or inserted."""
    try:
        spans = [(tok.pos, tok.pos + len(tok.value)) for tok in tokenize(source)]
    except ParseError:
        return source
    start, end = r.choice(spans)
    token = f" {r.choice(SOUP)} "
    edit = r.randrange(3)
    if edit == 0:
        return source[:start] + source[end:]
    if edit == 1:
        return source[:start] + token + source[end:]
    return source[:start] + token + source[start:]


def outcome(parser, source):
    try:
        return "ok", parser(source, ENV)
    except ParseError as exc:
        return "error", str(exc)


@hyp.given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(SOUP), max_size=16),
           st.sampled_from((" ", "", "\n")))
def test_parser_matches_recursive_oracle(seed, soup, sep):
    r = rng(seed)
    generated = pretty((any_term, lower_term, p_term, pure_term)[seed % 4](r, 4))
    sources = [generated, sep.join(soup)]
    sources += [one_token_edit(source, r) for source in sources]
    for source in sources:
        assert outcome(parse, source) == outcome(oracle_parse, source)
        defs = f"def a = {source}; def b = a;"
        assert outcome(parse_defs, defs) == outcome(oracle_parse_defs, defs)


# -- the memoized printer, checked against the recursive original --


def oracle_pp(term, pos="top"):
    """pretty as it was before: one recursive call per node of the tree."""
    match term:
        case Var(name):
            return name
        case Const(family, level, payload):
            if not payload:
                return f"{family.value}[{level}]"
            inner = ", ".join(oracle_pp(p, "top") for p in payload)
            return f"{family.value}[{level}; {inner}]"
        case Lam(_, _):
            binders = []
            body = term
            while isinstance(body, Lam) and (n := church_value(body)) is None:
                binders.append(body.binder)
                body = body.body
            inner = f"#{n}" if isinstance(body, Lam) else oracle_pp(body, "top")
            if not binders:
                return inner
            out = "\\" + " ".join(binders) + ". " + inner
            return out if pos == "top" else "(" + out + ")"
        case App(fn, arg):
            out = oracle_pp(fn, "fn") + " " + oracle_pp(arg, "arg")
            return out if pos != "arg" else "(" + out + ")"
    raise TypeError(f"not a term: {term!r}")


def subterms(term):
    """term and every node below it, payloads included."""
    out = [term]
    for t in out:
        match t:
            case Lam(_, body):
                out.append(body)
            case App(fn, arg):
                out.extend((fn, arg))
            case Const(_, _, payload):
                out.extend(payload)
    return out


def _trace_terms():
    """The states, taus and successors of real runs: a run stores its
    context in the constant's payload, so these share subterm objects."""
    env1, env2 = prelude("S1"), prelude("S2")
    reports = [run_check(env1["T1"], 3),
               run_check(env1["T2"], 3, env1["S1"]),
               run_check(env2["T3"], 2),
               run_check(env2["T3"], 3, env2["S2"])]
    out = []
    for report in reports:
        out.extend(t for step in report.trace for t in (step.u, step.v))
        out.extend(t for t in (report.tau, report.successor) if t is not None)
    return out


TRACE_TERMS = _trace_terms()


def sharing_terms(seed):
    """Generated terms plus terms built around one shared subterm object."""
    r = rng(seed)
    gen = (any_term, lower_term, p_term, pure_term)[seed % 4]
    shared = gen(r, 3)
    terms = []
    for _ in range(r.randint(1, 4)):
        t = gen(r, 4, (r.choice(BINDERS),))
        terms.append(t)
        loose = sorted(free_names(t) & set(FREEPOOL))
        if loose:
            terms.append(substitute(t, r.choice(loose), shared))
        terms.append(app(t, shared, Lam(r.choice(BINDERS), t)))
        terms.append(app(shared, t))
        terms.append(Const(Family.UPPER, r.randint(0, 2), (shared, t)))
    terms.append(shared)
    sub = subterms(terms[r.randrange(len(terms))])
    terms.extend(r.sample(sub, min(len(sub), 5)))
    return terms


@hyp.given(st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(TRACE_TERMS), max_size=12))
def test_printer_matches_oracle_on_shared_terms(seed, from_traces):
    # a lambda whose body the memo already holds is still read as a numeral
    body = Lam("x", App(Var("f"), App(Var("f"), Var("x"))))
    show = printer()
    assert [show(body), show(Lam("f", body)), show(App(Var("g"), Lam("f", body)))] == \
        ["\\x. f (f x)", "#2", "g #2"]
    terms = sharing_terms(seed) + from_traces
    rng(seed).shuffle(terms)
    show = printer()
    # the second round is answered from the memo
    for t in terms + terms[::-1]:
        assert show(t) == oracle_pp(t)


def test_printer_matches_oracle_on_every_trace_subterm():
    show = printer()
    for term in TRACE_TERMS:
        for t in subterms(term):
            assert show(t) == oracle_pp(t)


def test_pretty_deep_terms_without_recursion():
    deep = pretty(Lam("x", app_power(Var("g"), 5000, Var("x"))))
    assert deep == "\\x. " + "g (" * 4999 + "g x" + ")" * 4999
    lams = Var("z")
    for i in range(5000):
        lams = Lam(BINDERS[i % len(BINDERS)], lams)
    assert pretty(lams) == "\\" + " ".join(BINDERS * 1250)[::-1] + ". z"
    assert pretty(app(Var("f"), *[Var("a")] * 5000)) == "f" + " a" * 5000
    nested = Const(Family.UPPER, 0)
    for level in range(1, 2001):
        nested = Const(Family.UPPER, level, (Var("p"), nested))
    assert pretty(nested) == "".join(f"X[{k}; p, " for k in range(2000, 0, -1)) + \
        "X[0]" + "]" * 2000


@pytest.mark.parametrize("argv", [
    ["check-s-storage", "T3", "--succ", "S2", "--n-max", "20", "--json", "--trace"],
    ["check-storage", "T1", "--n-max", "20", "--trace"],
])
def test_cli_output_is_the_oracle_printers(argv, monkeypatch, capsys):
    code = cli.main(argv)
    fast = capsys.readouterr().out
    for module in (syntax, checker):
        monkeypatch.setattr(module, "printer", lambda: oracle_pp)
    assert cli.main(argv) == code == 0
    assert capsys.readouterr().out == fast
