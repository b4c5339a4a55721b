"""Parser and pretty-printer round trips, definition files, error positions."""

import pytest

from genterms import any_term, rng
from storlab import prelude
from storlab.reduction import normalize
from storlab.syntax import Binding, ParseError, load_defs, parse, parse_defs, pretty
from storlab.terms import (
    App,
    Const,
    Family,
    Lam,
    Var,
    alpha_eq,
    app,
    mk_church,
)


def test_parse_church_body():
    assert parse("\\f x. f (f x)") == mk_church(2)


def test_parse_numeral_sugar():
    assert parse("#3") == mk_church(3)
    assert parse("#0") == mk_church(0)


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


def test_parse_error_cases():
    for bad in ("", "p q)", "x[1; a]", "x[", "\\. x", "X[-1]", "def p = q;"):
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_defs_sees_earlier_bindings():
    bindings = parse_defs("def twice = \\f x. f (f x);\ndef four = twice twice;\n"
                          "def k = x[1; p, q]; def u = k;")
    assert [b.name for b in bindings] == ["twice", "four", "k", "u"]
    assert bindings[0].value == mk_church(2)
    assert bindings[1].value == App(mk_church(2), mk_church(2))
    stored = Const(Family.LOWER, 1, (Var("p"), Var("q")))
    assert bindings[2].value == stored and bindings[3].value == stored


def test_parse_defs_shadowing():
    bindings = parse_defs("def one = #1;\ndef one = #2;\ndef use = one;")
    assert bindings[-1].value == mk_church(2)


def test_parse_defs_requires_semicolons():
    with pytest.raises(ParseError):
        parse_defs("def broken = \\x. x")


def test_load_defs(tmp_path):
    path = tmp_path / "extra.defs"
    path.write_text("# a storage operator clone\ndef T4 = \\n f. n F f #0;\n")
    bindings = load_defs(str(path), prelude())
    assert isinstance(bindings[0], Binding)
    assert bindings[0].name == "T4"
    assert alpha_eq(bindings[0].value, prelude()["T2"])


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
