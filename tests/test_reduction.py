"""Head reduction, normalization, solvability, successor checking."""

import pytest

from genterms import pure_term, rng, substitution_for, with_head_redex
from storlab import prelude
from storlab.reduction import (
    DEFAULT_LIMITS,
    FuelExhausted,
    Limits,
    beta_equiv,
    check_successor,
    decompose_hnf,
    head_reduce,
    head_step,
    normalize,
)
from storlab.terms import (
    App,
    Const,
    Family,
    Lam,
    Var,
    alpha_eq,
    app,
    mk_church,
    substitute_many,
)

OMEGA = App(Lam("x", App(Var("x"), Var("x"))), Lam("x", App(Var("x"), Var("x"))))
IDENTITY = Lam("x", Var("x"))


def has_beta_redex(term):
    match term:
        case Var(_):
            return False
        case Lam(_, body):
            return has_beta_redex(body)
        case App(Lam(_, _), _):
            return True
        case App(fn, arg):
            return has_beta_redex(fn) or has_beta_redex(arg)
        case Const(_, _, payload):
            return any(has_beta_redex(p) for p in payload)
    raise TypeError(f"not a term: {term!r}")


def test_head_step_basic_redex():
    assert head_step(App(IDENTITY, Var("y"))) == Var("y")


def test_head_step_under_lambda_prefix():
    t = Lam("z", App(IDENTITY, Var("z")))
    assert head_step(t) == Lam("z", Var("z"))


def test_head_step_ignores_inner_redex():
    # the head is the variable f, so the argument's redex is not contracted
    t = App(Var("f"), App(IDENTITY, Var("y")))
    assert head_step(t) is None


def test_head_step_constant_head_is_inert():
    assert head_step(app(Const(Family.LOWER, 2), Var("a"), Var("b"))) is None


def test_head_reduce_counts_steps():
    term, steps = head_reduce(mk_church(3))
    assert term == mk_church(3) and steps == 0
    term, steps = head_reduce(app(IDENTITY, IDENTITY, Var("y")))
    assert term == Var("y") and steps == 2


def test_head_reduce_fuel_exhaustion_on_omega():
    with pytest.raises(FuelExhausted) as info:
        head_reduce(OMEGA, Limits(head_fuel=100))
    assert info.value.steps == 100
    assert info.value.stage == "Head"
    assert alpha_eq(info.value.partial, OMEGA)


def test_head_reduce_storage_run_shape():
    env = prelude()
    term, steps = head_reduce(app(env["T1"], mk_church(2), Var("f")))
    hnf = decompose_hnf(term)
    assert hnf.prefix == () or list(hnf.prefix) == []
    assert hnf.head == Var("f")
    assert len(hnf.args) == 1
    assert beta_equiv(hnf.args[0], mk_church(2)) is True
    assert steps > 0


def test_decompose_hnf_examples():
    d = decompose_hnf(Lam("x", app(Var("x"), Var("y"), Var("z"))))
    assert list(d.prefix) == ["x"]
    assert d.head == Var("x")
    assert list(d.args) == [Var("y"), Var("z")]

    d = decompose_hnf(app(Const(Family.LOWER, 2), Var("a"), Var("b")))
    assert list(d.prefix) == []
    assert d.head == Const(Family.LOWER, 2)
    assert list(d.args) == [Var("a"), Var("b")]

    d = decompose_hnf(Var("f"))
    assert d.head == Var("f") and list(d.args) == []


def test_decompose_hnf_rejects_head_redex():
    with pytest.raises(ValueError):
        decompose_hnf(App(IDENTITY, Var("p")))


def test_decompose_reassemble_identity():
    r = rng(41)
    checked = 0
    for _ in range(200):
        t = pure_term(r, 4)
        try:
            hnf, _ = head_reduce(t, Limits(head_fuel=500))
        except FuelExhausted:
            continue
        v = decompose_hnf(hnf)
        rebuilt = app(v.head, *v.args)
        for binder in reversed(v.prefix):
            rebuilt = Lam(binder, rebuilt)
        assert rebuilt == hnf
        checked += 1
    assert checked > 150


def test_is_solvable():
    assert head_reduce(IDENTITY) == (IDENTITY, 0)
    with pytest.raises(FuelExhausted):
        head_reduce(OMEGA, Limits(head_fuel=200))


def test_is_solvable_regression_pin():
    # frozen from a one-off engine run; a change here means the reduction
    # strategy or the builtin operator changed
    env = prelude()
    assert head_reduce(app(env["T2"], mk_church(3), Var("f")))[1] == 10


def test_normalize_examples():
    env = prelude()
    assert normalize(app(env["S1"], mk_church(2))) == mk_church(3)
    assert normalize(App(Lam("x", Var("y")), OMEGA)) == Var("y")
    assert normalize(app(env["S2"], app(env["S2"], mk_church(0)))) == mk_church(2)


def test_normalize_inside_payloads():
    stored = Const(Family.LOWER, 1, (App(IDENTITY, Var("p")), Var("q")))
    assert normalize(stored) == Const(Family.LOWER, 1, (Var("p"), Var("q")))


def test_normalize_fuel_exhaustion():
    with pytest.raises(FuelExhausted) as info:
        normalize(OMEGA, Limits(norm_fuel=50))
    assert info.value.stage == "Norm"
    assert info.value.steps == 50


def test_normalize_output_has_no_redex():
    r = rng(43)
    produced = 0
    for _ in range(200):
        t = pure_term(r, 4)
        try:
            nf = normalize(t, Limits(norm_fuel=2000))
        except FuelExhausted:
            continue
        assert not has_beta_redex(nf)
        produced += 1
    assert produced > 150


def test_beta_equiv():
    env = prelude()
    assert beta_equiv(app(env["S1"], mk_church(4)), mk_church(5)) is True
    assert beta_equiv(mk_church(2), mk_church(3)) is False
    assert beta_equiv(OMEGA, OMEGA, Limits(norm_fuel=50)) is None


def test_beta_equiv_preserves_solvability():
    # generated terms never have "s" free, so the wrapper is beta-equal
    r = rng(47)
    for _ in range(100):
        t = pure_term(r, 3)
        padded = App(Lam("s", t), mk_church(1))
        if beta_equiv(t, padded, Limits(norm_fuel=2000)) is not True:
            continue
        try:
            head_reduce(t, Limits(head_fuel=2000))
        except FuelExhausted:
            continue
        head_reduce(padded, Limits(head_fuel=4000))


def test_determinism():
    r = rng(53)
    for _ in range(100):
        t = with_head_redex(r)
        try:
            first = head_reduce(t, Limits(head_fuel=500))
            second = head_reduce(t, Limits(head_fuel=500))
        except FuelExhausted:
            continue
        assert first == second


def test_single_step_substitution_lemma():
    r = rng(59)
    for _ in range(200):
        u = with_head_redex(r)
        sub = substitution_for(r, u)
        stepped = head_step(u)
        assert stepped is not None
        assert alpha_eq(head_step(substitute_many(u, sub)), substitute_many(stepped, sub))


def test_check_successor_builtins():
    env = prelude()
    for name in ("S1", "S2"):
        report = check_successor(env[name], 10)
        assert report.all_pass
        assert report.first_failure is None
    report = check_successor(env["I"], 3)
    assert not report.all_pass
    assert report.first_failure == 0


def test_check_successor_rejects_open_terms():
    with pytest.raises(ValueError):
        check_successor(Lam("f", App(Var("f"), Var("y"))), 2)
    with pytest.raises(ValueError):
        check_successor(Const(Family.LOWER, 0), 2)


def test_limits_validation():
    with pytest.raises(ValueError):
        Limits(head_fuel=0)
    with pytest.raises(ValueError):
        Limits(macro_fuel=-1)
    assert DEFAULT_LIMITS.head_fuel >= 1
