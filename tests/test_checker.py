"""The two characterization machines and their reports."""

import inspect
import json
import math
import sys

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

import storlab
from genterms import builtin_shaped, rng
from oracles import head_normal_form, spine
from storlab import prelude
from storlab.checker import (
    FINAL,
    FOREIGN_HEAD,
    MALFORMED_HEAD,
    PREFIX_NOT_EMPTY,
    TAU_NOT_CLOSED,
    WRONG_LEVEL,
    MacroStep,
    TransformError,
    Verdict,
    X_transform,
    _macro_step,
    check_operator,
    run_check,
    to_json,
    x_transform,
)
from storlab.reduction import DEFAULT_LIMITS, STAGE_HEAD, Limits, beta_equiv
from storlab.syntax import parse, pretty
from storlab.terms import (
    App,
    Const,
    Family,
    Lam,
    Var,
    alpha_eq,
    app,
    app_power,
    is_closed_pure,
    iter_consts,
    mk_church,
)

A, B, C = Var("a"), Var("b"), Var("c")


def test_x_transform_seed():
    got = x_transform(*spine(app(Const(Family.LOWER, 2), A, B, C)), 2)
    stored = Const(Family.LOWER, 1, (A, B, C))
    assert got == [A, stored, C]


def test_x_transform_seed_level_zero():
    got = x_transform(*spine(app(Const(Family.LOWER, 0), A, B, C)), 0)
    assert got == [B, C]


def test_x_transform_stored_replays_payload():
    head = Const(Family.LOWER, 1, (A, B, C))
    d1, d2 = Var("d1"), Var("d2")
    got = x_transform(*spine(app(head, d1, d2)), 1)
    stored = Const(Family.LOWER, 0, (A, B, d1, d2))
    assert got == [A, stored, d1, d2]


def test_x_transform_stored_accepts_no_arguments():
    head = Const(Family.LOWER, 0, (A, B))
    assert x_transform(*spine(head), 0) == [B]


def test_X_transform_seed():
    s2 = prelude()["S2"]
    got = X_transform(*spine(app(Const(Family.UPPER, 1), A, B, C)), s2, 1)
    stored = Const(Family.UPPER, 0, (A, B, C))
    assert got == [s2, stored, A, B, C]


def test_X_transform_seed_level_zero():
    s2 = prelude()["S2"]
    got = X_transform(*spine(app(Const(Family.UPPER, 0), A, B, C)), s2, 0)
    assert got == [mk_church(0), A, B, C]


def test_X_transform_stored_uses_current_arguments():
    s2 = prelude()["S2"]
    head = Const(Family.UPPER, 1, (A, B, C))
    u, v, w = Var("u"), Var("v"), Var("w")
    got = X_transform(*spine(app(head, u, v, w)), s2, 1)
    stored = Const(Family.UPPER, 0, (u, v, w))
    assert got == [s2, stored, u, v, w]


def test_transform_errors():
    s1 = prelude()["S1"]
    cases = [
        (lambda: x_transform(*spine(app(Const(Family.LOWER, 2), A)), 2), MALFORMED_HEAD),
        (lambda: x_transform(*spine(app(Const(Family.LOWER, 3), A, B)), 2), WRONG_LEVEL),
        (lambda: X_transform(*spine(app(Const(Family.UPPER, 1), A)), s1, 1), MALFORMED_HEAD),
        (lambda: X_transform(*spine(Const(Family.UPPER, 0, (A, B))), s1, 0), MALFORMED_HEAD),
        (lambda: X_transform(*spine(app(Const(Family.UPPER, 2), A, B)), s1, 0), WRONG_LEVEL),
        # a free head, or a constant of the other family, is no transform's to move
        (lambda: x_transform(*spine(app(Var("f"), A, B)), 0), FOREIGN_HEAD),
        (lambda: x_transform(*spine(app(Const(Family.UPPER, 1), A, B)), 1), FOREIGN_HEAD),
        (lambda: X_transform(*spine(app(Var("g"), A, B)), s1, 0), FOREIGN_HEAD),
        (lambda: X_transform(*spine(app(Const(Family.LOWER, 1), A, B)), s1, 1), FOREIGN_HEAD),
    ]
    for transform, reason in cases:
        with pytest.raises(TransformError) as info:
            transform()
        assert info.value.reason == reason
        assert isinstance(info.value, ValueError)


def test_run_check_storage_success():
    env = prelude()
    report = run_check(env["T1"], 3)
    assert report.verdict == Verdict.SUCCESS
    assert beta_equiv(report.tau, mk_church(3)) is True


def test_run_report_repr_names_every_field():
    assert repr(run_check(prelude()["T1"], 0)).startswith(
        "RunReport(family=<Family.LOWER: 'x'>, n=0, verdict=<Verdict.SUCCESS: 'Success'>, "
        "successor=None, reason=None, tau=")


def test_run_check_upper_worked_chain():
    env = prelude("S2")
    s2, f_op = env["S2"], env["F"]
    report = run_check(env["T2"], 3, s2)
    assert report.verdict == Verdict.SUCCESS
    assert [s.transform for s in report.trace] == [
        "SeedSucc", "StoredSucc", "StoredSucc", "StoredZero", "Final",
    ]
    assert alpha_eq(report.tau, app_power(s2, 3, mk_church(0)))
    for k, step in enumerate(report.trace[:-1]):
        head, args = spine(step.v)
        assert isinstance(head, Const) and head.level == 3 - k
        assert alpha_eq(args[0], f_op)
        assert alpha_eq(args[1], app_power(f_op, k, Var("f")))
        assert args[2] == mk_church(0)


def test_run_check_open_tau_failure():
    env = prelude("S2")
    report = run_check(env["T3"], 2)
    assert report.verdict == Verdict.FAIL
    assert report.reason == TAU_NOT_CLOSED
    offenders = [c for c in iter_consts(report.tau)
                 if c.family is Family.LOWER and c.level == 0 and not c.is_seed]
    assert offenders


def test_run_check_t3_upper_succeeds():
    env = prelude("S2")
    report = run_check(env["T3"], 2, env["S2"])
    assert report.verdict == Verdict.SUCCESS
    assert beta_equiv(report.tau, mk_church(2)) is True


def test_sweep_checks_its_operands_once(monkeypatch):
    import storlab.checker as checker

    env, calls = prelude(), []

    def counting(term):
        calls.append(term)
        return is_closed_pure(term)

    monkeypatch.setattr(checker, "is_closed_pure", counting)
    check_operator(env["T1"], 4, env["S1"])
    # the other calls are run_check's own, on each witness
    assert [t for t in calls if t is env["T1"] or t is env["S1"]] == [env["T1"], env["S1"]]
    # checked before any run, with run_check's own errors
    with pytest.raises(ValueError, match="operator must be"):
        check_operator(Var("x"), 3)


def test_check_operator_runs_each_level_when_first_read(monkeypatch):
    import storlab.checker as checker

    original, levels = checker.run_check, []

    def counting(term, n, *args, **kwargs):
        levels.append(n)
        return original(term, n, *args, **kwargs)

    monkeypatch.setattr(checker, "run_check", counting)
    env = prelude()
    summary = check_operator(env["T1"], 5)
    assert levels == []
    assert next(iter(summary)).n == 0 and levels == [0]
    assert [r.n for r in summary] == list(range(1, 6))
    assert levels == list(range(6))
    # the runs are read once: a second iteration yields nothing, runs nothing
    assert list(summary) == [] and summary.verdict == Verdict.ALL_PASS
    assert levels == list(range(6))
    # the verdict, read first, runs each level exactly once
    levels.clear()
    summary = check_operator(env["T3"], 5)
    assert summary.verdict == Verdict.FIRST_FAILURE and summary.at == 1
    assert levels == list(range(6))
    assert list(summary) == [] and summary.at == 1 and levels == list(range(6))


def test_check_operator_rejects_a_negative_bound():
    # I fails at level 0, so a summary of no levels would pass it vacuously
    env = prelude()
    assert check_operator(env["I"], 0).verdict == Verdict.FIRST_FAILURE
    with pytest.raises(ValueError, match="n_max must be non-negative"):
        check_operator(env["I"], -1)
    with pytest.raises(ValueError, match="n_max must be non-negative"):
        check_operator(env["T1"], -1, env["S1"])


def test_run_check_validation():
    env = prelude()
    with pytest.raises(ValueError):
        run_check(Var("x"), 1)
    with pytest.raises(ValueError):
        run_check(env["T1"], -1)
    with pytest.raises(ValueError):
        run_check(env["T1"], 1, Var("y"))


@pytest.mark.parametrize("source, successor, v", [
    ("\\n f. g f", None, "g f"),
    ("\\n f. X[0] f f", None, "X[0] f f"),
    ("\\n f. x[0] f f", "S1", "x[0] f f"),
])
def test_run_check_stops_at_a_foreign_head(source, successor, v):
    # operands that check_operator rejects, so only a broken invariant gets
    # here: a free head or a constant of the other family must not pass
    term, succ = parse(source), prelude()[successor] if successor else None
    report = run_check(term, 0, succ, checked=True)
    assert (report.verdict, report.reason, report.tau) == (Verdict.FAIL, FOREIGN_HEAD, None)
    [step] = report.trace
    assert pretty(step.v) == v and step.transform is None
    with pytest.raises(ValueError):
        run_check(term, 0, succ)


def test_macro_step_takes_a_spine_and_builds_it_once():
    v = App(A, B)
    lazy = MacroStep([A, B, C], [A, B], 1, FINAL)
    built = MacroStep(app(A, B, C), v, 1, FINAL)
    assert lazy.u == app(A, B, C) and lazy.u != app(A, C, B)
    assert lazy.u is lazy.u
    assert lazy.v == v and lazy.v is lazy.v
    assert repr(lazy) == repr(built) == (
        f"MacroStep(u={app(A, B, C)!r}, v={v!r}, beta_steps=1, transform='Final')")
    # one list for both: whichever is read first builds the term for both
    for first in ("u", "v"):
        parts = [A, B, C]
        shared = MacroStep(parts, parts, 0, None)
        assert getattr(shared, first) == app(A, B, C)
        assert shared.u is shared.v


@hyp.given(st.one_of(st.sampled_from(("T1", "T2", "T3")), st.integers(0, 2**32 - 1)),
           st.sampled_from(tuple(Family)), st.sampled_from(("S1", "S2")), st.integers(0, 6))
def test_trace_replays(operator, family, successor, n):
    # each recorded step replays, by head reduction and the transform, and by one
    # macro step from its u, which gives the next step's u or, last, the run's end
    env = prelude(successor)
    succ = env[successor] if family is Family.UPPER else None
    operator = env[operator] if isinstance(operator, str) else builtin_shaped(rng(operator))[0]
    report = run_check(operator, n, succ)
    for i, step in enumerate(report.trace):
        assert step.u is step.u and step.v is step.v  # built once, when first read
        assert head_normal_form(step.u) == (step.v, step.beta_steps)
        replayed, nxt = _macro_step([step.u], n, succ, DEFAULT_LIMITS)
        assert (replayed.v, replayed.beta_steps, replayed.transform) == \
            (step.v, step.beta_steps, step.transform)
        if i + 1 < len(report.trace):
            assert app(*nxt) == report.trace[i + 1].u
        else:
            assert nxt == (report.verdict, report.reason, report.tau)
        if step.transform in (None, FINAL):
            continue
        assert not isinstance(step.v, Lam)
        head, args = spine(step.v)
        if family is Family.LOWER:
            expected = x_transform(head, args, n)
        else:
            expected = X_transform(head, args, succ, n)
        assert report.trace[i + 1].u == app(*expected)


def test_upper_levels_strictly_decrease():
    env = prelude()
    for n in range(6):
        report = run_check(env["T1"], n, env["S1"])
        levels = []
        for step in report.trace:
            head = spine(step.v)[0]
            if isinstance(head, Const):
                levels.append(head.level)
        assert levels == sorted(levels, reverse=True)
        assert len(levels) == len(set(levels))
        assert len(levels) <= n + 1


def test_check_operator_storage():
    env = prelude()
    summary = check_operator(env["T2"], 8)
    assert summary.verdict == Verdict.ALL_PASS
    assert summary.at is None


def test_check_operator_builds_few_nodes(monkeypatch):
    # a head abstraction's binders are contracted together, so the terms
    # between them are never built: 2109 App and 766 Lam one binder at a time;
    # and a step's u and v are built only when they are read
    env = prelude("S2")
    built = {App: 0, Lam: 0}
    for kind in built:
        def counting(node, *fields, kind=kind, original=kind.__init__):
            built[kind] += 1
            original(node, *fields)

        monkeypatch.setattr(kind, "__init__", counting)
    summary = check_operator(env["T1"], 12, env["S2"])
    runs = list(summary)
    assert summary.verdict == Verdict.ALL_PASS
    steps = [step for report in runs for step in report.trace]
    assert len(steps) == 104
    assert built[App] <= 240 and built[Lam] <= 80  # 234 and 78
    before = dict(built)
    for step in steps:
        step.u
    # the Apps of each u as built before its reduction, built later; no Lam
    assert built[App] == 611 and built[Lam] == before[Lam]
    for step in steps:
        step.v
    # and each v's spine, which head reduction hands back unbuilt
    assert built[App] == 897 and built[Lam] == before[Lam]


def test_printing_a_run_builds_no_application(monkeypatch):
    # a traced report prints each state from its list, head first
    env = prelude("S2")
    runs = list(check_operator(env["T1"], 12, env["S2"]))
    built = []

    def counting(node, *fields, original=App.__init__):
        built.append(node)
        original(node, *fields)

    monkeypatch.setattr(App, "__init__", counting)
    steps = [step for report in runs for step in report.to_dict(trace=True)["steps"]]
    lines = [line for report in runs for line in report.lines(trace=True)]
    assert len(steps) == len(lines) - len(runs) == 104
    assert built == []
    assert all(type(step._u) is list and type(step._v) is list
               for report in runs for step in report.trace)


def test_reading_a_step_calls_no_public_function(monkeypatch):
    # u and v are built from their spines by the term constructors alone, so
    # reading them after a traced pass (bench/layers.py) adds no traced call
    reports = [run_check(parse(r"\n f. n f f"), 1),  # ends on a zero-step step
               run_check(parse(r"\n f. \y. f"), 0),
               run_check(prelude()["T1"], 3, limits=Limits(head_fuel=2))]
    assert [r.reason for r in reports] == [TAU_NOT_CLOSED, PREFIX_NOT_EMPTY, STAGE_HEAD]
    reports += check_operator(prelude("S2")["T1"], 3, prelude("S2")["S2"])
    steps = [step for report in reports for step in report.trace]
    expected = [(app(*step._u), step._v if type(step._v) is not list else app(*step._v))
                for step in steps]

    def forbidden(*args, **kwargs):
        raise AssertionError("a public storlab function was called")

    for name, module in list(sys.modules.items()):
        if name == "storlab" or name.startswith("storlab."):
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and value.__module__.startswith("storlab")
                        and not value.__name__.startswith("_")):
                    monkeypatch.setattr(module, attr, forbidden)
    read = [(step.u, step.v) for step in steps]
    monkeypatch.undo()
    assert read == expected


def test_a_zero_step_macro_step_keeps_one_state():
    # a state that takes no beta-step is its own head normal form: the step
    # keeps v as its u, so reading u builds nothing
    reports = [run_check(parse(r"\n f. n f f"), 1)]
    reports += check_operator(prelude()["T2"], 12)
    zero = [step for report in reports for step in report.trace if step.beta_steps == 0]
    assert len(zero) == 1 + 13
    for step in zero:
        assert step.u is step.v


def test_check_operator_first_failure():
    env = prelude("S2")
    summary = check_operator(env["T3"], 4)
    runs = list(summary)
    assert summary.verdict == Verdict.FIRST_FAILURE
    assert summary.at == 1
    assert runs[0].verdict == Verdict.SUCCESS


def test_check_operator_cross_successor():
    env = prelude()
    summary = check_operator(env["T1"], 6, prelude("S2")["S2"])
    assert summary.verdict == Verdict.ALL_PASS


def test_fuel_exhaustion_is_not_refutation():
    env = prelude()
    report = run_check(env["T2"], 3, limits=Limits(head_fuel=1))
    assert report.verdict == Verdict.FUEL
    assert report.reason == "Head"
    env2 = prelude("S2")
    summary = check_operator(env2["T2"], 3, env2["S2"],
                             limits=Limits(head_fuel=5))
    runs = list(summary)
    assert summary.verdict == Verdict.FUEL
    assert all(r.verdict != Verdict.FAIL for r in runs)


def test_macro_fuel_exhaustion():
    env = prelude()
    report = run_check(env["T2"], 5, limits=Limits(macro_fuel=2))
    assert report.verdict == Verdict.FUEL
    assert report.reason == "Macro"


GOLDEN_RUN_JSON = r'''{
  "family": "x",
  "n": 0,
  "verdict": "Success",
  "tau": "#0",
  "steps": [
    {
      "u": "(\\n f. f #0) x[0] f",
      "v": "f #0",
      "beta_steps": 2,
      "transform": "Final"
    }
  ]
}'''


def test_report_json_golden_bytes():
    report = run_check(parse("\\n f. f #0"), 0)
    assert to_json(report.to_dict(trace=True)) == GOLDEN_RUN_JSON


def test_json_is_byte_stable():
    env = prelude()
    summary = check_operator(env["T1"], 2, trace=True)
    first = to_json(summary.to_dict())
    second = to_json(check_operator(env["T1"], 2, trace=True).to_dict())
    assert first == second


class Lazy(list):
    """A generator's items in a drawn payload: made into a fresh generator
    for each writer, since a generator is read only once."""


def built(payload):
    if isinstance(payload, Lazy):
        return (built(item) for item in payload)
    if isinstance(payload, dict):
        return {key: built(item) for key, item in payload.items()}
    if isinstance(payload, (list, tuple)):
        return type(payload)(built(item) for item in payload)
    return payload


# quotes, backslashes, control characters, non-ASCII, a line separator, lone
# surrogates and an astral character, beside whatever hypothesis draws
_CHARS = st.one_of(st.characters(exclude_categories=()),
                   st.sampled_from('"\\\x00\b\t\n\x1f\x7fé\u2028\ud800\udfff\U0001f600'))
_TEXT = st.text(_CHARS, max_size=8)
_SCALARS = st.one_of(
    _TEXT, st.none(), st.booleans(), st.integers(),
    st.sampled_from((2**100, -2**70, 0)),
    st.floats(), st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 1e300)),
    st.sampled_from(tuple(Verdict)))
_PAYLOADS = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.lists(inner, max_size=4).map(Lazy), st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)


@hyp.settings(max_examples=300, deadline=None)
@hyp.given(_PAYLOADS, st.sampled_from(("", "  ", "    ")))
def test_to_json_is_the_stdlib_encoding(payload, pad):
    # the stdlib is the oracle: the same bytes, with each later line after pad
    want = json.dumps(built(payload), indent=2, default=list).replace("\n", "\n" + pad)
    assert to_json(built(payload), pad) == want


def test_trace_serialization_can_be_suppressed():
    env = prelude()
    report = run_check(env["T1"], 1)
    with_trace = report.to_dict(trace=True)
    without = report.to_dict()
    assert "steps" in with_trace
    assert "steps" not in without
    summary = check_operator(env["T1"], 1).to_dict()
    assert all("steps" not in run for run in summary["runs"])
    traced = check_operator(env["T1"], 1, trace=True).to_dict()
    assert all("steps" in run for run in traced["runs"])


def test_summary_dict_envelope():
    env = prelude()
    d = check_operator(env["T1"], 1, env["S1"], trace=True).to_dict()
    assert list(d)[:4] == ["family", "successor", "n_max", "verdict"]
    assert d["family"] == "X"
    assert len(list(d["runs"])) == 2


def test_verdict_fold_and_exit_codes():
    V = Verdict
    assert V.fold([]) == V.PASS
    assert V.fold([V.PASS, V.VACUOUS]) == V.PASS
    assert V.fold([V.UNKNOWN, V.FAIL]) == V.REFUTED
    assert V.fold([V.PASS, V.FUEL]) == V.FUEL
    # a sweep's first run that is not a success decides; a later one never does
    assert V.sweep([]) == V.sweep([V.SUCCESS] * 3) == V.ALL_PASS
    assert V.sweep([V.SUCCESS, V.FAIL, V.FUEL]) == V.FIRST_FAILURE
    assert V.sweep([V.SUCCESS, V.FUEL, V.FAIL]) == V.FUEL
    assert not hasattr(V.PASS, "exit_code")  # storlab.cli owns the exit codes
    assert f"{V.ALL_PASS:<9}|{V.FUEL}" == "AllPass  |FuelExhausted"
    assert to_json({"verdict": V.REFUTED}) == '{\n  "verdict": "Refuted"\n}'
    # one vocabulary: the package, the checker and the reducer share the class
    assert storlab.Verdict is V is storlab.reduction.Verdict
