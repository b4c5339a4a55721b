"""The two characterization machines and their reports."""

import pytest

from storlab import prelude
from storlab.checker import (
    FINAL,
    MALFORMED_HEAD,
    TAU_NOT_CLOSED,
    WRONG_LEVEL,
    MalformedHeadError,
    Verdict,
    WrongLevelError,
    X_transform,
    check_operator,
    report_to_dict,
    run_check,
    summary_to_dict,
    to_json,
    x_transform,
)
from storlab.reduction import Limits, beta_equiv, decompose_hnf, head_reduce
from storlab.syntax import parse
from storlab.terms import (
    App,
    Const,
    Family,
    Var,
    alpha_eq,
    app,
    app_power,
    iter_consts,
    mk_church,
)

A, B, C = Var("a"), Var("b"), Var("c")


def hnf(term):
    return decompose_hnf(term)


def test_x_transform_seed():
    got = x_transform(hnf(app(Const(Family.LOWER, 2), A, B, C)), 2)
    stored = Const(Family.LOWER, 1, (A, B, C))
    assert got == app(App(A, stored), C)


def test_x_transform_seed_level_zero():
    got = x_transform(hnf(app(Const(Family.LOWER, 0), A, B, C)), 0)
    assert got == App(B, C)


def test_x_transform_stored_replays_payload():
    head = Const(Family.LOWER, 1, (A, B, C))
    d1, d2 = Var("d1"), Var("d2")
    got = x_transform(hnf(app(head, d1, d2)), 1)
    stored = Const(Family.LOWER, 0, (A, B, d1, d2))
    assert got == app(App(A, stored), d1, d2)


def test_x_transform_stored_accepts_no_arguments():
    head = Const(Family.LOWER, 0, (A, B))
    assert x_transform(hnf(head), 0) == B


def test_X_transform_seed():
    s2 = prelude()["S2"]
    got = X_transform(hnf(app(Const(Family.UPPER, 1), A, B, C)), s2, 1)
    stored = Const(Family.UPPER, 0, (A, B, C))
    assert got == app(App(s2, stored), A, B, C)


def test_X_transform_seed_level_zero():
    s2 = prelude()["S2"]
    got = X_transform(hnf(app(Const(Family.UPPER, 0), A, B, C)), s2, 0)
    assert got == app(mk_church(0), A, B, C)


def test_X_transform_stored_uses_current_arguments():
    s2 = prelude()["S2"]
    head = Const(Family.UPPER, 1, (A, B, C))
    u, v, w = Var("u"), Var("v"), Var("w")
    got = X_transform(hnf(app(head, u, v, w)), s2, 1)
    stored = Const(Family.UPPER, 0, (u, v, w))
    assert got == app(App(s2, stored), u, v, w)


def test_transform_errors():
    with pytest.raises(MalformedHeadError) as info:
        x_transform(hnf(app(Const(Family.LOWER, 2), A)), 2)
    assert info.value.reason == MALFORMED_HEAD

    with pytest.raises(WrongLevelError) as info:
        x_transform(hnf(app(Const(Family.LOWER, 3), A, B)), 2)
    assert info.value.reason == WRONG_LEVEL

    s1 = prelude()["S1"]
    with pytest.raises(MalformedHeadError):
        X_transform(hnf(app(Const(Family.UPPER, 1), A)), s1, 1)
    with pytest.raises(MalformedHeadError):
        X_transform(hnf(Const(Family.UPPER, 0, (A, B))), s1, 0)
    with pytest.raises(WrongLevelError):
        X_transform(hnf(app(Const(Family.UPPER, 2), A, B)), s1, 0)

    with pytest.raises(ValueError):
        x_transform(hnf(app(Var("f"), A, B)), 0)
    with pytest.raises(ValueError):
        x_transform(hnf(app(Const(Family.UPPER, 1), A, B)), 1)


def test_run_check_storage_success():
    env = prelude()
    report = run_check(env["T1"], Family.LOWER, 3)
    assert report.verdict == Verdict.SUCCESS
    assert report.ok
    assert beta_equiv(report.tau, mk_church(3)) is True


def test_run_check_upper_worked_chain():
    env = prelude("S2")
    s2, f_op = env["S2"], env["F"]
    report = run_check(env["T2"], Family.UPPER, 3, s2)
    assert report.verdict == Verdict.SUCCESS
    assert [s.transform for s in report.trace] == [
        "SeedSucc", "StoredSucc", "StoredSucc", "StoredZero", "Final",
    ]
    assert alpha_eq(report.tau, app_power(s2, 3, mk_church(0)))
    for k, step in enumerate(report.trace[:-1]):
        d = decompose_hnf(step.v)
        assert isinstance(d.head, Const) and d.head.level == 3 - k
        assert alpha_eq(d.args[0], f_op)
        assert alpha_eq(d.args[1], app_power(f_op, k, Var("f")))
        assert d.args[2] == mk_church(0)


def test_run_check_open_tau_failure():
    env = prelude("S2")
    report = run_check(env["T3"], Family.LOWER, 2)
    assert report.verdict == Verdict.FAIL
    assert report.reason == TAU_NOT_CLOSED
    offenders = [c for c in iter_consts(report.tau)
                 if c.family is Family.LOWER and c.level == 0 and not c.is_seed]
    assert offenders


def test_run_check_t3_upper_succeeds():
    env = prelude("S2")
    report = run_check(env["T3"], Family.UPPER, 2, env["S2"])
    assert report.verdict == Verdict.SUCCESS
    assert beta_equiv(report.tau, mk_church(2)) is True


def test_run_check_validation():
    env = prelude()
    with pytest.raises(ValueError):
        run_check(Var("x"), Family.LOWER, 1)
    with pytest.raises(ValueError):
        run_check(env["T1"], Family.UPPER, 1)
    with pytest.raises(ValueError):
        run_check(env["T1"], Family.LOWER, 1, env["S1"])
    with pytest.raises(ValueError):
        run_check(env["T1"], Family.LOWER, -1)
    with pytest.raises(ValueError):
        run_check(env["T1"], Family.UPPER, 1, Var("y"))


def test_trace_replays():
    env = prelude()
    for family, succ in ((Family.LOWER, None), (Family.UPPER, env["S1"])):
        report = run_check(env["T2"], family, 3, succ)
        assert report.ok
        for i, step in enumerate(report.trace):
            assert head_reduce(step.u) == (step.v, step.beta_steps)
            if step.transform == FINAL:
                continue
            d = decompose_hnf(step.v)
            if family is Family.LOWER:
                expected = x_transform(d, 3)
            else:
                expected = X_transform(d, succ, 3)
            assert report.trace[i + 1].u == expected


def test_upper_levels_strictly_decrease():
    env = prelude()
    for n in range(6):
        report = run_check(env["T1"], Family.UPPER, n, env["S1"])
        levels = []
        for step in report.trace:
            head = decompose_hnf(step.v).head
            if isinstance(head, Const):
                levels.append(head.level)
        assert levels == sorted(levels, reverse=True)
        assert len(levels) == len(set(levels))
        assert len(levels) <= n + 1


def test_tau_independent_of_probe_name():
    env = prelude()
    with_f = run_check(env["T2"], Family.LOWER, 4, probe="f")
    with_g = run_check(env["T2"], Family.LOWER, 4, probe="g")
    assert with_f.verdict == with_g.verdict == Verdict.SUCCESS
    assert alpha_eq(with_f.tau, with_g.tau)


def test_check_operator_storage():
    env = prelude()
    summary = check_operator(env["T2"], Family.LOWER, 8)
    assert summary.verdict == Verdict.ALL_PASS
    assert summary.all_pass
    assert summary.at is None


def test_check_operator_first_failure():
    env = prelude("S2")
    summary = check_operator(env["T3"], Family.LOWER, 4)
    assert summary.verdict == Verdict.FIRST_FAILURE
    assert summary.at == 1
    assert summary.reports[0].verdict == Verdict.SUCCESS


def test_check_operator_cross_successor():
    env = prelude()
    summary = check_operator(env["T1"], Family.UPPER, 6, prelude("S2")["S2"])
    assert summary.all_pass


def test_fuel_exhaustion_is_not_refutation():
    env = prelude()
    report = run_check(env["T2"], Family.LOWER, 3, limits=Limits(head_fuel=1))
    assert report.verdict == Verdict.FUEL
    assert report.reason == "Head"
    env2 = prelude("S2")
    summary = check_operator(env2["T2"], Family.UPPER, 3, env2["S2"],
                             limits=Limits(head_fuel=5))
    assert summary.verdict == Verdict.FUEL
    assert all(r.verdict != Verdict.FAIL for r in summary.reports)


def test_macro_fuel_exhaustion():
    env = prelude()
    report = run_check(env["T2"], Family.LOWER, 5, limits=Limits(macro_fuel=2))
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
    report = run_check(parse("\\n f. f #0"), Family.LOWER, 0)
    assert to_json(report_to_dict(report)) == GOLDEN_RUN_JSON


def test_json_is_byte_stable():
    env = prelude()
    summary = check_operator(env["T1"], Family.LOWER, 2)
    first = to_json(summary_to_dict(summary))
    second = to_json(summary_to_dict(check_operator(env["T1"], Family.LOWER, 2)))
    assert first == second


def test_trace_serialization_can_be_suppressed():
    env = prelude()
    report = run_check(env["T1"], Family.LOWER, 1)
    with_trace = report_to_dict(report)
    without = report_to_dict(report, include_trace=False)
    assert "steps" in with_trace
    assert "steps" not in without
    summary = summary_to_dict(check_operator(env["T1"], Family.LOWER, 1),
                              include_trace=False)
    assert all("steps" not in run for run in summary["runs"])


def test_summary_dict_envelope():
    env = prelude()
    d = summary_to_dict(check_operator(env["T1"], Family.UPPER, 1, env["S1"]))
    assert list(d)[:4] == ["family", "successor", "n_max", "verdict"]
    assert d["family"] == "X"
    assert len(d["runs"]) == 2


def test_verdict_fold_and_exit_codes():
    V = Verdict
    assert V.fold([]) == V.PASS
    assert V.fold([V.PASS, V.VACUOUS]) == V.PASS
    assert V.fold([V.UNKNOWN, V.FAIL]) == V.REFUTED
    assert V.fold([V.PASS, V.FUEL]) == V.FUEL
    assert [v.exit_code for v in V] == [1, 1, 2, 0, 1, 0, 1, 1, 1]
    assert f"{V.ALL_PASS:<9}|{V.FUEL}" == "AllPass  |FuelExhausted"
    assert to_json({"verdict": V.REFUTED}) == '{\n  "verdict": "Refuted"\n}'
