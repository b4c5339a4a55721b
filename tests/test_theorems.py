"""Numeral erasure, the payload discipline, the family translation, and the
instance verifiers built on them."""

import functools
import itertools
import json
import sys

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from genterms import (
    BINDERS,
    SUCCESSORS,
    any_term,
    builtin_shaped,
    lower_term,
    p_term,
    rng,
    with_head_redex,
    with_redexes,
)
from oracles import (
    head_normal_form,
    oracle_delta_correspondence,
    oracle_delta_forward,
    oracle_hat_check,
    oracle_upper_tau_ok,
)
from storlab import checker, prelude, theorems
from storlab.checker import (
    PROBE,
    TAU_NOT_N,
    MacroStep,
    OperatorSummary,
    RunReport,
    Verdict,
    check_operator,
    run_check,
)
from storlab.cli import EXIT_FUEL, EXIT_PASS, EXIT_REFUTED, main
from storlab.reduction import (
    DEFAULT_LIMITS,
    STAGE_HEAD,
    FuelExhausted,
    Limits,
    beta_equiv,
    head_reduce,
)
from storlab.syntax import parse
from storlab.terms import (
    App,
    Const,
    Family,
    Lam,
    Var,
    alpha_eq,
    app,
    app_power,
    mk_church,
)
from storlab.theorems import (
    delta_forward,
    verify_theorem1_instance,
    verify_theorem2_instance,
    verify_theorem3,
)
from theory import (
    BOUND_NAME_IN_AB,
    NOT_APPLIED_TO_AB,
    PAYLOAD_VIOLATION,
    PViolationError,
    delta_inverse,
    head_step,
    p_violation,
    satisfies_P,
    sigma_hat_subst,
    sigma_subst,
    verify_lemma1_along,
)

U, V, W = Var("u"), Var("v"), Var("w")


def test_sigma_on_seeds():
    s1 = prelude()["S1"]
    assert sigma_subst(Const(Family.UPPER, 3), s1) == app_power(s1, 3, mk_church(0))


def test_sigma_discards_payload():
    s1 = prelude()["S1"]
    assert sigma_subst(Const(Family.UPPER, 0, (U, V)), s1) == mk_church(0)
    stored = Const(Family.UPPER, 2, (U, V))
    assert sigma_subst(stored, s1) == app_power(s1, 2, mk_church(0))


def test_sigma_is_homomorphic():
    s1 = prelude()["S1"]
    t = Lam("y", App(Var("y"), Const(Family.UPPER, 1)))
    assert sigma_subst(t, s1) == Lam("y", App(Var("y"), App(s1, mk_church(0))))


def test_sigma_rejections():
    s1 = prelude()["S1"]
    with pytest.raises(ValueError):
        sigma_subst(Const(Family.LOWER, 1), s1)
    with pytest.raises(ValueError):
        sigma_subst(Const(Family.UPPER, 1), Var("z"))


def test_sigma_image_is_constant_free():
    s2 = prelude("S2")["S2"]
    r = rng(61)
    for _ in range(100):
        image = sigma_subst(p_term(r, 4), s2)
        assert not any(True for _ in _consts(image))


def _consts(t):
    from storlab.terms import iter_consts
    return iter_consts(t)


def test_sigma_commutes_with_head_steps():
    s1 = prelude()["S1"]
    r = rng(67)
    for _ in range(150):
        t = with_head_redex(r, p_term)
        stepped = head_step(t)
        assert stepped is not None
        assert alpha_eq(sigma_subst(stepped, s1), head_step(sigma_subst(t, s1)))


def test_sigma_hat_shapes():
    s1 = prelude()["S1"]
    s_hat = App(Lam("x", s1), Var("y"))
    zero_hat = App(Lam("x", mk_church(0)), Var("y"))
    assert sigma_hat_subst(Const(Family.UPPER, 1), s1) == App(s_hat, zero_hat)
    assert sigma_hat_subst(Const(Family.UPPER, 0, (U, V)), s1) == zero_hat


def test_sigma_hat_guard_unfolds_in_one_step():
    s1 = prelude()["S1"]
    s_hat = App(Lam("x", s1), Var("y"))
    zero_hat = App(Lam("x", mk_church(0)), Var("y"))
    assert head_step(App(s_hat, W)) == App(s1, W)
    assert head_step(zero_hat) == mk_church(0)


def test_sigma_hat_rejects_captured_guard():
    s1 = prelude()["S1"]
    with pytest.raises(ValueError):
        sigma_hat_subst(Var("y"), s1)
    # a different guard name sidesteps the clash
    out = sigma_hat_subst(App(Var("y"), Const(Family.UPPER, 0, (U, V))), s1, y="y0")
    assert out == App(Var("y"), App(Lam("x", mk_church(0)), Var("y0")))


def test_satisfies_p_examples():
    good = app(Const(Family.UPPER, 1, (U, V)), U, V, W)
    assert satisfies_P(good)
    assert p_violation(good) is None

    captured = Lam("u", app(Const(Family.UPPER, 1, (U, V)), U, V))
    witness = p_violation(captured)
    assert witness is not None and witness.kind == BOUND_NAME_IN_AB

    mismatched = app(Const(Family.UPPER, 1, (U, V)), W, V)
    witness = p_violation(mismatched)
    assert witness is not None and witness.kind == NOT_APPLIED_TO_AB


def test_satisfies_p_bare_stored_constant():
    assert p_violation(Const(Family.UPPER, 0, (U, V))).kind == NOT_APPLIED_TO_AB


def test_satisfies_p_recurses_into_payload():
    inner = Const(Family.UPPER, 0, (Var("a"), Var("b")))
    t = app(Const(Family.UPPER, 1, (U, V, inner)), U, V)
    witness = p_violation(t)
    assert witness.kind == PAYLOAD_VIOLATION
    assert witness.path[-1] == "payload[2]"


def test_seeds_are_unconstrained():
    assert satisfies_P(Lam("s", App(Var("s"), Const(Family.UPPER, 4))))


def test_generated_p_terms_satisfy_p():
    r = rng(71)
    for _ in range(300):
        assert satisfies_P(p_term(r, 5))


def test_delta_forward_examples():
    assert delta_forward(Const(Family.LOWER, 5)) == Const(Family.UPPER, 5)

    image = delta_forward(Const(Family.LOWER, 0, (U, V)))
    assert image == app(Const(Family.UPPER, 0, (U, V)), U, V)

    t = App(Var("f"), Const(Family.LOWER, 1, (U, V, W)))
    expected = App(Var("f"), app(Const(Family.UPPER, 1, (U, V, W)), U, V))
    assert delta_forward(t) == expected

    with pytest.raises(ValueError):
        delta_forward(Const(Family.UPPER, 0))


def test_delta_inverse_examples():
    assert delta_inverse(Const(Family.UPPER, 5)) == Const(Family.LOWER, 5)
    group = app(Const(Family.UPPER, 0, (U, V)), U, V)
    assert delta_inverse(group) == Const(Family.LOWER, 0, (U, V))
    with pytest.raises(ValueError):
        delta_inverse(Const(Family.LOWER, 3))


def test_delta_inverse_requires_the_discipline():
    broken = app(Const(Family.UPPER, 0, (U, V)), W, V)
    with pytest.raises(PViolationError) as info:
        delta_inverse(broken)
    assert info.value.violation.kind == NOT_APPLIED_TO_AB


def test_delta_round_trips():
    r = rng(73)
    for _ in range(400):
        t = lower_term(r, 5)
        assert alpha_eq(delta_inverse(delta_forward(t)), t)
    for _ in range(400):
        t = p_term(r, 5)
        assert alpha_eq(delta_forward(delta_inverse(t)), t)


def test_delta_forward_image_satisfies_p():
    r = rng(79)
    for _ in range(200):
        assert satisfies_P(delta_forward(lower_term(r, 5)))


def test_lemma1_clean_over_builtin_traces():
    env = prelude()
    report = run_check(env["T2"], 3, prelude("S2")["S2"])
    scan = verify_lemma1_along(report)
    assert scan.ok
    assert scan.pairs_checked > 0
    assert scan.witness is None

    scan = verify_lemma1_along(run_check(env["T1"], 4, env["S1"]))
    assert scan.ok
    assert scan.to_dict() == {"check": "lemma1", "ok": True,
                              "pairs_checked": scan.pairs_checked}


def test_lemma1_hand_built_step():
    # the premise has a payload name bound by the outer lambda, so the pair
    # is vacuous; the reduct rewrites payload and arguments together
    t = App(Lam("u", app(Const(Family.UPPER, 1, (U, V)), U, V)), W)
    assert not satisfies_P(t)
    reduct = head_step(t)
    assert reduct == app(Const(Family.UPPER, 1, (W, V)), W, V)
    assert satisfies_P(reduct)

    hnf, steps = head_normal_form(t)
    report = RunReport(Family.UPPER, 1, Verdict.SUCCESS, prelude()["S1"],
                       trace=[MacroStep(t, hnf, steps, None)])
    scan = verify_lemma1_along(report)
    assert scan.ok and scan.pairs_checked == 1


def test_lemma1_rejects_non_replaying_traces():
    fake = RunReport(Family.UPPER, 0, Verdict.SUCCESS, prelude()["S1"],
                     trace=[MacroStep(mk_church(2), mk_church(2), 5, None)])
    with pytest.raises(ValueError):
        verify_lemma1_along(fake)


def test_lemma1_requires_upper_family():
    report = run_check(prelude()["T1"], 2)
    with pytest.raises(ValueError):
        verify_lemma1_along(report)


def test_p_preservation_under_head_steps():
    r = rng(83)
    for _ in range(200):
        t = with_head_redex(r, p_term)
        assert satisfies_P(t)
        assert satisfies_P(head_step(t))


def test_theorem1_instances():
    env1, env2 = prelude("S1"), prelude("S2")
    report = verify_theorem1_instance(env1["T1"], env2["S2"], 4)
    assert report.verdict == Verdict.PASS
    assert all(c.status == Verdict.PASS for c in report.checks)
    assert all(c.sigma_hat == Verdict.PASS for c in report.checks)
    assert all(c.sigma_hat_matches_tau for c in report.checks)

    report = verify_theorem1_instance(env1["T2"], env1["S1"], 4)
    assert report.verdict == Verdict.PASS


def test_theorem1_drives_the_operator_with_the_delayed_numeral(monkeypatch):
    # theorem 1 builds each level's numeral directly: sigma-hat's image of X[n].
    # The sweeps are faked, so each state reduced is a sigma-hat run's start
    starts = []

    def recording(term, limits=DEFAULT_LIMITS, args=()):
        starts.append(app(term, *args))
        return head_reduce(term, limits, args)

    fake_sweeps(monkeypatch, [Verdict.SUCCESS] * 4, [Verdict.SUCCESS] * 4)
    monkeypatch.setattr(checker, "head_reduce", recording)
    env1, s2 = prelude("S1"), prelude("S2")["S2"]
    verify_theorem1_instance(env1["T1"], s2, 3)
    assert starts == [app(env1["T1"], sigma_hat_subst(Const(Family.UPPER, n), s2), Var(PROBE))
                      for n in range(4)]


def test_theorem1_vacuous_when_lower_fails():
    env2 = prelude("S2")
    report = verify_theorem1_instance(env2["T3"], env2["S2"], 3)
    assert report.verdict == Verdict.PASS
    assert report.checks[0].status == Verdict.PASS
    assert all(c.status == Verdict.VACUOUS for c in report.checks[1:])


def test_theorem1_fuel_reports_unknown():
    env = prelude()
    report = verify_theorem1_instance(env["T2"], env["S1"], 2,
                                      limits=Limits(head_fuel=2))
    assert report.verdict == Verdict.FUEL
    assert report.verdict != Verdict.REFUTED
    assert Verdict.UNKNOWN in {c.status for c in report.checks}


def test_theorem1_dict_shape():
    env = prelude()
    d = verify_theorem1_instance(env["T1"], env["S1"], 1).to_dict()
    assert d["check"] == "theorem1"
    assert list(d) == ["check", "n_max", "verdict", "checks"]
    assert len(d["checks"]) == 2


def test_a_level_holds_only_what_it_reports():
    # each field is a JSON value: no level keeps its runs or their traces
    env = prelude()
    for report in (verify_theorem1_instance(env["T1"], env["S2"], 2),
                   verify_theorem2_instance(env["T2"], 2)):
        for level in report.checks:
            for name, value in zip(level._fields, level):
                assert value is None or isinstance(value, (int, Verdict, bool)), (name, value)


@pytest.mark.parametrize("limits", [DEFAULT_LIMITS, Limits(head_fuel=10), Limits(macro_fuel=1)],
                         ids=["default", "head_fuel=10", "macro_fuel=1"])
@pytest.mark.parametrize("name", ["T1", "T2", "I"])
def test_theorem2_levels_sweep_to_the_summaries_verdicts(name, limits):
    # corpus takes its storage and s-storage S1 rows from theorem 2's levels
    env = prelude()
    report = verify_theorem2_instance(env[name], 3, limits)
    assert Verdict.sweep(c.lower for c in report.checks) == \
        check_operator(env[name], 3, limits=limits).verdict
    assert Verdict.sweep(c.upper for c in report.checks) == \
        check_operator(env[name], 3, env["S1"], limits).verdict


def test_theorem2_instances():
    env = prelude()
    for name in ("T1", "T2"):
        report = verify_theorem2_instance(env[name], 4)
        assert report.verdict == Verdict.PASS
        assert all(c.status == Verdict.PASS for c in report.checks)
        assert all(c.tau_match for c in report.checks)
        assert all(c.delta_match for c in report.checks)


@pytest.mark.parametrize("variant, verdict", [
    (r"\n f x. f (n ((\v w. v) f (\q. q)) x)", Verdict.REFUTED),
    (r"\n f x. f (n f ((\y. y) x))", Verdict.REFUTED),
    (r"\n f x. f ((\m. m) n f x)", Verdict.PASS),
    (r"\n f x. (\g. g) f (n f x)", Verdict.PASS),
])
@pytest.mark.parametrize("name", ["T1", "T2"])
def test_theorem2_delta_check_is_about_s1_itself(monkeypatch, name, variant, verdict):
    # theorem 2 with a successor beta-equal to S1 in S1's place: the first two
    # leave a redex below the head of each upper head normal form from level 1
    # on, where delta of the lower one has none, so the delta check fails
    # there; the last two have only head redexes, which reduce away
    operator = prelude()[name]
    monkeypatch.setitem(theorems._CORE, "S1", parse(variant))
    report = verify_theorem2_instance(operator, 3)
    assert report.verdict == verdict
    delta = [True] * 4 if verdict == Verdict.PASS else [True, False, False, False]
    assert [(c.tau_match, c.delta_match) for c in report.checks] == \
        [(True, match) for match in delta]


def test_theorem2_does_no_head_reduction_of_its_own(monkeypatch):
    # head_reduce is called once per macro step of the two sweeps, nowhere else
    env = prelude()
    sweeps = (check_operator(env["T1"], 6),
              check_operator(env["T1"], 6, env["S1"]))
    steps = sum(len(run.trace) for sweep in sweeps for run in sweep)
    calls = []

    def counting(term, limits=DEFAULT_LIMITS, args=()):
        calls.append(term)
        return head_reduce(term, limits, args)

    for name, module in list(sys.modules.items()):
        if name == "storlab" or name.startswith("storlab."):
            for attr, value in list(vars(module).items()):
                if value is head_reduce:
                    monkeypatch.setattr(module, attr, counting)
    assert verify_theorem2_instance(env["T1"], 6).verdict == Verdict.PASS
    assert len(calls) == steps


def test_delta_correspondence_maps_each_trace_node_once(monkeypatch):
    # one memo per level: the nodes mapped grow with the trace's DAG, about
    # linearly in n, not with the summed sizes of its states (3.6x per doubling)
    original, memos = theorems.delta_forward, {}

    def recording(t, memo=None):
        memo = {} if memo is None else memo
        memos[id(memo)] = memo
        return original(t, memo)

    monkeypatch.setattr(theorems, "delta_forward", recording)
    env = prelude()
    mapped = []
    for n in (128, 256):
        lower = run_check(env["T1"], n)
        upper = run_check(env["T1"], n, env["S1"])
        memos.clear()
        assert theorems._delta_correspondence(lower, upper) is True
        mapped.append(sum(len(memo) for memo in memos.values()))
    assert mapped[1] <= 2.2 * mapped[0]


@functools.cache
def theorem2_runs(name, n):
    env = prelude()
    return (run_check(env[name], n),
            run_check(env[name], n, env["S1"]))


def mutated_runs(seed):
    """The lower and upper runs of T1 or T2 at a level up to 8, and what was
    changed: nothing (None), the last step of one run ("dropped"), or one
    head normal form of the "lower" or the "upper" run, replaced by another
    state's or applied to a variable."""
    r = rng(seed)
    lower, upper = theorem2_runs(r.choice(("T1", "T2")), r.randint(0, 8))
    kind = r.randrange(6)
    if kind == 0:
        return lower, upper, None
    side = r.choice(("lower", "upper"))
    run = lower if side == "lower" else upper
    steps = list(run.trace)
    i, j = r.randrange(len(steps)), r.randrange(len(steps))
    if kind == 1:
        steps.pop()
        change = "dropped"
    else:
        step = steps[i]
        changed = steps[j].v if kind in (2, 3) and i != j else App(step.v, Var("p"))
        steps[i] = MacroStep(step.u, changed, step.beta_steps, step.transform)
        change = side
    run = RunReport(run.family, run.n, run.verdict, run.successor, run.reason, run.tau, steps)
    return (run, upper, change) if side == "lower" else (lower, run, change)


@hyp.given(st.integers(0, 2**32 - 1))
def test_delta_correspondence_matches_per_state_check(seed):
    # the oracle head-reduces delta of each lower start state, the check reads
    # the lower run's own head normal form: they agree unless that was changed
    lower, upper, change = mutated_runs(seed)
    verdict = theorems._delta_correspondence(lower, upper)
    if change != "lower":
        assert verdict == oracle_delta_correspondence(lower, upper)
    assert verdict is (change is None)


def head_outcome(t, limits=DEFAULT_LIMITS):
    """head_reduce's answer as a value: the head normal form, or the partial
    term when fuel ran out, with the steps taken and whether it finished."""
    try:
        return (*head_normal_form(t, limits), True)
    except FuelExhausted as exc:
        return exc.partial, exc.steps, False


@hyp.settings(deadline=None)
@hyp.given(st.integers(0, 2**32 - 1))
def test_delta_forward_commutes_with_head_reduction(seed):
    """delta_forward puts a constant-headed term with the same free names in
    place of each constant, so it keeps every redex, renaming and step: the
    lemma the delta correspondence rests on, at every fuel cut-off."""
    r = rng(seed)
    t = lower_term(r, 4) if r.random() < 0.5 else with_head_redex(r, lower_term)
    t = app(t, *(lower_term(r, 2) for _ in range(r.randint(0, 2))))
    image = delta_forward(t)
    for fuel in (*range(1, 41), 500):
        limits = Limits(head_fuel=fuel)
        v, steps, finished = head_outcome(t, limits)
        assert head_outcome(image, limits) == (delta_forward(v), steps, finished), fuel


def lower_runs():
    """Lower runs with real traces, with their limits: T1-T3 under S1's and
    S2's preludes to level 6, the same at level 12 and head fuels 1-13 (T1's
    last step there takes 13 steps, so it runs out at each fuel but the
    last), and 40 operators in the builtins' shapes to level 5."""
    for env in (prelude("S1"), prelude("S2")):
        for name in ("T1", "T2", "T3"):
            for n in range(7):
                yield run_check(env[name], n), DEFAULT_LIMITS
            for fuel in range(1, 14):
                limits = Limits(head_fuel=fuel)
                yield run_check(env[name], 12, limits=limits), limits
    r = rng(89)
    for _ in range(40):
        operator = builtin_shaped(r)[0]
        for n in range(6):
            yield run_check(operator, n), DEFAULT_LIMITS


def test_delta_forward_commutes_with_head_reduction_on_real_traces():
    checked = starved = 0
    for run, limits in lower_runs():
        for k, step in enumerate(run.trace):
            finished = not (run.reason == STAGE_HEAD and k == len(run.trace) - 1)
            assert head_outcome(delta_forward(step.u), limits) == \
                (delta_forward(step.v), step.beta_steps, finished)
            checked += 1
            starved += not finished
    assert checked > 1000 and starved >= 30


def test_theorem2_equivalence_through_shared_failure():
    env2 = prelude("S2")
    report = verify_theorem2_instance(env2["T3"], 3)
    assert report.verdict == Verdict.PASS
    assert report.checks[0].tau_match is True
    assert all(c.tau_match is None for c in report.checks[1:])


# -- the judges' refuting and undecided rows.  Theorems 1 and 2 hold, so no
#    real operator reaches them: the runs, or the judges' own reductions,
#    are replaced by hand-built ones --

def fake_sweeps(monkeypatch, lower, upper):
    """Make theorems.check_operator return runs with these verdicts, level
    by level: a Success carries #n as its tau, a Fail TauNotN with #(n+1)."""
    def runs(family, successor, verdicts):
        for n, verdict in enumerate(verdicts):
            if verdict == Verdict.SUCCESS:
                yield RunReport(family, n, verdict, successor, None, mk_church(n))
            else:
                yield RunReport(family, n, verdict, successor, TAU_NOT_N, mk_church(n + 1))

    def fake(operator, n_max, successor=None, limits=DEFAULT_LIMITS):
        family = Family.LOWER if successor is None else Family.UPPER
        verdicts = lower if successor is None else upper
        assert len(verdicts) == n_max + 1
        return OperatorSummary(runs(family, successor, verdicts))

    monkeypatch.setattr(theorems, "check_operator", fake)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_theorem1_refutes_a_level_whose_upper_run_fails(capsys, monkeypatch):
    fake_sweeps(monkeypatch, [Verdict.SUCCESS] * 2, [Verdict.SUCCESS, Verdict.FAIL])
    monkeypatch.setattr(theorems, "_hat_check", lambda *args: (Verdict.PASS, True))
    report = verify_theorem1_instance(prelude()["T1"], S1, 1)
    assert [c.status for c in report.checks] == [Verdict.PASS, Verdict.FAIL]
    assert report.checks[1].sigma_hat is None
    assert report.verdict == Verdict.REFUTED
    assert run_cli(capsys, "theorem1", "T1", "--n-max", "1") == (EXIT_REFUTED, (
        "n=0: lower=Success upper=Success sigma-hat=Pass  -> Pass\n"
        "n=1: lower=Success upper=Fail  -> Fail\n"
        "verdict: Refuted\n"))


@pytest.mark.parametrize("upper, sigma_hat", [(Verdict.FAIL, None),
                                              (Verdict.SUCCESS, Verdict.FAIL)],
                         ids=["upper run", "sigma-hat"])
def test_theorem1_fails_a_level_only_where_s_is_a_successor_below_it(monkeypatch, upper,
                                                                     sigma_hat):
    # (S)#0 is #1 but (S)#1 is not #2: levels 0 and 1 rely on no k and on k = 0
    # only, so they fail; level 2 relies on k = 1 too, so it is vacuous
    fake_sweeps(monkeypatch, [Verdict.SUCCESS] * 3, [upper] * 3)
    monkeypatch.setattr(theorems, "_hat_check", lambda *args: (Verdict.FAIL, None))
    report = verify_theorem1_instance(prelude()["T1"], parse(r"\n f x. f x"), 2)
    assert [(c.status, c.sigma_hat) for c in report.checks] == \
        [(Verdict.FAIL, sigma_hat)] * 2 + [(Verdict.VACUOUS, sigma_hat)]
    assert report.verdict == Verdict.REFUTED


# T1 with S1 in place of S, so the successor reaches only its upper runs
T1_OVER_S1 = r"\n. n (\x y. x (\z. y (S1 z))) (\f. f #0)"


@pytest.mark.parametrize("successor, statuses", [
    (r"\n. n", ["Pass", "Vacuous", "Vacuous"]),  # (S)#0 is #0
    (r"\n f x. f x", ["Pass", "Pass", "Vacuous", "Vacuous"]),  # (S)#k is #1
], ids=["identity", "constant-one"])
def test_theorem1_is_vacuous_where_s_is_no_successor(capsys, successor, statuses):
    argv = ("theorem1", T1_OVER_S1, "--succ", successor, "--n-max", str(len(statuses) - 1))
    lines = [f"n={n}: lower=Success upper=Success sigma-hat=Pass  -> Pass"
             if status == "Pass" else f"n={n}: lower=Success upper=Fail  -> Vacuous"
             for n, status in enumerate(statuses)]
    assert run_cli(capsys, *argv) == (EXIT_PASS, "\n".join(lines + ["verdict: Pass\n"]))
    code, out = run_cli(capsys, *argv, "--json")
    levels = json.loads(out)["checks"]
    assert (code, json.loads(out)["verdict"]) == (EXIT_PASS, "Pass")
    assert [level["status"] for level in levels] == statuses
    assert [set(level) for level in levels if level["status"] == "Vacuous"] == \
        [{"n", "lower", "upper", "status"}] * statuses.count("Vacuous")


def test_theorem1_premise_is_unknown_when_norm_fuel_runs_out(capsys):
    # (S)#0 takes more than 6 normalization steps, the runs' taus fewer
    argv = ("theorem1", T1_OVER_S1, "--succ", r"\n. (\a. a a a a a a a a) (\b. b) n",
            "--n-max", "2", "--norm-fuel", "6")
    assert run_cli(capsys, *argv) == (EXIT_FUEL, (
        "n=0: lower=Success upper=Success sigma-hat=Pass  -> Pass\n"
        "n=1: lower=Success upper=Fail  -> Unknown\n"
        "n=2: lower=Success upper=Fail  -> Unknown\n"
        "verdict: FuelExhausted\n"))
    code, out = run_cli(capsys, *argv, "--json")
    assert code == EXIT_FUEL
    assert [level["status"] for level in json.loads(out)["checks"]] == \
        ["Pass", "Unknown", "Unknown"]


def test_theorem1_premise_is_vacuous_at_a_decided_failure_past_an_undecided_k(capsys):
    # (S)#0 is #300 applied to I and #0: 200 steps do not normalize it; (S)#k is #5
    # for every k >= 1, so k = 1 is decided false however k = 0 turns out
    argv = ("theorem1", T1_OVER_S1, "--succ", r"\n. n (\z. #5) (#300 (\w. w) #0)",
            "--n-max", "3", "--norm-fuel", "200")
    assert run_cli(capsys, *argv) == (EXIT_FUEL, (
        "n=0: lower=Success upper=Success sigma-hat=Pass  -> Pass\n"
        "n=1: lower=Success upper=Fail  -> Unknown\n"
        "n=2: lower=Success upper=Fail  -> Vacuous\n"
        "n=3: lower=Success upper=Fail  -> Vacuous\n"
        "verdict: FuelExhausted\n"))
    code, out = run_cli(capsys, *argv, "--json")
    assert code == EXIT_FUEL
    assert [level["status"] for level in json.loads(out)["checks"]] == \
        ["Pass", "Unknown", "Vacuous", "Vacuous"]


@pytest.mark.parametrize("successor, n_max, asked", [
    ("S1", 8, list(range(8))),
    ("S1", 32, list(range(32))),
    (r"\n f x. f x", 4, [0, 1]),  # (S)#1 is not #2, so k = 2 and 3 are never asked
])
def test_theorem1_checks_each_k_of_the_premise_once(monkeypatch, successor, n_max, asked):
    # every level fails, so each needs every k below it: a sweep asks each k once,
    # in order, and none past the first k decided false
    ks = []

    def answer(successor, k, limits, original=theorems._successor_answer):
        ks.append(k)
        return original(successor, k, limits)

    monkeypatch.setattr(theorems, "_hat_check", lambda *args: (Verdict.FAIL, None))
    monkeypatch.setattr(theorems, "_successor_answer", answer)
    report = verify_theorem1_instance(prelude()["T1"], parse(successor, prelude()), n_max)
    assert report.verdict == Verdict.REFUTED
    assert ks == asked


@pytest.mark.parametrize("lower, upper", [(Verdict.SUCCESS, Verdict.FAIL),
                                          (Verdict.FAIL, Verdict.SUCCESS)])
def test_theorem2_refutes_a_level_whose_verdicts_differ(capsys, monkeypatch, lower, upper):
    fake_sweeps(monkeypatch, [Verdict.FAIL, lower], [Verdict.FAIL, upper])
    report = verify_theorem2_instance(prelude()["T1"], 1)
    assert [c.status for c in report.checks] == [Verdict.PASS, Verdict.FAIL]
    assert (report.checks[1].tau_match, report.checks[1].delta_match) == (None, None)
    assert run_cli(capsys, "theorem2", "T1", "--n-max", "1") == (EXIT_REFUTED, (
        "n=0: lower=Fail upper[S1]=Fail  -> Pass\n"
        f"n=1: lower={lower} upper[S1]={upper}  -> Fail\n"
        "verdict: Refuted\n"))


@pytest.mark.parametrize("hnf", [  # as head_reduce's spine
    [Var("g")],  # a foreign head
    [Var(PROBE), mk_church(0), mk_church(0)],  # the probe with two arguments
    [Lam("y", app(Var(PROBE), mk_church(0)))],  # under a lambda
])
def test_sigma_hat_fails_when_the_delayed_numeral_does_not_reach_f_t(capsys, monkeypatch,
                                                                     hnf):
    # the sweeps are faked, so only the sigma-hat runs reach the stub
    fake_sweeps(monkeypatch, [Verdict.SUCCESS] * 2, [Verdict.SUCCESS] * 2)
    monkeypatch.setattr(checker, "head_reduce", lambda term, limits, args: (hnf, 0))
    report = verify_theorem1_instance(prelude()["T1"], S1, 1)
    assert [(c.status, c.sigma_hat, c.sigma_hat_matches_tau) for c in report.checks] == \
        [(Verdict.FAIL, Verdict.FAIL, None)] * 2
    assert run_cli(capsys, "theorem1", "T1", "--n-max", "1") == (EXIT_REFUTED, (
        "n=0: lower=Success upper=Success sigma-hat=Fail  -> Fail\n"
        "n=1: lower=Success upper=Success sigma-hat=Fail  -> Fail\n"
        "verdict: Refuted\n"))


@pytest.mark.parametrize("equal, status, matches, code", [
    (None, Verdict.UNKNOWN, None, EXIT_FUEL),
    (False, Verdict.FAIL, True, EXIT_REFUTED),  # t is still alpha-equal to the upper tau
])
def test_sigma_hat_follows_the_numeral_check(capsys, monkeypatch, equal, status, matches,
                                             code):
    # the sweeps are faked, so only the sigma-hat run's tau check reaches the stub
    fake_sweeps(monkeypatch, [Verdict.SUCCESS], [Verdict.SUCCESS])
    monkeypatch.setattr(checker, "is_numeral", lambda t, n, limits: equal)
    report = verify_theorem1_instance(prelude()["T1"], S1, 0)
    (level,) = report.checks
    assert (level.lower, level.upper) == (Verdict.SUCCESS, Verdict.SUCCESS)
    assert (level.status, level.sigma_hat, level.sigma_hat_matches_tau) == \
        (status, status, matches)
    assert run_cli(capsys, "theorem1", "T1", "--n-max", "0") == (code, (
        f"n=0: lower=Success upper=Success sigma-hat={status}  -> {status}\n"
        f"verdict: {Verdict.fold([status])}\n"))


def test_sigma_hat_fails_on_an_open_tau(monkeypatch):
    # the operator stores its input itself, here the delayed numeral, in which y
    # is free: beta-equal to #n, but a run accepts only a closed tau
    fake_sweeps(monkeypatch, [Verdict.SUCCESS] * 3, [Verdict.SUCCESS] * 3)
    report = verify_theorem1_instance(parse(r"\n f. f n"), S1, 2)
    assert [(c.status, c.sigma_hat, c.sigma_hat_matches_tau) for c in report.checks] == \
        [(Verdict.FAIL, Verdict.FAIL, False)] * 3
    assert report.verdict == Verdict.REFUTED


@hyp.settings(max_examples=100, deadline=None)
@hyp.given(st.integers(0, 2**32 - 1), st.sampled_from(SUCCESSORS), st.integers(0, 4))
def test_sigma_hat_matches_the_oracle(seed, successor, n_max):
    """On a builtin, a builtin with redexes put in, or an operator in the
    builtins' shapes, the sigma-hat check gives the hand-written check's
    answer at every level it reaches: the two differ only on an open tau.
    Theorem 1 passes with each successor."""
    r = rng(seed)
    kind = r.randrange(3)
    if kind == 2:
        operator = builtin_shaped(r)[0]
    else:
        operator = prelude(r.choice(("S1", "S2")))[r.choice(("T1", "T2", "T3"))]
        if kind == 1:
            operator = with_redexes(r, operator)
    successor = parse(successor)
    report = verify_theorem1_instance(operator, successor, n_max)
    upper = check_operator(operator, n_max, successor)
    for level, run in zip(report.checks, upper):
        if level.sigma_hat is not None:
            assert (level.sigma_hat, level.sigma_hat_matches_tau) == \
                oracle_hat_check(operator, successor, run), level.n
    assert report.verdict == Verdict.PASS


@pytest.mark.parametrize("lower, failures_ok, verdict", [
    ([Verdict.SUCCESS, Verdict.FUEL, Verdict.FUEL], None, Verdict.FUEL),
    # a level that fails otherwise than expected decides, whatever starved
    ([Verdict.SUCCESS, Verdict.FUEL, Verdict.FAIL], False, Verdict.FUEL),
    ([Verdict.SUCCESS, Verdict.FAIL, Verdict.FUEL], False, Verdict.REFUTED),
])
def test_theorem3_failures_are_unknown_only_when_none_is_wrong(monkeypatch, lower, failures_ok,
                                                               verdict):
    # the fake lower runs fail with TauNotN, not with theorem 3's TauNotClosed
    fake_sweeps(monkeypatch, lower, [Verdict.SUCCESS] * 3)
    report = verify_theorem3(2)
    assert (report.upper_tau_ok, report.lower_failures_ok) == (True, failures_ok)
    assert report.verdict == verdict


@pytest.mark.parametrize("lower, upper, verdict", [
    ("S", "S", Verdict.PASS),
    ("F", "S", Verdict.REFUTED),
    ("U", "S", Verdict.FUEL),
    ("FFF", "SSS", Verdict.REFUTED),
    ("SSS", "SSS", Verdict.REFUTED),
    ("S", "F", Verdict.REFUTED),
])
def test_theorem3_verdict_from_its_sweeps(monkeypatch, lower, upper, verdict):
    # one run verdict a level: S Success, F Fail, U FuelExhausted.  Level 0 must
    # pass, and level 1, where there is one, must be the first that does not
    run = {"S": Verdict.SUCCESS, "F": Verdict.FAIL, "U": Verdict.FUEL}
    fake_sweeps(monkeypatch, [run[c] for c in lower], [run[c] for c in upper])
    assert verify_theorem3(len(lower) - 1).verdict == verdict


def test_theorem3_reproduction():
    report = verify_theorem3(3)
    assert report.verdict == Verdict.PASS
    assert report.upper_verdict == "AllPass"
    assert report.lower_at == 1
    d = report.to_dict()
    assert d["check"] == "theorem3" and d["verdict"] == Verdict.PASS


def test_theorem3_degenerate_bound():
    report = verify_theorem3(0)
    assert report.verdict == Verdict.PASS
    assert report.lower_verdict == "AllPass"


def test_theorem3_reads_tau_from_the_upper_verdict(monkeypatch):
    # a run succeeds only on a tau beta-equal to #n, so no tau is normalized again:
    # the sweeps are faked, so a tau check would be theorem 3's own
    calls = []
    fake_sweeps(monkeypatch, [Verdict.SUCCESS] * 7, [Verdict.SUCCESS] * 7)
    monkeypatch.setattr(checker, "is_numeral", lambda *args: calls.append(args))
    assert verify_theorem3(6).upper_tau_ok is True
    assert calls == []


def test_theorem3_upper_tau_matches_oracle():
    env2 = prelude("S2")
    seen = set()
    for head, macro, norm in itertools.product((1, 2, 3, 5, 8, 13, 10**6), (1, 2, 3, 10**4),
                                               (1, 3, 8, 10**6)):
        limits = Limits(head_fuel=head, macro_fuel=macro, norm_fuel=norm)
        upper = check_operator(env2["T3"], 4, env2["S2"], limits)
        ok = verify_theorem3(4, limits).upper_tau_ok
        assert ok == oracle_upper_tau_ok(upper, limits), limits
        seen.add(ok)
    assert seen == {True, None}


def test_verifiers_reject_a_negative_bound():
    # at bound 0 the verdicts rest on I's two failed runs; below 0 they would rest on none
    env = prelude()
    for report in (verify_theorem1_instance(env["I"], env["S1"], 0),
                   verify_theorem2_instance(env["I"], 0)):
        (level,) = report.checks
        assert (level.lower, level.upper) == (Verdict.FAIL, Verdict.FAIL)
    for verify in (lambda: verify_theorem1_instance(env["I"], env["S1"], -1),
                   lambda: verify_theorem2_instance(env["I"], -1),
                   lambda: verify_theorem3(-1)):
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            verify()


def test_theorem3_tau_values():
    env2 = prelude("S2")
    for n in (0, 2, 3):
        report = run_check(env2["T3"], n, env2["S2"])
        assert report.verdict == Verdict.SUCCESS
        assert beta_equiv(report.tau, mk_church(n)) is True


# -- delta as one walk over the term as a DAG, checked against the tree walk
#    of oracles.py --

S1 = prelude()["S1"]
FAMILY_OF = {lower_term: Family.LOWER, p_term: Family.UPPER}


def mapping_case(seed):
    """A generated term built from pieces used more than once: in
    applications, under binders and in the payloads of stored constants.
    Lower-family pieces suit delta, upper-family ones sigma, and mixed ones
    are rejected by both."""
    r = rng(seed)
    gen = (lower_term, p_term, any_term)[seed % 3]
    pieces = [gen(r, 3) for _ in range(3)]
    for _ in range(r.randint(1, 6)):
        a, b = r.choice(pieces), r.choice(pieces)
        roll = r.random()
        if roll < 0.4:
            piece = App(a, b)
        elif roll < 0.6:
            piece = Lam(r.choice(BINDERS), a)
        else:
            family = FAMILY_OF.get(gen) or r.choice(tuple(Family))
            extras = r.sample(pieces, r.randint(0, 2))
            piece = Const(family, r.randint(0, 2), (a, b, *extras))
        pieces.append(piece)
    return pieces[-1]


def mapped(mapping, *args):
    try:
        return mapping(*args)
    except ValueError as exc:
        return str(exc)


@hyp.given(st.integers(0, 2**32 - 1))
def test_constant_mappings_match_oracles(seed):
    t = mapping_case(seed)
    assert mapped(delta_forward, t) == mapped(oracle_delta_forward, t)


def test_mapping_cases_are_mapped_and_rejected():
    outcomes = {(type(mapped(sigma_subst, t, S1)), type(mapped(delta_forward, t)))
                for t in map(mapping_case, range(60))}
    assert {kind for kind, _ in outcomes} > {str}
    assert {kind for _, kind in outcomes} > {str}
    assert (str, str) in outcomes


def test_constant_mappings_keep_unchanged_subterms_and_sharing():
    pure = Lam("s", App(Var("s"), Var("p")))
    stored = Const(Family.LOWER, 1, (pure, Var("q")))
    out = delta_forward(App(App(stored, pure), stored))
    assert out.fn.arg is pure
    assert out.fn.fn is out.arg  # one image per distinct node
    assert out.arg.fn.fn.payload[0] is pure and out.arg.fn.arg is pure
    assert delta_forward(pure) is pure


def test_constant_mappings_walk_each_shared_node_once():
    # as a tree this term has 2**64 nodes, as a DAG 65
    lower = Const(Family.LOWER, 0)
    for level in range(64):
        lower = Const(Family.LOWER, level, (Var("p"), Var("q"), lower, lower))
    image = delta_forward(lower)
    for _ in range(64):
        stored = image.fn.fn
        assert stored.payload[2] is stored.payload[3]
        image = stored.payload[2]
    assert image == Const(Family.UPPER, 0)


def test_constant_mappings_deep_terms_without_recursion():
    chain = app_power(Var("g"), 5000, Const(Family.UPPER, 2))
    assert delta_forward(app_power(Var("g"), 5000, Const(Family.LOWER, 2))) == chain

    # 5000 nested payloads at levels 0..4999, a seed at the bottom
    nested_x, nested_X = Const(Family.LOWER, 0), Const(Family.UPPER, 0)
    for i in range(5000):
        nested_x = Const(Family.LOWER, i, (Var("p"), Var("q"), nested_x))
        nested_X = app(Const(Family.UPPER, i, (Var("p"), Var("q"), nested_X)),
                       Var("p"), Var("q"))
    assert delta_forward(nested_x) == nested_X
    with pytest.raises(ValueError, match="sigma_subst does not accept x-family"):
        sigma_subst(nested_x, S1)
    with pytest.raises(ValueError, match="delta_forward does not accept X-family"):
        delta_forward(nested_X)
