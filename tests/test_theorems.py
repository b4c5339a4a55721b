"""Numeral erasure, the payload discipline, the family translation, and the
instance verifiers built on them."""

import pytest

from genterms import lower_term, p_term, rng, with_head_redex
from storlab import prelude
from storlab.checker import MacroStep, RunReport, Verdict, run_check
from storlab.reduction import Limits, beta_equiv, head_reduce, head_step
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
    BOUND_NAME_IN_AB,
    NOT_APPLIED_TO_AB,
    PAYLOAD_VIOLATION,
    PViolationError,
    delta_forward,
    delta_inverse,
    p_violation,
    satisfies_P,
    sigma_hat_subst,
    sigma_subst,
    verify_lemma1_along,
    verify_theorem1_instance,
    verify_theorem2_instance,
    verify_theorem3,
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
    report = run_check(env["T2"], Family.UPPER, 3, prelude("S2")["S2"])
    scan = verify_lemma1_along(report)
    assert scan.ok
    assert scan.pairs_checked > 0
    assert scan.witness is None

    scan = verify_lemma1_along(run_check(env["T1"], Family.UPPER, 4, env["S1"]))
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

    hnf, steps = head_reduce(t)
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
    report = run_check(prelude()["T1"], Family.LOWER, 2)
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
    assert report.verdict == Verdict.PASS and report.ok
    assert all(c.status == Verdict.PASS for c in report.checks)
    assert all(c.hat_status == Verdict.PASS for c in report.checks)
    assert all(c.hat_matches_tau for c in report.checks)

    report = verify_theorem1_instance(env1["T2"], env1["S1"], 4)
    assert report.ok


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


def test_theorem2_instances():
    env = prelude()
    for name in ("T1", "T2"):
        report = verify_theorem2_instance(env[name], 4)
        assert report.verdict == Verdict.PASS
        assert all(c.status == Verdict.PASS for c in report.checks)
        assert all(c.tau_match for c in report.checks)
        assert all(c.delta_match for c in report.checks)


def test_theorem2_equivalence_through_shared_failure():
    env2 = prelude("S2")
    report = verify_theorem2_instance(env2["T3"], 3)
    assert report.verdict == Verdict.PASS
    assert report.checks[0].tau_match is True
    assert all(c.tau_match is None for c in report.checks[1:])


def test_theorem3_reproduction():
    report = verify_theorem3(3)
    assert report.ok
    assert report.upper_verdict == "AllPass"
    assert report.lower_at == 1
    d = report.to_dict()
    assert d["check"] == "theorem3" and d["verdict"] == Verdict.PASS


def test_theorem3_degenerate_bound():
    report = verify_theorem3(0)
    assert report.ok
    assert report.lower_verdict == "AllPass"


def test_theorem3_tau_values():
    env2 = prelude("S2")
    for n in (0, 2, 3):
        report = run_check(env2["T3"], Family.UPPER, n, env2["S2"])
        assert report.verdict == Verdict.SUCCESS
        assert beta_equiv(report.tau, mk_church(n)) is True
