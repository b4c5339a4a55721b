"""Bounded-instance acceptance battery.

Every claim the package makes is exercised here at desk scale. Each test
prints a single verdict line, so `pytest tests/test_acceptance.py -s -v`
reads as a checklist. A failing body prints FAIL and then raises, keeping
the printed verdict and the pytest outcome in agreement.
"""

import contextlib
import functools
import io

from definitions import numeral_inputs, stored
from genterms import any_term, lower_term, p_term, pure_term, rng, \
    substitution_for, with_head_redex
from oracles import head_normal_form, spine, substitute_many
from storlab import prelude
from storlab.checker import (
    FINAL,
    TAU_NOT_CLOSED,
    Verdict,
    check_operator,
    run_check,
)
from storlab.cli import EXIT_FUEL, main
from storlab.reduction import (
    FuelExhausted,
    Limits,
    beta_equiv,
    check_successor,
    is_numeral,
    normalize,
)
from storlab.syntax import parse, pretty
from storlab.terms import (
    Const,
    Family,
    Var,
    alpha_eq,
    app_power,
    is_closed_pure,
    iter_consts,
    mk_church,
)
from storlab.theorems import delta_forward
from theory import delta_inverse, head_step, satisfies_P

BUILTINS = ("I", "S1", "S2", "G", "d0", "T1", "F", "T2", "a3", "b3", "T3")


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({name}): FAIL")
                raise
            print(f"criterion {num} ({name}): PASS")
        return wrapper
    return deco


@criterion(1, "successors")
def test_successors():
    env = prelude()
    for name in ("S1", "S2"):
        report = check_successor(env[name], 10)
        assert report.verdict == Verdict.PASS
    bad = check_successor(env["I"], 3)
    assert bad.verdict == Verdict.REFUTED
    assert bad.results[0] is False


@criterion(2, "storage operators")
def test_storage_operators():
    env = prelude()
    s1 = env["S1"]
    for name in ("T1", "T2"):
        summary = check_operator(env[name], 8)
        runs = list(summary)
        assert summary.verdict == Verdict.ALL_PASS
        for report in runs:
            n = report.n
            assert beta_equiv(report.tau, mk_church(n)) is True
            assert alpha_eq(report.tau, app_power(s1, n, mk_church(0)))
            assert normalize(report.tau) == mk_church(n)


@criterion(3, "s-storage across both successors")
def test_s_storage_matrix():
    for op_name in ("T1", "T2"):
        for succ_name in ("S1", "S2"):
            env = prelude(succ_name)
            summary = check_operator(env[op_name], 8, env[succ_name])
            assert summary.verdict == Verdict.ALL_PASS, (op_name, succ_name)

    # the worked-chain shape: n+1 constant transforms, then the unwinding
    env = prelude("S2")
    s2, f_op = env["S2"], env["F"]
    for n in range(9):
        report = run_check(env["T2"], n, s2)
        transforms = [step.transform for step in report.trace]
        assert len(transforms) == n + 2
        assert transforms[-1] == FINAL
        expected = (["SeedSucc"] + ["StoredSucc"] * (n - 1) + ["StoredZero"]
                    if n else ["SeedZero"])
        assert transforms[:-1] == expected
        assert alpha_eq(report.tau, app_power(s2, n, mk_church(0)))
        for k, step in enumerate(report.trace[:-1]):
            args = spine(step.v)[1]
            assert alpha_eq(args[0], f_op)
            assert alpha_eq(args[1], app_power(f_op, k, Var("f")))
            assert args[2] == mk_church(0)


@criterion(4, "an s-storage operator that is not a storage operator")
def test_t3_reproduction():
    env = prelude("S2")
    upper = check_operator(env["T3"], 5, env["S2"])
    runs = list(upper)
    assert upper.verdict == Verdict.ALL_PASS
    for report in runs:
        assert beta_equiv(report.tau, mk_church(report.n)) is True

    lower = check_operator(env["T3"], 5)
    runs = list(lower)
    assert lower.verdict == Verdict.FIRST_FAILURE
    assert lower.at == 1
    assert runs[0].verdict == Verdict.SUCCESS
    for report in runs[1:]:
        assert report.verdict == Verdict.FAIL
        assert report.reason == TAU_NOT_CLOSED
        assert any(c.family is Family.LOWER and c.level == 0 and not c.is_seed
                   for c in iter_consts(report.tau))


@criterion(5, "lower/upper equivalence and translation round-trips")
def test_equivalence_suite():
    env = prelude()
    for name in BUILTINS:
        term = env[name]
        for n in range(9):
            lo = run_check(term, n)
            up = run_check(term, n, env["S1"])
            assert lo.verdict == up.verdict, (name, n)
            if lo.verdict == Verdict.SUCCESS:
                assert alpha_eq(lo.tau, up.tau), (name, n)

    r = rng(211)
    for _ in range(1000):
        t = lower_term(r, 5)
        assert alpha_eq(delta_inverse(delta_forward(t)), t)
    for _ in range(1000):
        t = p_term(r, 5)
        assert alpha_eq(delta_forward(delta_inverse(t)), t)


@criterion(6, "property suites")
def test_property_suites():
    # (a) substitution commutes with head steps, preserving step counts
    r = rng(223)
    replayed = 0
    for _ in range(1000):
        u = with_head_redex(r, pure_term)
        sub = substitution_for(r, u)
        stepped = head_step(u)
        assert stepped is not None
        assert alpha_eq(head_step(substitute_many(u, sub)),
                        substitute_many(stepped, sub))
        try:
            hnf, count = head_normal_form(u, Limits(head_fuel=2000))
        except FuelExhausted:
            continue
        walked = substitute_many(u, sub)
        for _ in range(count):
            walked = head_step(walked)
            assert walked is not None
        assert alpha_eq(walked, substitute_many(hnf, sub))
        replayed += 1
    assert replayed >= 950

    # (b) the payload discipline survives head steps
    for _ in range(500):
        t = with_head_redex(r, p_term)
        assert satisfies_P(t)
        assert satisfies_P(head_step(t))

    # (c) every state recorded by the S1 upper runs satisfies the discipline
    env = prelude()
    for name in ("T1", "T2"):
        for n in range(9):
            report = run_check(env[name], n, env["S1"])
            assert report.verdict == Verdict.SUCCESS
            for step in report.trace:
                assert satisfies_P(step.v)

    # (d) printing then parsing is the identity up to renaming
    for _ in range(1000):
        t = any_term(r, 5)
        assert alpha_eq(parse(pretty(t)), t)


@criterion(7, "fuel exhaustion is never a refutation")
def test_fuel_honesty():
    starved = Limits(head_fuel=5)
    env1, env2 = prelude("S1"), prelude("S2")
    batteries = [
        check_operator(env1["T2"], 8, limits=starved),
        check_operator(env1["T2"], 8, env1["S1"], limits=starved),
        check_operator(env2["T2"], 8, env2["S2"], limits=starved),
    ]
    verdicts = [r.verdict for s in batteries for r in s]
    assert Verdict.FAIL not in verdicts
    assert Verdict.FUEL in verdicts

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["check-s-storage", "T2", "--succ", "S2",
                     "--n-max", "3", "--head-fuel", "5"])
    assert code == EXIT_FUEL
    assert "FuelExhausted" in buffer.getvalue()
    assert "Fail" not in buffer.getvalue()


@criterion(8, "theorem 3's witness: T3 stores two numerals apart")
def test_t3_witness():
    # T3 (with S2) is no storage operator by the definition itself: at levels
    # 1-3, #n and (S1)^n #0 are both beta-equal to #n, yet T3 stores them as
    # two closed numerals that are not alpha-equal, so no single tau_n exists
    env = prelude("S2")
    for n in range(4):
        inputs = numeral_inputs(n, env)
        taus = [stored(env["T3"], inputs[label]) for label in ("#n", "S1^n #0")]
        for tau in taus:
            assert tau is not None and is_closed_pure(tau)
            assert is_numeral(tau, n) is True
        assert alpha_eq(*taus) is (n == 0), n
