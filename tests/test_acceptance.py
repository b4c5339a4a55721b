"""Bounded-instance acceptance battery.

Every claim the package makes is exercised here at desk scale. Each test
prints a single verdict line, so `pytest tests/test_acceptance.py -s -v`
reads as a checklist. A failing body prints FAIL and then raises, keeping
the printed verdict and the pytest outcome in agreement.
"""

import contextlib
import functools
import io

from genterms import any_term, lower_term, p_term, pure_term, rng, \
    substitution_for, with_head_redex
from storlab import prelude
from storlab.checker import (
    EXIT_FUEL,
    FINAL,
    TAU_NOT_CLOSED,
    Verdict,
    check_operator,
    run_check,
)
from storlab.cli import main
from storlab.reduction import (
    FuelExhausted,
    Limits,
    beta_equiv,
    check_successor,
    decompose_hnf,
    head_reduce,
    head_step,
    normalize,
)
from storlab.syntax import parse, pretty
from storlab.terms import (
    Const,
    Family,
    Var,
    alpha_eq,
    app_power,
    iter_consts,
    mk_church,
    substitute_many,
)
from storlab.theorems import delta_forward, delta_inverse, satisfies_P

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
        assert report.all_pass
    bad = check_successor(env["I"], 3)
    assert not bad.all_pass
    assert bad.first_failure == 0


@criterion(2, "storage operators")
def test_storage_operators():
    env = prelude()
    s1 = env["S1"]
    for name in ("T1", "T2"):
        summary = check_operator(env[name], Family.LOWER, 8)
        assert summary.all_pass
        for report in summary.reports:
            n = report.n
            assert beta_equiv(report.tau, mk_church(n)) is True
            assert alpha_eq(report.tau, app_power(s1, n, mk_church(0)))
            assert normalize(report.tau) == mk_church(n)


@criterion(3, "s-storage across both successors")
def test_s_storage_matrix():
    for op_name in ("T1", "T2"):
        for succ_name in ("S1", "S2"):
            env = prelude(succ_name)
            summary = check_operator(env[op_name], Family.UPPER, 8, env[succ_name])
            assert summary.all_pass, (op_name, succ_name, summary.verdict)

    # the worked-chain shape: n+1 constant transforms, then the unwinding
    env = prelude("S2")
    s2, f_op = env["S2"], env["F"]
    for n in range(9):
        report = run_check(env["T2"], Family.UPPER, n, s2)
        transforms = [step.transform for step in report.trace]
        assert len(transforms) == n + 2
        assert transforms[-1] == FINAL
        expected = (["SeedSucc"] + ["StoredSucc"] * (n - 1) + ["StoredZero"]
                    if n else ["SeedZero"])
        assert transforms[:-1] == expected
        assert alpha_eq(report.tau, app_power(s2, n, mk_church(0)))
        for k, step in enumerate(report.trace[:-1]):
            args = decompose_hnf(step.v).args
            assert alpha_eq(args[0], f_op)
            assert alpha_eq(args[1], app_power(f_op, k, Var("f")))
            assert args[2] == mk_church(0)


@criterion(4, "an s-storage operator that is not a storage operator")
def test_t3_reproduction():
    env = prelude("S2")
    upper = check_operator(env["T3"], Family.UPPER, 5, env["S2"])
    assert upper.all_pass
    for report in upper.reports:
        assert beta_equiv(report.tau, mk_church(report.n)) is True

    lower = check_operator(env["T3"], Family.LOWER, 5)
    assert lower.verdict == Verdict.FIRST_FAILURE
    assert lower.at == 1
    assert lower.reports[0].verdict == Verdict.SUCCESS
    for report in lower.reports[1:]:
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
            lo = run_check(term, Family.LOWER, n)
            up = run_check(term, Family.UPPER, n, env["S1"])
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
            hnf, count = head_reduce(u, Limits(head_fuel=2000))
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
            report = run_check(env[name], Family.UPPER, n, env["S1"])
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
        check_operator(env1["T2"], Family.LOWER, 8, limits=starved),
        check_operator(env1["T2"], Family.UPPER, 8, env1["S1"], limits=starved),
        check_operator(env2["T2"], Family.UPPER, 8, env2["S2"], limits=starved),
    ]
    verdicts = [r.verdict for s in batteries for r in s.reports]
    assert Verdict.FAIL not in verdicts
    assert Verdict.FUEL in verdicts

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["check-s-storage", "T2", "--succ", "S2",
                     "--n-max", "3", "--head-fuel", "5"])
    assert code == EXIT_FUEL
    assert "FuelExhausted" in buffer.getvalue()
    assert "Fail" not in buffer.getvalue()
