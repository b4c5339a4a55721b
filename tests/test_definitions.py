"""The two families' verdicts against concrete numerals: the lower family's
against the definition of a storage operator, the upper family's against
its symbolic characterization.  The operators are the builtins and
operators generated in their shapes (genterms.builtin_shaped)."""

import random

import hypothesis as hyp
from hypothesis import strategies as st

from definitions import delayed_numeral, numeral_inputs, stored
from genterms import builtin_shaped, with_redexes
from storlab import prelude
from storlab.checker import Verdict, run_check
from storlab.syntax import pretty
from storlab.terms import alpha_eq

# T1 and T2 under both successors' preludes, T3 under S2's, as the paper builds it
OPERATORS = (("T1", "S1"), ("T1", "S2"), ("T2", "S1"), ("T2", "S2"), ("T3", "S2"))
# an operator in T1's or T2's shape, drawn by builtin_shaped, under either prelude
SHAPED = (("shaped", "S1"), ("shaped", "S2"))


def operator_term(name, env, r):
    return builtin_shaped(r)[0] if name == "shaped" else env[name]


@hyp.settings(max_examples=100, deadline=None)
@hyp.given(st.sampled_from(OPERATORS + SHAPED), st.integers(0, 4),
           st.randoms(use_true_random=False))
@hyp.example(("T3", "S2"), 1, random.Random(0))  # the first level at which T3's lower run fails
def test_lower_success_stores_every_sampled_numeral(operator, n, r):
    """A lower run's Success at level n says that (T) t f head-reduces to
    (f) tau for every t beta-equal to #n, with the run's tau.  Each input
    here, and each with redexes put in, is such a t, so one that reaches
    another tau refutes the Success.  Sampling can refute a Success this
    way, but it cannot prove one: the definition quantifies over every t
    beta-equal to #n."""
    name, instance = operator
    env = prelude(instance)
    term = operator_term(name, env, r)
    report = run_check(term, n)
    if report.verdict != Verdict.SUCCESS:
        return
    for label, t in numeral_inputs(n, env).items():
        for u in (t, with_redexes(r, t)):
            tau = stored(term, u)
            assert tau is not None and alpha_eq(tau, report.tau), \
                (pretty(term), instance, n, label, pretty(u))


@hyp.settings(max_examples=100, deadline=None)
@hyp.given(st.sampled_from(OPERATORS + SHAPED), st.integers(0, 4),
           st.randoms(use_true_random=False))
@hyp.example(("T3", "S2"), 4, random.Random(0))  # T3 stores with S2 only
def test_upper_success_stores_every_sampled_delayed_numeral(operator, n, r):
    """An upper run's Success at level n, with the successor S, says that
    (T) t f head-reduces to (f) tau, with the run's tau, for every t that
    head-reduces to (S) t' with t' such a term for n - 1, or at n = 0 to #0.
    The inputs are delayed numerals of that kind.  This property follows
    from the symbolic characterization that the upper runs implement, not
    from the paper's definition of an S-storage operator: the repository
    holds only the paper's abstract, which does not state that definition."""
    name, instance = operator
    env = prelude(instance)
    term = operator_term(name, env, r)
    report = run_check(term, n, env[instance])
    if report.verdict != Verdict.SUCCESS:
        return
    t = delayed_numeral(n, env[instance], r)
    tau = stored(term, t)
    assert tau is not None and alpha_eq(tau, report.tau), \
        (pretty(term), instance, n, pretty(t))
