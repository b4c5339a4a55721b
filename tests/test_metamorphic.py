"""The checks on operators and successors with redexes put in.

A head normal form's prefix, head and arity are invariant under beta, and
the redexes genterms.with_redexes puts in add no free name or constant, so a
variant of an operator must get the original's verdict and reason at every
level, and a variant of a successor must still realize the successor.  Last,
operators generated in the builtins' shapes, with other steps and zeros.
"""

import functools

import hypothesis as hyp
from hypothesis import strategies as st

from genterms import NEAR_MISSES, builtin_shaped, rng, with_redexes
from storlab import prelude
from storlab.checker import Verdict, check_operator
from storlab.reduction import check_successor
from storlab.terms import Family
from storlab.theorems import verify_theorem1_instance, verify_theorem2_instance

N_MAX = 4
# T1 and T2 instantiated with S1, T3 with S2, as the corpus does
OPERATORS = (("T1", "S1"), ("T2", "S1"), ("T3", "S2"))
SWEEPS = ((Family.LOWER, None), (Family.UPPER, "S1"), (Family.UPPER, "S2"))
SEEDS = st.integers(0, 2**32 - 1)


def outcomes(operator, family, successor):
    successor = prelude()[successor] if successor else None
    return [(r.verdict, r.reason) for r in check_operator(operator, N_MAX, successor)]


@functools.cache
def original_outcomes(name, instance, family, successor):
    return outcomes(prelude(instance)[name], family, successor)


def operator_variant(seed):
    r = rng(seed)
    name, instance = r.choice(OPERATORS)
    return name, instance, with_redexes(r, prelude(instance)[name])


def successor_variant(seed):
    r = rng(seed)
    return with_redexes(r, prelude()[r.choice(("S1", "S2"))])


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(SEEDS)
def test_operator_variant_keeps_every_level_outcome(seed):
    name, instance, variant = operator_variant(seed)
    for family, successor in SWEEPS:
        assert (outcomes(variant, family, successor)
                == original_outcomes(name, instance, family, successor)), (family, successor)


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(SEEDS)
def test_theorem2_passes_on_operator_variants(seed):
    assert verify_theorem2_instance(operator_variant(seed)[2], N_MAX).verdict == Verdict.PASS


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(SEEDS)
def test_successor_variant_is_a_successor(seed):
    assert check_successor(successor_variant(seed), 6).verdict == Verdict.PASS


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(SEEDS)
def test_theorem1_passes_with_a_successor_variant(seed):
    successor, env = successor_variant(seed), prelude("S1")
    for name in ("T1", "T2"):
        report = verify_theorem1_instance(env[name], successor, N_MAX)
        assert [c.status for c in report.checks] == [Verdict.PASS] * (N_MAX + 1), name


@hyp.settings(max_examples=100, deadline=None)
@hyp.given(SEEDS)
def test_builtin_shaped_lower_verdict_follows_its_step_and_zero(seed):
    """tau is the step applied n times to the zero: a zero #1 fails level 0,
    a step that is no successor fails level 1, and otherwise every level
    stores its numeral."""
    operator, step, zero = builtin_shaped(rng(seed))
    summary = check_operator(operator, 3)
    if zero == "#1":
        expected = (Verdict.FIRST_FAILURE, 0)
    elif step in NEAR_MISSES:
        expected = (Verdict.FIRST_FAILURE, 1)
    else:
        expected = (Verdict.ALL_PASS, None)
    assert (summary.verdict, summary.at) == expected, (step, zero)


@hyp.settings(max_examples=100, deadline=None)
@hyp.given(SEEDS)
def test_theorem2_passes_on_builtin_shaped_operators(seed):
    """On the operators whose lower sweep is AllPass the pass is not vacuous:
    both runs succeed at every level, with alpha-equal taus and traces that
    delta_forward carries one onto the other."""
    operator, step, zero = builtin_shaped(rng(seed))
    report = verify_theorem2_instance(operator, 3)
    assert report.verdict == Verdict.PASS, (step, zero)
    if zero != "#1" and step not in NEAR_MISSES:
        assert {(c.lower, c.upper, c.status, c.tau_match, c.delta_match)
                for c in report.checks} == \
            {(Verdict.SUCCESS, Verdict.SUCCESS, Verdict.PASS, True, True)}, (step, zero)
