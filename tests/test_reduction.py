"""Head reduction, normalization, solvability, successor checking."""

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from genterms import (
    BINDERS,
    any_term,
    lower_term,
    p_term,
    pure_term,
    rng,
    substitution_for,
    with_head_redex,
)
from oracles import (
    head_normal_form,
    oracle_beta_equiv,
    oracle_head_reduce,
    oracle_head_step,
    oracle_nf_tokens,
    spine,
    substitute_many,
)
from storlab import prelude, reduction
from storlab.checker import run_check
from storlab.reduction import (
    DEFAULT_LIMITS,
    FuelExhausted,
    Limits,
    Verdict,
    beta_equiv,
    check_successor,
    head_reduce,
    is_numeral,
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
    app_power,
    church_value,
    mk_church,
)
from theory import head_step

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
    term, steps = head_normal_form(mk_church(3))
    assert term == mk_church(3) and steps == 0
    term, steps = head_normal_form(app(IDENTITY, IDENTITY, Var("y")))
    assert term == Var("y") and steps == 2


def test_head_reduce_fuel_exhaustion_on_omega():
    with pytest.raises(FuelExhausted) as info:
        head_reduce(OMEGA, Limits(head_fuel=100))
    assert info.value.steps == 100
    assert info.value.stage == "Head"
    assert alpha_eq(info.value.partial, OMEGA)


def test_head_reduce_storage_run_shape():
    env = prelude()
    term, steps = head_normal_form(app(env["T1"], mk_church(2), Var("f")))
    assert not isinstance(term, Lam)
    head, args = spine(term)
    assert head == Var("f")
    assert len(args) == 1
    assert beta_equiv(args[0], mk_church(2)) is True
    assert steps > 0


def test_decompose_reassemble_identity():
    # a head normal form is a prefix of binders over a variable applied to
    # arguments, and its prefix, head and spine put back together give it again
    r = rng(41)
    checked = 0
    for _ in range(200):
        t = pure_term(r, 4)
        try:
            hnf, _ = head_normal_form(t, Limits(head_fuel=500))
        except FuelExhausted:
            continue
        prefix, body = [], hnf
        while isinstance(body, Lam):
            prefix.append(body.binder)
            body = body.body
        head, args = spine(body)
        assert isinstance(head, Var)
        rebuilt = app(head, *args)
        for binder in reversed(prefix):
            rebuilt = Lam(binder, rebuilt)
        assert rebuilt == hnf
        checked += 1
    assert checked > 150


def test_is_solvable():
    assert head_normal_form(IDENTITY) == (IDENTITY, 0)
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
        assert report.results == (True,) * 11
        assert report.verdict == Verdict.PASS
    report = check_successor(env["I"], 3)
    assert report.results[0] is False
    assert report.verdict == Verdict.REFUTED


def test_check_successor_rejects_a_negative_bound():
    # I fails at k = 0, so a report of no k would pass it vacuously
    env = prelude()
    assert check_successor(env["I"], 0).verdict == Verdict.REFUTED
    with pytest.raises(ValueError, match="k_max must be non-negative"):
        check_successor(env["I"], -1)


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


def test_normalize_deep_numerals_without_recursion():
    assert normalize(mk_church(5000)) == mk_church(5000)
    assert normalize(App(IDENTITY, mk_church(5000))) == mk_church(5000)


# -- the normalizer checked against the one it replaced --


def oracle_step(term):
    """Contract the leftmost-outermost redex, descending into payloads,
    starting again from the root: the normalizer's former step."""
    match term:
        case Var(_):
            return None
        case Lam(binder, body):
            nxt = oracle_step(body)
            return Lam(binder, nxt) if nxt is not None else None
        case App(Lam(binder, body), arg):
            return substitute_many(body, {binder: arg})
        case App(fn, arg):
            nxt = oracle_step(fn)
            if nxt is not None:
                return App(nxt, arg)
            nxt = oracle_step(arg)
            return App(fn, nxt) if nxt is not None else None
        case Const(family, level, payload):
            for i, p in enumerate(payload):
                nxt = oracle_step(p)
                if nxt is not None:
                    return Const(family, level, payload[:i] + (nxt,) + payload[i + 1:])
            return None
    raise TypeError(f"not a term: {term!r}")


def oracle_normalize(term, limits=DEFAULT_LIMITS):
    steps = 0
    while steps < limits.norm_fuel:
        nxt = oracle_step(term)
        if nxt is None:
            return term
        term = nxt
        steps += 1
    if oracle_step(term) is None:
        return term
    raise FuelExhausted("Norm", term, steps)


GENERATORS = (any_term, lower_term, p_term, pure_term)


def normalization_case(seed):
    """A generated term, constants included, often with redexes in head
    position, inside stored payloads and in the arguments after them."""
    r = rng(seed)
    gen = GENERATORS[seed % len(GENERATORS)]
    roll = r.random()
    if roll < 0.3:
        return gen(r, 5)
    if roll < 0.6:
        return with_head_redex(r, gen)
    payload = tuple(with_head_redex(r, gen, 2) for _ in range(r.randint(2, 3)))
    head = Const(r.choice(tuple(Family)), r.randint(0, 2), payload)
    return app(head, *(with_head_redex(r, gen, 2) for _ in range(r.randint(0, 2))))


def outcome(normalizer, term, limits):
    try:
        return normalizer(term, limits)
    except FuelExhausted as exc:
        return (exc.stage, exc.steps, exc.partial)


# no deadline: it would time the oracle, which rebuilds the growing partial
# term at each step (seed 234825: about 0.8 s, normalize 9 ms, Python 3.11)
@hyp.settings(deadline=None)
@hyp.given(st.integers(0, 2**32 - 1))
@hyp.example(234825)
def test_normalize_matches_oracle(seed):
    term = normalization_case(seed)
    limits = Limits(norm_fuel=500)
    assert outcome(normalize, term, limits) == outcome(oracle_normalize, term, limits)


@hyp.given(st.integers(0, 2**32 - 1))
def test_normalize_fuel_matches_oracle(seed):
    term = normalization_case(seed)
    for fuel in range(1, 41):
        limits = Limits(norm_fuel=fuel)
        assert outcome(normalize, term, limits) == outcome(oracle_normalize, term, limits)


# -- head reduction on an argument stack, checked against the head_step loop
#    it replaced (oracles.py) --


def test_beta_equiv_deep_numeral_without_recursion():
    env = prelude()
    assert beta_equiv(App(env["S1"], mk_church(1200)), mk_church(1201)) is True
    assert beta_equiv(App(env["S2"], mk_church(1200)), mk_church(1200)) is False


def test_head_reduce_returns_a_head_normal_form_itself():
    hnf = Lam("f", app(Var("f"), App(IDENTITY, Var("p"))))
    for limits in (DEFAULT_LIMITS, Limits(head_fuel=1)):
        parts, steps = head_reduce(hnf, limits)
        assert parts == [hnf] and parts[0] is hnf and steps == 0
    # an application comes back as its own head and arguments, no node built
    applied = app(Var("x"), App(IDENTITY, Var("p")), Var("z"))
    parts, steps = head_reduce(applied)
    assert steps == 0 and len(parts) == 3
    assert parts[0] is applied.fn.fn and parts[1] is applied.fn.arg and parts[2] is applied.arg


def run_states():
    """Every state a storage run head-reduces: T1, T2 and T3, lower and
    upper with S1 and S2, levels 0 to 3."""
    states = []
    for succ in ("S1", "S2"):
        env = prelude(succ)
        for op in ("T1", "T2", "T3"):
            for family in Family:
                for n in range(4):
                    successor = env[succ] if family is Family.UPPER else None
                    report = run_check(env[op], n, successor)
                    states += [step.u for step in report.trace]
    return states


RUN_STATES = run_states()


def spine_body(r, name):
    """An application spine whose head and arguments may or may not have
    name free: its head is name, another variable or a generated term."""
    head = r.choice((Var(name), Var("q"), pure_term(r, 2, (name,))))
    return app(head, *(pure_term(r, 2, (name,)) for _ in range(r.randint(0, 4))))


def head_case(seed):
    """A state of a storage run, a generated term, one whose head reduction
    takes up to 50 steps (a numeral iterating a function that takes two
    steps per application, under a binder, before an argument), or binders
    over an application spine, applied to arguments, where the innermost
    binder is free in some of the spine's arguments and not in others."""
    r = rng(seed)
    if seed % 4 == 0:
        return RUN_STATES[r.randrange(len(RUN_STATES))]
    if seed % 4 == 1:
        twice = Lam("y", App(IDENTITY, Var("y")))
        return Lam("q", app(mk_church(r.randint(0, 24)), twice, Var("q"), pure_term(r, 2)))
    if seed % 4 == 2:
        names = [r.choice(BINDERS) for _ in range(r.randint(1, 3))]
        term = spine_body(r, names[-1])
        for name in reversed(names):
            term = Lam(name, term)
        return app(term, *(pure_term(r, 2) for _ in range(r.randint(1, 4))))
    return normalization_case(seed)


def test_head_step_keeps_arguments_without_the_binder():
    kept = Lam("z", App(Var("z"), Var("p")))
    term = App(Lam("x", app(Var("x"), kept, App(Var("x"), kept))), Var("h"))
    result, steps = head_normal_form(term)
    assert (result, steps) == (app(Var("h"), kept, App(Var("h"), kept)), 1)
    assert result.fn.arg is kept and result.arg.arg is kept


@hyp.given(st.integers(0, 2**32 - 1))
def test_head_reduce_fuel_matches_oracle(seed):
    term = head_case(seed)
    assert head_step(term) == oracle_head_step(term)
    for fuel in (*range(1, 41), 500):
        limits = Limits(head_fuel=fuel)
        # names included: the result, or the stage, steps and partial term
        assert outcome(head_normal_form, term, limits) == outcome(oracle_head_reduce, term, limits)


@hyp.given(st.integers(0, 2**32 - 1))
def test_head_reduce_of_a_spine_matches_the_application(seed):
    # a generated term, with or without a head redex, applied to 0-2 more
    # terms, cut at a random point of its spine into a head and arguments
    r = rng(seed)
    gen = GENERATORS[seed % len(GENERATORS)]
    term = with_head_redex(r, gen) if r.random() < 0.5 else gen(r, 4)
    term = app(term, *(gen(r, 2) for _ in range(r.randint(0, 2))))
    head, args = spine(term)
    cut = r.randint(0, len(args))
    head, args = app(head, *args[:cut]), args[cut:]
    for fuel in (*range(1, 41), 500):
        limits = Limits(head_fuel=fuel)
        # the result, or the stage, steps and partial term
        assert (outcome(lambda t, lim: head_reduce(t, lim, args), head, limits)
                == outcome(head_reduce, term, limits))


@hyp.given(st.integers(0, 2**32 - 1))
def test_head_reduce_returns_a_spine(seed):
    # a generated term cut into a head and arguments, as above: its head
    # normal form comes back as its head, never an application, then its
    # arguments, or alone when its head is an abstraction
    r = rng(seed)
    term = head_case(seed)
    head, args = spine(term)
    cut = r.randint(0, len(args))
    head, args = app(head, *args[:cut]), args[cut:]
    for fuel in (1, 2, 5, 500):
        limits = Limits(head_fuel=fuel)
        try:
            parts, steps = head_reduce(head, limits, args)
        except FuelExhausted:
            with pytest.raises(FuelExhausted):
                oracle_head_reduce(term, limits)
            continue
        assert (app(*parts), steps) == oracle_head_reduce(term, limits)
        assert type(parts[0]) is not App
        assert type(parts[0]) is not Lam or len(parts) == 1
        if steps == 0 and not args:  # a head normal form, given no argument
            if type(head) is App:
                own, own_args = spine(head)
                assert len(parts) == 1 + len(own_args)
                assert all(p is q for p, q in zip(parts, [own, *own_args]))
            else:
                assert parts == [head] and parts[0] is head


# -- a head abstraction's binders contracted at once, or one at a time where
#    single steps might rename a binder; checked against single steps --

POOL = ("a", "b", "c", "a'", "b'")


def pool_term(r, depth):
    """A term over POOL's names, each free or bound, primed names included."""
    if depth <= 0 or r.random() < 0.25:
        return Var(r.choice(POOL))
    if r.random() < 0.4:
        return Lam(r.choice(POOL), pool_term(r, depth - 1))
    return App(pool_term(r, depth - 1), pool_term(r, depth - 1))


def prefix_redex(seed):
    """A head abstraction with 2-4 binders from POOL, applied to 1-5
    arguments whose free names are POOL's, so the binders inside the body
    and the later prefix binders are often free names of an argument."""
    r = rng(seed)
    binders = [r.choice(POOL) for _ in range(r.randint(2, 4))]
    term = pool_term(r, 4)
    for binder in reversed(binders):
        term = Lam(binder, term)
    return app(term, *(pool_term(r, 2) for _ in range(r.randint(1, len(binders) + 1))))


@hyp.given(st.integers(0, 2**32 - 1))
def test_prefix_contraction_matches_oracle(seed):
    term = prefix_redex(seed)
    for fuel in (*range(1, 41), 500):
        limits = Limits(head_fuel=fuel)
        # names included: the result, or the stage, steps and partial term
        assert outcome(head_normal_form, term, limits) == outcome(oracle_head_reduce, term, limits)
    limits = Limits(norm_fuel=500)
    assert outcome(normalize, term, limits) == outcome(oracle_normalize, term, limits)


def test_prefix_contraction_falls_back_to_one_binder(monkeypatch):
    import storlab.reduction as reduction

    kernel, gave_none = reduction.substitute_many, []

    def counting(term, mapping):
        result = kernel(term, mapping)
        if result is None:
            gave_none.append(len(mapping))
        return result

    monkeypatch.setattr(reduction, "substitute_many", counting)
    # the inner c would capture the argument c: a is contracted alone, which
    # primes c, then b
    pinned = app(Lam("a", Lam("b", Lam("c", app(Var("a"), Var("b"), Var("c"))))),
                 Var("c"), Var("b"))
    assert head_normal_form(pinned) == (Lam("c'", app(Var("c"), Var("b"), Var("c'"))), 2)
    # contracting a alone primes b, which primes the inner b' (b is free
    # under it) before b's argument comes in: b' differs from b only in primes
    primed = app(Lam("a", Lam("b", Lam("b'", app(Var("a"), Var("b"), Var("b'"))))),
                 Var("b"), Var("c"))
    assert head_normal_form(primed) == (Lam("b''", app(Var("b"), Var("c"), Var("b''"))), 2)
    assert gave_none == [2, 2]
    limits = Limits(head_fuel=500)
    for seed in range(300):
        term = prefix_redex(seed)
        assert outcome(head_normal_form, term, limits) == outcome(oracle_head_reduce, term, limits)
    assert len(gave_none) > 10 and min(gave_none) >= 2  # 23 from the 300 terms


# -- beta_equiv against a literal numeral reads the other side's normal form
#    as a numeral; checked against normalizing both sides (oracles.py) --

SUCCESSORS = (prelude()["S1"], prelude()["S2"])


def test_beta_equiv_numeral_shapes():
    zero_alike = Lam("a", Lam("a", Var("a")))  # #0 with both binders named alike
    assert beta_equiv(zero_alike, mk_church(0)) is True
    assert beta_equiv(mk_church(0), zero_alike) is True
    assert beta_equiv(App(IDENTITY, zero_alike), mk_church(0)) is True
    assert beta_equiv(Lam("a", Lam("a", App(Var("a"), Var("a")))), mk_church(1)) is False
    assert beta_equiv(Lam("g", Lam("h", App(Var("g"), Var("h")))), mk_church(1)) is True
    assert beta_equiv(Lam("g", Lam("h", App(Var("h"), Var("h")))), mk_church(1)) is False
    assert beta_equiv(Var("p"), mk_church(2)) is False
    assert beta_equiv(OMEGA, mk_church(2), Limits(norm_fuel=50)) is None


def test_beta_equiv_does_not_normalize_a_literal_numeral(monkeypatch):
    import storlab.reduction as reduction

    normalized, machine = [], reduction._nf_tokens

    def counting(term, fuel):
        normalized.append(term)
        return machine(term, fuel)

    monkeypatch.setattr(reduction, "_nf_tokens", counting)
    assert check_successor(SUCCESSORS[0], 40).verdict == Verdict.PASS
    assert len(normalized) == 41
    assert all(church_value(t) is None for t in normalized)


def numeral_like(r):
    """A literal numeral under any binder names, #0 with its binders alike,
    its look-alikes that are no numeral, a numeral that is not normal, or a
    generated term."""
    k = r.randint(0, 4)
    f, x = r.sample(BINDERS, 2)
    roll = r.random()
    if roll < 0.25:
        return mk_church(k)
    if roll < 0.45:
        return Lam(f, Lam(x, app_power(Var(f), k, Var(x))))
    if roll < 0.55:
        return Lam(f, Lam(f, app_power(Var(f), k, Var(f))))
    if roll < 0.65:
        return Lam(f, Lam(x, app_power(Var(f), k, Var(f))))
    if roll < 0.85:
        return App(r.choice(SUCCESSORS), mk_church(k))
    return pure_term(r, 3)


def beta_case(seed):
    r = rng(seed)
    roll = r.random()
    if roll < 0.5:
        t = App(r.choice((*SUCCESSORS, IDENTITY)), numeral_like(r))
    elif roll < 0.7:
        t = numeral_like(r)
    else:
        t = normalization_case(seed)
    return t, numeral_like(r)


@hyp.given(st.integers(0, 2**32 - 1))
def test_beta_equiv_matches_oracle(seed):
    t, u = beta_case(seed)
    for fuel in range(1, 41):
        limits = Limits(norm_fuel=fuel)
        assert beta_equiv(t, u, limits) == oracle_beta_equiv(t, u, limits)


def test_beta_cases_reach_every_answer():
    answers = {oracle_beta_equiv(*beta_case(seed), Limits(norm_fuel=3)) for seed in range(200)}
    assert answers == {True, False, None}


# -- beta_equiv and is_numeral decide on name-free normal forms (the closure
#    machine, reduction._nf_tokens); checked against normalizing both sides
#    by name and comparing them with alpha_eq (oracles.py) --


def test_machine_named_cases():
    # shadowing: the inner x is the one in scope
    assert beta_equiv(Lam("x", Lam("x", Var("x"))), Lam("a", Lam("b", Var("b")))) is True
    assert beta_equiv(Lam("x", Lam("x", Var("x"))), Lam("a", Lam("b", Var("a")))) is False
    assert is_numeral(Lam("x", Lam("x", Var("x"))), 0) is True
    # capture: the free y stays free under the binder y
    captured = app(Lam("x", Lam("y", Var("x"))), Var("y"))
    assert beta_equiv(captured, Lam("y'", Var("y"))) is True
    assert beta_equiv(captured, Lam("y", Var("y"))) is False
    # a binder that is not free drops its argument, in one step
    dropped = App(Lam("x", Var("y")), OMEGA)
    assert beta_equiv(dropped, Var("y"), Limits(norm_fuel=1)) is True
    # constants with open payloads: bound and free payload names both count
    stored = Lam("p", Const(Family.LOWER, 1, (Var("p"), Var("q"))))
    assert beta_equiv(stored, Lam("r", Const(Family.LOWER, 1, (App(IDENTITY, Var("r")),
                                                              Var("q"))))) is True
    assert beta_equiv(stored, Lam("q", Const(Family.LOWER, 1, (Var("q"), Var("q"))))) is False
    assert beta_equiv(stored, Lam("p", Const(Family.UPPER, 1, (Var("p"), Var("q"))))) is False
    assert beta_equiv(stored, Lam("p", Const(Family.LOWER, 2, (Var("p"), Var("q"))))) is False
    assert beta_equiv(app(Const(Family.UPPER, 0, (Var("p"), Var("q"))), Var("p")),
                      app(Const(Family.UPPER, 0, (Var("p"), Var("q"), Var("p"))))) is False
    assert is_numeral(OMEGA, 2, Limits(norm_fuel=50)) is None
    with pytest.raises(ValueError):
        is_numeral(mk_church(1), -1)


def test_is_numeral_deep_numeral_without_recursion():
    env = prelude()
    assert is_numeral(App(env["S1"], mk_church(5000)), 5001) is True
    assert is_numeral(App(env["S2"], mk_church(5000)), 5000) is False
    assert beta_equiv(mk_church(5000), App(IDENTITY, mk_church(5000))) is True


def machine_case(seed):
    """A term from one of the generators, plain or under a head redex, and a
    term to compare it with: one generated alike, or the first under a
    redex that drops its argument, so that some pairs are beta-equal."""
    r = rng(seed)
    gen = GENERATORS[seed % len(GENERATORS)]
    t = with_head_redex(r, gen) if r.random() < 0.5 else gen(r, 4)
    # "s" is a binder name, never free at the top of a generated term
    u = App(Lam("s", t), gen(r, 2)) if r.random() < 0.3 else gen(r, 4)
    return t, u


def fuels_out(term, limits):
    try:
        normalize(term, limits)
    except FuelExhausted:
        return True
    return False


@hyp.settings(max_examples=150)
@hyp.given(st.integers(0, 2**32 - 1))
def test_machine_matches_oracle_at_every_fuel(seed):
    t, u = machine_case(seed)
    k = seed % 3
    for fuel in range(1, 41):
        limits = Limits(norm_fuel=fuel)
        assert beta_equiv(t, u, limits) == oracle_beta_equiv(t, u, limits)
        numeral = is_numeral(t, k, limits)
        assert numeral == oracle_beta_equiv(t, mk_church(k), limits)
        # None at exactly the fuels where normalize runs out
        assert (numeral is None) == fuels_out(t, limits)
    # at the default fuel, where a term that normalizes does so quickly
    if not fuels_out(t, Limits(norm_fuel=2000)) and not fuels_out(u, Limits(norm_fuel=2000)):
        assert beta_equiv(t, u) == oracle_beta_equiv(t, u)
        assert is_numeral(t, k) == oracle_beta_equiv(t, mk_church(k))


def test_machine_cases_reach_every_answer():
    answers = {beta_equiv(*machine_case(seed), Limits(norm_fuel=3)) for seed in range(200)}
    assert answers == {True, False, None}


# -- the closure machine passes on the closure a variable argument names;
#    checked against the machine that made a new closure of the variable
#    (oracles.py) --


@hyp.settings(max_examples=150)
@hyp.given(st.integers(0, 2**32 - 1))
def test_nf_tokens_matches_the_machine_without_variable_chains(seed):
    t, u = machine_case(seed)
    for term in (t, u):
        for fuel in range(1, 41):
            assert reduction._nf_tokens(term, fuel) == oracle_nf_tokens(term, fuel)


def test_nf_tokens_follows_a_chain_of_variable_closures():
    # each S1 layer passes its f on to the next: a chain 4096 closures long
    # (about a second per call when each lookup walked the chain)
    env = prelude()
    deep = app_power(env["S1"], 4096, mk_church(0))
    assert is_numeral(deep, 4096) is True
    assert is_numeral(deep, 4095) is False
    # the same beta-steps, so the same fuel cut-off, as the oracle machine
    shallow = app_power(env["S1"], 64, mk_church(0))
    steps = next(fuel for fuel in range(1, 10_000) if oracle_nf_tokens(shallow, fuel))
    assert reduction._nf_tokens(shallow, steps - 1) is None
    assert reduction._nf_tokens(shallow, steps) == oracle_nf_tokens(shallow, steps)


@pytest.mark.parametrize("field, args, kwargs", [
    ("head_fuel", (0,), {}), ("macro_fuel", (1, 0), {}), ("norm_fuel", (1, 1, 0), {}),
    ("head_fuel", (-5,), {}), ("head_fuel", (), {"head_fuel": 0}),
    ("macro_fuel", (), {"macro_fuel": 0}), ("norm_fuel", (), {"norm_fuel": -1}),
])
def test_limits_refuse_a_fuel_below_1(field, args, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must be at least 1$"):
        Limits(*args, **kwargs)
    with pytest.raises(ValueError, match=f"^{field} must be at least 1$"):
        DEFAULT_LIMITS._replace(**{field: 0})


def test_limits_keep_their_fields_and_defaults():
    assert Limits._fields == ("head_fuel", "macro_fuel", "norm_fuel")
    assert Limits() == DEFAULT_LIMITS == Limits(1_000_000, 10_000, 1_000_000)
    assert Limits(5, norm_fuel=7) == Limits(head_fuel=5, macro_fuel=10_000, norm_fuel=7)
    assert type(DEFAULT_LIMITS._replace(macro_fuel=3)) is Limits
    assert repr(Limits(1, 2, 3)) == "Limits(head_fuel=1, macro_fuel=2, norm_fuel=3)"
