"""Core term operations: numerals, alpha-equivalence, substitution."""

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from genterms import BINDERS, FREEPOOL, any_term, lower_term, p_term, pure_term, rng
import oracles
from oracles import oracle_alpha_eq, oracle_repr, spine
from storlab.terms import (
    App,
    Const,
    Family,
    Lam,
    Term,
    Var,
    _shape,
    alpha_eq,
    app,
    app_power,
    church_value,
    free_names,
    fresh_name,
    is_closed_pure,
    iter_consts,
    mk_church,
    substitute,
    substitute_many,
)
from storlab.syntax import pretty
from storlab.theorems import delta_forward

names = st.sampled_from(("p", "q", "r", "s", "t"))
leaves = st.one_of(
    st.builds(Var, names),
    st.integers(0, 3).map(mk_church),
    st.builds(lambda lvl: Const(Family.LOWER, lvl), st.integers(0, 2)),
    st.builds(lambda lvl: Const(Family.UPPER, lvl), st.integers(0, 2)),
)
terms = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Lam, names, sub),
        st.builds(App, sub, sub),
        st.builds(lambda a, b: Const(Family.UPPER, 1, (a, b)), sub, sub),
    ),
    max_leaves=12,
)


def test_mk_church_small():
    assert mk_church(0) == Lam("f", Lam("x", Var("x")))
    assert mk_church(2) == Lam("f", Lam("x", App(Var("f"), App(Var("f"), Var("x")))))
    assert church_value(mk_church(5)) == 5


def count_apps(t):
    match t:
        case App(fn, arg):
            return 1 + count_apps(fn) + count_apps(arg)
        case Lam(_, body):
            return count_apps(body)
        case _:
            return 0


def test_mk_church_application_count_and_closed():
    for n in range(10):
        numeral = mk_church(n)
        assert count_apps(numeral) == n
        assert free_names(numeral) == frozenset()
        assert is_closed_pure(numeral)


def test_church_value_rejects_non_numerals():
    assert church_value(Var("p")) is None
    assert church_value(Lam("f", Lam("x", Var("f")))) is None
    assert church_value(mk_church(0)) == 0


def test_alpha_eq_examples():
    assert alpha_eq(Lam("x", Var("x")), Lam("y", Var("y")))
    assert not alpha_eq(Lam("x", Var("y")), Lam("x", Var("z")))
    assert alpha_eq(Const(Family.LOWER, 2), Const(Family.LOWER, 2))
    assert not alpha_eq(Const(Family.LOWER, 2), Const(Family.UPPER, 2))


def test_alpha_eq_sees_payloads():
    a = Const(Family.LOWER, 1, (Var("p"), Lam("s", Var("s"))))
    b = Const(Family.LOWER, 1, (Var("p"), Lam("t", Var("t"))))
    c = Const(Family.LOWER, 1, (Var("p"), Lam("t", Var("p"))))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, c)
    assert not alpha_eq(a, Const(Family.LOWER, 2, a.payload))


def test_alpha_eq_binder_payload_scope():
    # payload occurrences of a bound name must track the binder
    t = Lam("s", Const(Family.UPPER, 0, (Var("s"), Var("p"))))
    u = Lam("t", Const(Family.UPPER, 0, (Var("t"), Var("p"))))
    w = Lam("t", Const(Family.UPPER, 0, (Var("s"), Var("p"))))
    assert alpha_eq(t, u)
    assert not alpha_eq(t, w)


@hyp.given(terms)
def test_alpha_eq_reflexive(t):
    assert alpha_eq(t, t)


@hyp.given(terms, terms)
def test_alpha_eq_symmetric(t, u):
    assert alpha_eq(t, u) == alpha_eq(u, t) == oracle_alpha_eq(t, u)


def rename_binders(t, suffix):
    match t:
        case Var(name):
            return Var(name)
        case Lam(name, body):
            fresh = name + suffix
            renamed = substitute(rename_binders(body, suffix), name, Var(fresh))
            return Lam(fresh, renamed)
        case App(fn, arg):
            return App(rename_binders(fn, suffix), rename_binders(arg, suffix))
        case Const(family, level, payload):
            return Const(family, level, tuple(rename_binders(p, suffix) for p in payload))


def test_alpha_eq_transitive_on_renamed_chain():
    r = rng(11)
    for _ in range(200):
        t = any_term(r, 4)
        u = rename_binders(t, "0")
        w = rename_binders(u, "1")
        assert alpha_eq(t, u) and alpha_eq(u, w) and alpha_eq(t, w)


def test_substitute_avoids_capture():
    result = substitute(Lam("y", Var("x")), "x", Var("y"))
    assert isinstance(result, Lam)
    assert result.binder != "y"
    assert result.body == Var("y")
    assert alpha_eq(result, Lam("z", Var("y")))


def test_substitute_rewrites_payloads():
    stored = Const(Family.LOWER, 1, (Var("v"), Var("w")))
    assert substitute(stored, "w", mk_church(0)) == Const(
        Family.LOWER, 1, (Var("v"), mk_church(0))
    )


def test_substitute_self_application():
    identity = Lam("y", Var("y"))
    assert substitute(App(Var("x"), Var("x")), "x", identity) == App(identity, identity)


def test_substitute_many_is_simultaneous():
    swap = {"p": Var("q"), "q": Var("p")}
    assert oracles.substitute_many(App(Var("p"), Var("q")), swap) == App(Var("q"), Var("p"))
    assert substitute_many(App(Var("p"), Var("q")), swap) == App(Var("q"), Var("p"))


def test_substitute_untouched_when_name_not_free():
    t = Lam("x", App(Var("x"), Var("q")))
    assert substitute(t, "p", mk_church(7)) == t


def test_free_names_examples():
    assert free_names(Lam("x", App(Var("x"), Var("y")))) == frozenset({"y"})
    stored = Const(Family.LOWER, 1, (Var("y"), Lam("z", Var("z"))))
    assert free_names(stored) == frozenset({"y"})
    assert free_names(mk_church(3)) == frozenset()


def test_is_closed_pure_examples():
    assert is_closed_pure(mk_church(4))
    assert not is_closed_pure(Const(Family.LOWER, 0))
    assert not is_closed_pure(Lam("f", App(Var("f"), Var("y"))))


def test_is_closed_pure_visits_shared_nodes_once():
    # 2**64 leaves as a tree, 64 applications as a DAG
    closed, stored = Lam("x", Var("x")), App(Lam("x", Var("x")), Const(Family.LOWER, 0))
    for _ in range(64):
        closed, stored = App(closed, closed), App(stored, stored)
    assert is_closed_pure(closed)
    assert not is_closed_pure(stored)
    assert not is_closed_pure(App(closed, Const(Family.UPPER, 1)))


def test_iter_consts_walks_a_shared_application_once():
    # 2**20 constant occurrences as a tree, 20 applications as a DAG
    seed = Const(Family.LOWER, 0)
    dag = App(Var("g"), seed)
    for _ in range(20):
        dag = App(dag, dag)
    assert list(iter_consts(dag)) == [seed]
    closed = Lam("x", Var("x"))
    for _ in range(64):
        closed = App(closed, closed)
    assert list(iter_consts(closed)) == []


def test_const_validation():
    with pytest.raises(ValueError):
        Const(Family.LOWER, -1)
    with pytest.raises(ValueError):
        Const(Family.UPPER, 1, (Var("a"),))
    with pytest.raises(ValueError):
        mk_church(-1)
    assert Const(Family.UPPER, 3).is_seed
    assert not Const(Family.UPPER, 3, (Var("a"), Var("b"))).is_seed


def test_app_spine_helpers():
    t = app(Var("f"), Var("a"), Var("b"))
    head, args = spine(t)
    assert head == Var("f") and args == [Var("a"), Var("b")]
    s1 = Var("S")
    assert app_power(s1, 3, mk_church(0)) == App(s1, App(s1, App(s1, mk_church(0))))
    assert app_power(s1, 0, mk_church(0)) == mk_church(0)


def test_fresh_name_avoids_collisions():
    got = fresh_name("x", {"x", "x1", "x2"})
    assert got not in {"x", "x1", "x2"}


@hyp.given(terms, names, terms)
def test_substitution_free_name_bookkeeping(t, x, u):
    result = substitute(t, x, u)
    allowed = (free_names(t) - {x}) | (free_names(u) if x in free_names(t) else set())
    assert free_names(result) <= allowed


def test_substitution_never_captures_generated():
    r = rng(23)
    for _ in range(300):
        t = pure_term(r, 4)
        x = r.choice(FREEPOOL)
        shield = Lam("s", t)
        # pushing Var("s") under the shield must rename the binder, never bind it
        result = substitute(shield, x, Var("s"))
        if x in free_names(t):
            assert isinstance(result, Lam)
            assert result.binder != "s"
            assert "s" in free_names(result)
        else:
            assert result == shield


# -- free-name sets built with the node, checked against the uncached originals --


def oracle_free_names(term):
    """free_names as it was before nodes cached their sets: a full walk."""
    match term:
        case Var(name):
            return frozenset((name,))
        case Lam(binder, body):
            return oracle_free_names(body) - {binder}
        case App(fn, arg):
            return oracle_free_names(fn) | oracle_free_names(arg)
        case Const(_, _, payload):
            out = frozenset()
            for p in payload:
                out |= oracle_free_names(p)
            return out
    raise TypeError(f"not a term: {term!r}")


def oracle_substitute_many(term, mapping):
    """substitute_many as it was before: rebuilds every App and Const."""

    def go(t, m):
        match t:
            case Var(name):
                return m.get(name, t)
            case App(fn, arg):
                return App(go(fn, m), go(arg, m))
            case Const(family, level, payload):
                if not payload:
                    return t
                return Const(family, level, tuple(go(p, m) for p in payload))
            case Lam(binder, body):
                body_free = oracle_free_names(body)
                live = {k: v for k, v in m.items() if k != binder and k in body_free}
                if not live:
                    return t
                incoming = set()
                for v in live.values():
                    incoming |= oracle_free_names(v)
                if binder in incoming:
                    renamed = fresh_name(binder, incoming | body_free | set(live))
                    body = go(body, {binder: Var(renamed)})
                    binder = renamed
                return Lam(binder, go(body, live))
        raise TypeError(f"not a term: {t!r}")

    return go(term, dict(mapping))


GENERATORS = (any_term, lower_term, p_term)


def generated_case(seed):
    """A generated term with some binder names free, and a substitution
    whose incoming terms have binder names free, so binders get renamed."""
    r = rng(seed)
    gen = GENERATORS[seed % len(GENERATORS)]
    free = tuple(r.sample(BINDERS, 2))
    term = gen(r, 5, free)
    keys = [name for name in free + FREEPOOL if r.random() < 0.6]

    def incoming():
        if r.random() < 0.5:
            return gen(r, 2, ())
        return App(Var(r.choice(BINDERS)), gen(r, 2, (r.choice(BINDERS),)))

    return term, {k: incoming() for k in keys}


@hyp.given(st.integers(0, 2**32 - 1))
def test_free_names_match_oracle_on_generated_terms(seed):
    term, mapping = generated_case(seed)
    assert free_names(term) == oracle_free_names(term)
    for value in mapping.values():
        assert free_names(value) == oracle_free_names(value)


@hyp.given(st.integers(0, 2**32 - 1))
def test_substitute_many_matches_oracle_on_generated_terms(seed):
    term, mapping = generated_case(seed)
    expected = oracle_substitute_many(term, mapping)
    got = oracles.substitute_many(term, mapping)
    assert got == expected  # binder names included, not just alpha
    assert free_names(got) == oracle_free_names(expected)
    for name, value in mapping.items():  # the production kernel, one name at a time
        assert substitute(term, name, value) == oracle_substitute_many(term, {name: value})


@hyp.given(st.integers(0, 2**32 - 1))
def test_substitute_many_kernel_matches_oracle_or_gives_none(seed):
    term, mapping = generated_case(seed)
    got = substitute_many(term, mapping)
    if got is not None:  # None where a binder might have been renamed
        assert got == oracles.substitute_many(term, mapping)
    for name, value in mapping.items():  # one name is never None
        assert substitute_many(term, {name: value}) == oracles.substitute_many(
            term, {name: value})


def test_substitute_many_gives_up_at_capturing_binders():
    outcomes = {True: 0, False: 0}
    for seed in range(400):
        term, mapping = generated_case(seed)
        if len(mapping) > 1 and not free_names(term).isdisjoint(mapping):
            outcomes[substitute_many(term, mapping) is None] += 1
    assert min(outcomes.values()) > 20  # 38 None and 243 terms
    # the inner s would capture the incoming s; a primed s is a name that
    # renaming the binder of s one name at a time might give
    inner = Lam("s", app(Var("p"), Var("q"), Var("s")))
    assert substitute_many(inner, {"p": Var("s"), "q": Var("r")}) is None
    assert substitute_many(Lam("s'", app(Var("s"), Var("q"))),
                           {"s": Var("p"), "q": Var("r")}) is None
    # shadowed: p is not substituted under its own binder, q is
    shadow = Lam("p", app(Var("p"), Var("q")))
    assert substitute_many(shadow, {"p": Var("s"), "q": Var("r")}) == Lam(
        "p", app(Var("p"), Var("r")))
    assert substitute_many(inner, {"s": Var("p"), "r": Var("q")}) is inner


@hyp.given(terms, names, terms)
def test_substitute_matches_oracle(t, x, u):
    expected = oracle_substitute_many(t, {x: u})
    assert substitute(t, x, u) == expected
    assert free_names(t) == oracle_free_names(t)


def test_free_names_deep_terms_without_recursion():
    assert free_names(mk_church(5000)) == frozenset()
    chain = Var("z")
    for i in range(5000):
        chain = Lam(f"v{i}", App(Var(f"v{i}"), chain))
    assert free_names(chain) == frozenset({"z"})
    lams = Var("z")
    for i in range(5000):
        lams = Lam(BINDERS[i % len(BINDERS)], lams)
    assert free_names(lams) == frozenset({"z"})


def test_node_fields_and_match_args_unchanged():
    assert Var.__match_args__ == ("name",)
    assert Lam.__match_args__ == ("binder", "body")
    assert App.__match_args__ == ("fn", "arg")
    assert Const.__match_args__ == ("family", "level", "payload")


def test_nodes_are_immutable_and_take_keywords():
    p, q = Var(name="p"), Var("q")
    nodes = {
        Var(name="x"): ("name",),
        Lam(binder="x", body=p): ("binder", "body"),
        App(fn=p, arg=q): ("fn", "arg"),
        Const(family=Family.UPPER, level=1, payload=(p, q)): ("family", "level", "payload"),
    }
    assert list(nodes) == [Var("x"), Lam("x", p), App(p, q), Const(Family.UPPER, 1, (p, q))]
    for node, fields in nodes.items():
        assert isinstance(node, Term)
        for name in (*fields, "_fv"):
            with pytest.raises(AttributeError):
                setattr(node, name, q)
            with pytest.raises(AttributeError):
                delattr(node, name)
        with pytest.raises(AttributeError):
            node.extra = 1
    with pytest.raises(TypeError):
        Term()
    # anything that is not a term is refused, or is unequal to every term
    for walk in (free_names, pretty, delta_forward):
        with pytest.raises(TypeError):
            walk(object())
    one = object()
    for pair in ((one, one), (one, object())):
        with pytest.raises(TypeError, match="not a term"):
            alpha_eq(*pair)
    assert (Var("x") == object()) is False
    assert alpha_eq(Var("x"), object()) is False
    assert Const(family=Family.LOWER, level=2).payload == ()
    with pytest.raises(ValueError):
        Const(family=Family.LOWER, level=-1)
    with pytest.raises(ValueError):
        Const(family=Family.LOWER, level=0, payload=(p,))


def test_filled_slot_keeps_value_semantics():
    def build():
        return Lam("x", App(Var("x"), Const(Family.LOWER, 1, (Var("p"), Var("q")))))

    cached, fresh = build(), build()
    assert free_names(cached) == {"p", "q"}
    assert cached == fresh and hash(cached) == hash(fresh)
    assert cached.body == fresh.body and hash(cached.body) == hash(fresh.body)
    assert repr(cached) == repr(fresh) == (
        "Lam(binder='x', body=App(fn=Var(name='x'), arg=Const(family=<Family.LOWER: 'x'>, "
        "level=1, payload=(Var(name='p'), Var(name='q')))))"
    )


def test_free_name_sets_are_shared():
    body = App(Var("p"), Lam("y", Var("q")))
    assert free_names(Var("p")) is free_names(Var("p"))
    assert free_names(Lam("x", body)) is free_names(body)
    assert free_names(App(body, Var("q"))) is free_names(body)
    assert free_names(App(Var("q"), body)) is free_names(body)
    assert free_names(Const(Family.UPPER, 0, (Var("p"), body))) is free_names(body)


def test_substitute_returns_untouched_subterms_themselves():
    untouched = App(App(Var("p"), Lam("s", Var("q"))), Const(Family.LOWER, 1, (Var("r"), Var("p"))))
    assert substitute(untouched, "x", Var("y")) is untouched
    result = substitute(App(untouched, Var("x")), "x", Var("y"))
    assert result.fn is untouched and result.arg == Var("y")


# -- constants by an explicit stack, checked against the recursive original --


def oracle_iter_consts(term, seen=None):
    """iter_consts by nested generators, one per level, that skip an
    application already walked, keyed by id."""
    seen = set() if seen is None else seen
    match term:
        case Var(_):
            return
        case Lam(_, body):
            yield from oracle_iter_consts(body, seen)
        case App(fn, arg):
            if id(term) in seen:
                return
            seen.add(id(term))
            yield from oracle_iter_consts(fn, seen)
            yield from oracle_iter_consts(arg, seen)
        case Const(_, _, payload) as c:
            yield c
            for p in payload:
                yield from oracle_iter_consts(p, seen)


@hyp.given(st.integers(0, 2**32 - 1))
def test_iter_consts_matches_oracle_on_generated_terms(seed):
    term, mapping = generated_case(seed)
    for t in (term, oracles.substitute_many(term, mapping), *mapping.values()):
        got, expected = list(iter_consts(t)), list(oracle_iter_consts(t))
        # the same occurrences in the same order, by identity
        assert [id(c) for c in got] == [id(c) for c in expected]
        assert is_closed_pure(t) == (not free_names(t) and not expected)


def test_iter_consts_order_and_laziness():
    inner = Const(Family.UPPER, 0, (Var("p"), Var("q")))
    outer = Const(Family.LOWER, 1, (inner, Const(Family.LOWER, 0)))
    seed = Const(Family.UPPER, 2)
    term = Lam("s", app(outer, seed, Var("s")))
    assert [c.level for c in iter_consts(term)] == [1, 0, 0, 2]
    assert next(iter_consts(term)) is outer
    assert list(iter_consts(Var("p"))) == []


def test_iter_consts_deep_terms_without_recursion():
    assert list(iter_consts(mk_church(5000))) == []
    assert is_closed_pure(mk_church(5000))
    seed = Const(Family.LOWER, 0)
    deep = app_power(Var("g"), 5000, seed)
    assert list(iter_consts(deep)) == [seed]
    assert not is_closed_pure(Lam("g", deep))
    nested = Const(Family.UPPER, 0)
    for level in range(1, 5001):
        nested = Const(Family.UPPER, level, (nested, Var("p")))
    assert [c.level for c in iter_consts(nested)] == list(range(5000, -1, -1))


# -- substitution and alpha-equivalence by explicit stacks, checked against
#    the recursive originals in oracles.py --


def test_substitute_renames_past_free_primed_names():
    # y' is free in the body, so the renamed binder must skip it too
    t = Lam("y", App(Var("z"), App(Var("y"), Var("y'"))))
    expected = Lam("y''", App(Var("y"), App(Var("y''"), Var("y'"))))
    assert substitute(t, "z", Var("y")) == expected == oracles.substitute_many(t, {"z": Var("y")})


def test_substitute_deep_terms_without_recursion():
    deep = app_power(Var("g"), 5000, Var("x"))
    assert church_value(Lam("g", Lam("y", substitute(deep, "x", Var("y"))))) == 5000
    assert church_value(Lam("f", Lam("x", substitute(deep, "g", Var("f"))))) == 5000
    assert substitute(deep, "z", Var("y")) is deep
    # two names at once under the same 5000-deep spine
    both = substitute_many(deep, {"g": Var("f"), "x": Var("y")})
    assert church_value(Lam("f", Lam("y", both))) == 5000
    assert substitute_many(deep, {"z": Var("y"), "w": Var("f")}) is deep
    # the binder captures the incoming y: renamed through the whole spine
    out = substitute(Lam("y", app_power(Var("y"), 5000, Var("z"))), "z", Var("y"))
    assert out.binder == "y'"
    assert alpha_eq(out, Lam("w", app_power(Var("w"), 5000, Var("y"))))
    assert church_value(Lam("y'", Lam("y", out.body))) == 5000
    # 5000 nested binders, each renamed on the way down
    chain = Var("z")
    for _ in range(5000):
        chain = Lam("y", App(Var("y"), chain))
    out = substitute(chain, "z", Var("y"))
    for _ in range(5000):
        assert isinstance(out, Lam) and out.binder == "y'"
        assert out.body.fn == Var("y'")
        out = out.body.arg
    assert out == Var("y")
    # two names under the same 5000 binders: the outer y shadows y, and the
    # incoming y would be captured at the top, so the walk gives up at once
    out = substitute_many(chain, {"y": Var("p"), "z": Var("q")})
    for _ in range(5000):
        assert isinstance(out, Lam) and out.binder == "y"
        out = out.body.arg
    assert out == Var("q")
    assert substitute_many(chain, {"z": Var("y"), "q": Var("p")}) is None
    # 5000 nested payloads
    nested = Var("z")
    for level in range(5000):
        nested = Const(Family.UPPER, level, (nested, Var("p")))
    out = substitute(nested, "z", mk_church(1))
    assert [c.level for c in iter_consts(out)] == list(range(4999, -1, -1))
    assert free_names(out) == {"p"}


def test_alpha_eq_deep_terms_without_recursion():
    assert alpha_eq(mk_church(5000), mk_church(5000))
    assert not alpha_eq(mk_church(5000), mk_church(4999))
    # differ only at the bottom: the bound x against the bound f
    bottom_f = Lam("f", Lam("x", app_power(Var("f"), 5000, Var("f"))))
    assert not alpha_eq(mk_church(5000), bottom_f)
    assert not alpha_eq(bottom_f, mk_church(5000))

    def binders(names, body):
        for name in reversed(names):
            body = Lam(name, body)
        return body

    one = binders([f"a{i}" for i in range(5000)], Var("a0"))
    other = binders([f"b{i}" for i in range(5000)], Var("b0"))
    last = binders([f"b{i}" for i in range(5000)], Var("b1"))
    assert alpha_eq(one, other)
    assert not alpha_eq(one, last)


def test_alpha_eq_scopes_end_with_their_binders():
    # s is bound on the left of each application and free on the right
    assert alpha_eq(App(Lam("s", Var("s")), Var("s")), App(Lam("t", Var("t")), Var("s")))
    assert alpha_eq(Const(Family.UPPER, 0, (Lam("s", Var("s")), Var("s"))),
                    Const(Family.UPPER, 0, (Lam("t", Var("t")), Var("s"))))
    # leaving the inner x uncovers the outer x again
    assert alpha_eq(Lam("x", App(Lam("x", Var("x")), Var("x"))),
                    Lam("y", App(Lam("z", Var("z")), Var("y"))))
    assert not alpha_eq(Lam("x", App(Lam("x", Var("x")), Var("x"))),
                        Lam("y", App(Lam("z", Var("z")), Var("z"))))


def test_alpha_eq_does_not_skip_shared_open_subterms():
    body = App(Var("x"), Var("y"))
    assert not alpha_eq(Lam("x", Lam("y", body)), Lam("y", Lam("x", body)))
    assert alpha_eq(Lam("x", Lam("y", body)), Lam("x", Lam("y", body)))
    shared = Lam("s", Var("s"))
    assert alpha_eq(App(shared, shared), App(shared, Lam("t", Var("t"))))


def shared_pair(seed):
    """Two terms built around one shared body object, under binder names
    chosen, ordered or swapped independently, so the body's free names are
    bound differently in each about as often as the same."""
    r = rng(seed)
    gen = GENERATORS[seed % len(GENERATORS)]
    names = tuple(r.sample(BINDERS, 3))
    body = gen(r, 4, names)

    def around(t):
        roll = r.random()
        for name in r.sample(names, r.randint(0, 3)):
            t = Lam(name, t)
        if roll < 0.3:
            t = App(t, body)
        elif roll < 0.5:
            t = Const(Family.UPPER, 1, (t, body))
        return t

    t = around(body)
    u = around(body) if r.random() < 0.7 else substitute(t, r.choice(names), Var(r.choice(names)))
    return t, u


@hyp.given(st.integers(0, 2**32 - 1))
def test_alpha_eq_matches_oracle_on_shared_subterms(seed):
    t, u = shared_pair(seed)
    expected = oracle_alpha_eq(t, u)
    assert alpha_eq(t, u) == expected
    assert alpha_eq(u, t) == expected


def test_shared_pairs_are_equal_and_unequal():
    outcomes = {oracle_alpha_eq(*shared_pair(seed)) for seed in range(100)}
    assert outcomes == {True, False}


# -- == and hash, iterative and structural --


def rebuilt(t):
    """An equal term that shares no node with t."""
    match t:
        case Var(name):
            return Var(name)
        case Lam(binder, body):
            return Lam(binder, rebuilt(body))
        case App(fn, arg):
            return App(rebuilt(fn), rebuilt(arg))
        case Const(family, level, payload):
            return Const(family, level, tuple(rebuilt(p) for p in payload))


@hyp.given(st.integers(0, 2**32 - 1))
def test_repr_matches_oracle_on_generated_terms(seed):
    r = rng(seed)
    for gen in (pure_term, lower_term, p_term, any_term):
        t = gen(r, 5)
        assert repr(t) == oracle_repr(t)


def test_repr_deep_terms_without_recursion():
    assert repr(mk_church(5000)) == (
        "Lam(binder='f', body=Lam(binder='x', body="
        + "App(fn=Var(name='f'), arg=" * 5000 + "Var(name='x')" + ")" * 5002)
    nested = Const(Family.UPPER, 0)
    for level in range(5000):
        nested = Const(Family.UPPER, level, (Var("p"), nested))
    text = repr(nested)
    assert text.startswith("Const(family=<Family.UPPER: 'X'>, level=4999, payload=(Var(name='p'), ")
    assert text.endswith("level=0, payload=())" + "))" * 5000)


@hyp.given(terms, terms)
def test_eq_and_hash_are_structural(t, u):
    copy = rebuilt(t)
    assert copy == t and not copy != t and hash(copy) == hash(t)
    # repr shows every compared field, binder names included, and no free-name set
    assert (t == u) == (repr(t) == repr(u)) == (u == t)
    if t == u:
        assert hash(t) == hash(u)


def test_eq_is_not_alpha_and_rejects_other_types():
    assert Lam("x", Var("x")) != Lam("y", Var("y"))
    assert Const(Family.LOWER, 1) != Const(Family.UPPER, 1)
    assert Const(Family.LOWER, 1, (Var("p"), Var("q"))) != Const(Family.LOWER, 1)
    assert Var("x") != App(Var("x"), Var("x"))
    assert Var("x").__eq__("x") is NotImplemented
    assert Var("x") != "x" and Const(Family.LOWER, 0) != 0


def test_eq_and_hash_deep_terms_without_recursion():
    assert mk_church(5000) == mk_church(5000)
    assert hash(mk_church(5000)) == hash(mk_church(5000))
    assert len({mk_church(5000), mk_church(5000), mk_church(4999)}) == 2
    # differ only at the bottom
    assert mk_church(5000) != mk_church(4999)
    assert mk_church(5000) != Lam("f", Lam("x", app_power(Var("f"), 5000, Var("f"))))

    def nested(bottom):
        t = bottom
        for level in range(5000):
            t = Lam(BINDERS[level % len(BINDERS)], Const(Family.UPPER, level, (Var("p"), t)))
        return t

    assert nested(Var("q")) == nested(Var("q"))
    assert hash(nested(Var("q"))) == hash(nested(Var("q")))
    assert nested(Var("q")) != nested(Var("r"))


def test_eq_skips_shared_subterms():
    t = Var("x")
    for _ in range(40):
        t = App(t, t)  # 2**41 - 1 nodes as a tree, 41 as a DAG
    # only the answers go into the assert: a failing one would print t's tree
    answers = (App(t, Var("y")) == App(t, Var("y")), App(t, Var("y")) == App(t, Var("z")),
               Const(Family.UPPER, 2, (t, Lam("y", t))) == Const(Family.UPPER, 2, (t, Lam("y", t))),
               Const(Family.UPPER, 2, (t, Lam("y", t))) == Const(Family.UPPER, 2, (t, Lam("z", t))))
    assert answers == (True, False, True, False)


@hyp.given(st.integers(0, 2**32 - 1))
def test_eq_matches_shape_comparison(seed):
    """== is the comparison of the two pre-order shapes, on pairs that share
    subterms, on equal pairs that share none, and on unrelated pairs."""
    r = rng(seed)
    t, u = shared_pair(seed)
    a = any_term(r, 4)
    for x, y in ((t, u), (t, rebuilt(t)), (App(a, t), App(rebuilt(a), u)),
                 (a, any_term(r, 4)), (Lam("s", a), Lam("s", rebuilt(a)))):
        assert (x == y) == (y == x) == (list(_shape(x)) == list(_shape(y)))
