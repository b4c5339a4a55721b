"""Terms that are small to write but hostile to walk: deep binder chains.

A case that still fails is a strict xfail that names the defect it shows,
so the change that mends it turns the case into a pass.
"""

import pytest

from storlab.terms import Lam, Var, alpha_eq, app, substitute


def chain(names, head):
    """\\names... . head names...: each binder free in the body below it."""
    term = app(Var(head), *map(Var, names))
    for name in reversed(names):
        term = Lam(name, term)
    return term


@pytest.mark.xfail(strict=True, raises=RecursionError,
                   reason="substitute_many calls itself once per binder it renames "
                          "inside a renamed body")
def test_substitute_renames_a_chain_of_1000_primed_binders():
    primed = ["y" + "'" * i for i in range(1000)]
    result = substitute(chain(primed, "x"), "x", Var("y"))
    assert alpha_eq(result, chain([f"z{i}" for i in range(1000)], "y"))
