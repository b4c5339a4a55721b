"""A crash below the CLI is never reported as a verdict.

Each module-level function of the layers under the CLI is made to raise, one
at a time, in every storlab namespace that holds it, and a fixed set of
commands is run through main.  A run that reaches the fault must end with
an exit code that is neither 0 (the property holds) nor 1 (it was refuted).
TransformError, FuelExhausted, ParseError and UsageError are never injected:
they give verdicts or usage errors by design.
"""

import contextlib
import inspect
import io

import pytest

import storlab
from storlab import builtins, checker, cli, reduction, syntax, terms, theorems
from storlab.cli import EXIT_PASS, EXIT_REFUTED, main

LAYERS = (terms, syntax, reduction, checker, theorems)
NAMESPACES = (storlab, cli, builtins, syntax, terms, reduction, checker, theorems)
COMMANDS = (
    ("check-storage", "T1", "--n-max", "2"),
    ("check-s-storage", "T2", "--succ", "S2", "--n-max", "2", "--json", "--trace"),
    ("theorem1", "T1", "--n-max", "1"),
    ("theorem2", "T2", "--n-max", "1", "--json"),
    ("theorem3", "--n-max", "1"),
    ("corpus", "--n-max", "1", "--json"),
    ("normalize", "S1 #3"),
    ("check-successor", "S1", "--k-max", "2"),
)


def layer_functions():
    """(module, function) for every function defined in one of the layers."""
    return [(module, fn) for module in LAYERS for fn in vars(module).values()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__]


@contextlib.contextmanager
def replaced(originals, make):
    """Every storlab name bound to one of originals bound to make(original)
    instead, until the block ends."""
    patched = []
    for namespace in NAMESPACES:
        for name, value in list(vars(namespace).items()):
            if any(value is fn for fn in originals):
                patched.append((namespace, name, value))
                setattr(namespace, name, make(value))
    try:
        yield
    finally:
        for namespace, name, value in patched:
            setattr(namespace, name, value)


def exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@pytest.fixture(scope="module")
def reached():
    """For each command, the functions its run calls: the runs are
    deterministic, so a run that calls no function of these does not reach
    a fault injected into it."""
    calls = set()

    def recording(fn):
        def wrapper(*args, **kwargs):
            calls.add(fn)
            return fn(*args, **kwargs)
        return wrapper

    reached = {}
    with replaced([fn for _, fn in layer_functions()], recording):
        for argv in COMMANDS:
            calls.clear()
            assert exit_code(argv) == EXIT_PASS, argv
            reached[argv] = set(calls)
    return reached


def raising(error, hit):
    """make for replaced: each function becomes one that notes its call in
    hit and raises error."""
    def make(original):
        def fault(*args, **kwargs):
            hit.append(original)
            raise error(f"injected into {original.__module__}.{original.__qualname__}")
        return fault
    return make


@pytest.mark.parametrize("error", [RuntimeError, RecursionError])
def test_an_injected_fault_is_never_a_verdict(error, reached):
    faulted_layers, verdicts = set(), []
    for module, fn in layer_functions():
        hit = []
        with replaced([fn], raising(error, hit)):
            for argv in COMMANDS:
                if fn not in reached[argv]:
                    continue
                code = exit_code(argv)
                assert hit == [fn], argv
                hit.clear()
                faulted_layers.add(module)
                if code in (EXIT_PASS, EXIT_REFUTED):
                    verdicts.append((fn.__qualname__, argv, code))
    assert verdicts == []
    # not vacuous: a fault was reached in every layer
    assert faulted_layers == set(LAYERS)
