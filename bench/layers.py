"""Per-layer metrics of storlab, read from a traced pass.

Times come from the tracer's spans.  Counts are read from the data the
program returns wherever it returns them: head beta-steps from
`head_reduce`'s result, macro steps and term sizes from the `RunReport`s
that `run_check` returns.  Term sizes and the run_check repeat ratio are
computed after the timed pass, from references kept during it.
"""

from __future__ import annotations

import inspect
from typing import Any

from tracer import MODULES, Tracer, term_sizes

# (metric, unit); the per_layer list of BENCHMARK.json, in the same order.
PER_LAYER = (
    ("terms.free_names.s", "s"),
    ("terms.free_names.nodes", "count"),
    ("checker.sharing_ratio", "ratio"),
    ("terms.substitute.s", "s"),
    ("terms.substitute.calls", "count"),
    ("reduction.head_reduce.s", "s"),
    ("reduction.head_reduce.calls", "count"),
    ("reduction.beta_steps", "count"),
    ("reduction.normalize.s", "s"),
    ("reduction.norm_steps", "count"),
    ("reduction.beta_equiv.s", "s"),
    ("reduction.check_successor.s", "s"),
    ("checker.run_check.self_s", "s"),
    ("checker.run_check.calls", "count"),
    ("checker.run_check.repeat_ratio", "ratio"),
    ("checker.macro_steps", "count"),
    ("checker.transform.s", "s"),
    ("theorems.delta_forward.s", "s"),
    ("theorems.verify.self_s", "s"),
    ("terms.alpha_eq.s", "s"),
    ("terms.alpha_eq.calls", "count"),
    ("terms.iter_consts.s", "s"),
    ("terms.is_closed_pure.s", "s"),
    ("syntax.pretty.s", "s"),
    ("syntax.pretty.calls", "count"),
    ("checker.serialize.s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("builtins.prelude.s", "s"),
    ("builtins.prelude.calls", "count"),
    ("syntax.parse.s", "s"),
    ("cli.main.self_s", "s"),
    ("checker.peak_term_nodes", "count"),
    ("checker.peak_dag_nodes", "count"),
    ("reduction.fuel_exhausted", "count"),
    ("trace.overhead_ratio", "ratio"),
) + tuple((f"layer.{m}.self_s", "s") for m in MODULES) + (
    ("trace.pass_s", "s"),
    ("trace.spans", "count"),
    ("host.reference_s", "s"),
)

# Counters that must repeat exactly from run to run at the same inputs.
DETERMINISTIC = (
    "reduction.beta_steps",
    "checker.macro_steps",
    "reduction.norm_steps",
    "terms.free_names.nodes",
    "checker.peak_term_nodes",
    "checker.peak_dag_nodes",
    "checker.run_check.repeat_ratio",
)


def hooks(package: Any) -> dict[str, Any]:
    """Count from what head_reduce, normalize and run_check hand back."""
    fuel = package.reduction.FuelExhausted

    def head_reduce(tracer, _args, _kwargs, result):
        if isinstance(result, fuel):
            tracer.values["reduction.beta_steps"] += result.steps
            tracer.values["reduction.fuel_exhausted"] += 1
        elif not isinstance(result, BaseException):
            tracer.values["reduction.beta_steps"] += result[1]

    def normalize(tracer, _args, _kwargs, result):
        if isinstance(result, fuel):
            tracer.values["reduction.fuel_exhausted"] += 1

    def run_check(tracer, args, kwargs, result):
        if not isinstance(result, BaseException):
            tracer.returns.append((args, kwargs, result))

    return {
        "reduction.head_reduce": head_reduce,
        "reduction.normalize": normalize,
        "checker.run_check": run_check,
    }


def _children(term: Any) -> tuple:
    fn = getattr(term, "fn", None)
    if fn is not None:
        return (fn, term.arg)
    body = getattr(term, "body", None)
    if body is not None:
        return (body,)
    return getattr(term, "payload", ())


def pass_metrics(tracer: Tracer, package: Any, stdout_bytes: int,
                 pass_s: float, spans: int) -> dict[str, float]:
    """Per-layer values of one traced pass, read after the pass ended."""
    values = tracer.values

    def group_s(name: str) -> float:
        return tracer.group_ns[tracer.group(name)] / 1e9

    def group_calls(name: str) -> int:
        return tracer.group_calls[tracer.group(name)]

    def self_s(*quals: str) -> float:
        return sum(tracer.self_ns[tracer.fid(q)] for q in quals) / 1e9

    runs = tracer.returns
    signature = inspect.signature(package.checker.run_check)
    seen: set = set()
    repeats = macro_steps = 0
    peak_tree = peak_dag = peak_tree_dag = 0
    for args, kwargs, report in runs:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments.values())
        repeats += key in seen
        seen.add(key)
        macro_steps += len(report.trace)
        states = [t for step in report.trace for t in (step.u, step.v)]
        if report.tau is not None:
            states.append(report.tau)
        for state in states:
            tree, dag = term_sizes(state, _children)
            if tree > peak_tree:
                peak_tree, peak_tree_dag = tree, dag
            peak_dag = max(peak_dag, dag)

    out = {
        "terms.free_names.s": group_s("terms.free_names"),
        "terms.free_names.nodes": tracer.entries[tracer.fid("terms.free_names")],
        "checker.sharing_ratio": peak_tree / peak_tree_dag if peak_tree_dag else 0.0,
        "terms.substitute.s": group_s("terms.substitute"),
        "terms.substitute.calls": group_calls("terms.substitute"),
        "reduction.head_reduce.s": group_s("reduction.head_reduce"),
        "reduction.head_reduce.calls": group_calls("reduction.head_reduce"),
        "reduction.beta_steps": values["reduction.beta_steps"],
        "reduction.normalize.s": group_s("reduction.normalize"),
        # _normal_step is private, so each normalization beta-step shows
        # as one substitute span directly under a normalize span
        "reduction.norm_steps": tracer.edge_calls("reduction.normalize", "terms.substitute"),
        "reduction.beta_equiv.s": group_s("reduction.beta_equiv"),
        "reduction.check_successor.s": group_s("reduction.check_successor"),
        "checker.run_check.self_s": self_s("checker.run_check"),
        "checker.run_check.calls": len(runs),
        "checker.run_check.repeat_ratio": repeats / len(runs) if runs else 0.0,
        "checker.macro_steps": macro_steps,
        "checker.transform.s": group_s("checker.transform"),
        "theorems.delta_forward.s": group_s("theorems.delta_forward"),
        "theorems.verify.self_s": self_s("theorems.verify_theorem1_instance",
                                         "theorems.verify_theorem2_instance",
                                         "theorems.verify_theorem3"),
        "terms.alpha_eq.s": group_s("terms.alpha_eq"),
        "terms.alpha_eq.calls": group_calls("terms.alpha_eq"),
        "terms.iter_consts.s": group_s("terms.iter_consts"),
        "terms.is_closed_pure.s": group_s("terms.is_closed_pure"),
        "syntax.pretty.s": group_s("syntax.pretty"),
        "syntax.pretty.calls": group_calls("syntax.pretty"),
        "checker.serialize.s": group_s("checker.serialize"),
        "cli.stdout_bytes": stdout_bytes,
        "builtins.prelude.s": group_s("builtins.prelude"),
        "builtins.prelude.calls": group_calls("builtins.prelude"),
        "syntax.parse.s": group_s("syntax.parse"),
        "cli.main.self_s": self_s("cli.main"),
        "checker.peak_term_nodes": peak_tree,
        "checker.peak_dag_nodes": peak_dag,
        "reduction.fuel_exhausted": values["reduction.fuel_exhausted"],
        "trace.pass_s": pass_s,
        "trace.spans": spans,
    }
    for module, seconds in tracer.module_self_s().items():
        out[f"layer.{module}.self_s"] = seconds
    return out
