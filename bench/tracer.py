"""Outside-in tracing of storlab: wraps public functions, records spans.

Nothing under src/ is changed.  `Tracer.install` replaces each public
function of the traced modules in every storlab namespace that holds it
(from-imports put the same function under several module names, e.g.
`storlab.checker.head_reduce` and `storlab.theorems.head_reduce`), and
`Tracer.uninstall` puts the originals back.

Each wrapped call is a span: function, start, end, parent span, pass id,
kept in flat arrays and written out by `write_spans`.  A call made while
the innermost open span is the same function is a recursive entry
(`free_names`, `iter_consts`): it is counted and gets no span.  A
generator function gets one span per resumption of its outermost
generator, because its work happens while it is iterated, not when it is
called.  Self time is a span's duration minus the durations of its child
spans, accumulated while the run goes so no post-pass walk is needed.
"""

from __future__ import annotations

import gzip
import inspect
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

MODULES = ("cli", "builtins", "syntax", "terms", "reduction", "checker", "theorems")

# Metric groups: one name for a set of functions whose times are read
# together.  A group's inclusive time counts only its outermost spans, so
# summary_to_dict -> report_to_dict is not counted twice.
GROUPS = {
    "checker.transform": ("checker.x_transform", "checker.X_transform"),
    "checker.serialize": ("checker.report_to_dict", "checker.summary_to_dict",
                          "checker.step_to_dict", "checker.to_json"),
    "terms.substitute": ("terms.substitute", "terms.substitute_many"),
    "theorems.verify": ("theorems.verify_theorem1_instance",
                        "theorems.verify_theorem2_instance",
                        "theorems.verify_theorem3"),
}


class Tracer:
    """Wraps storlab's public functions; `hooks` maps "module.function" to
    a callable (tracer, args, kwargs, result or exception) run on return."""

    def __init__(self, package: Any, hooks: dict[str, Callable] | None = None):
        self.package = package
        self.hooks = hooks or {}
        self.names: list[str] = []          # fid -> "module.function"
        self.module_of: list[str] = []      # fid -> module short name
        self.group_of: list[int] = []       # fid -> gid
        self.group_names: list[str] = []
        self.wrappers: dict[int, Callable] = {}    # id(original) -> wrapper
        self.patched: list[tuple[Any, str, Callable]] = []
        # spans, one entry per span in each array
        self.span_fid = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self.pass_id = -1
        self.reset_counts()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = [getattr(self.package, m) for m in MODULES]
        group_index = {f: g for g, fs in GROUPS.items() for f in fs}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                qual = f"{short}.{name}"
                fid = len(self.names)
                self.names.append(qual)
                self.module_of.append(short)
                gname = group_index.get(qual, qual)
                if gname not in self.group_names:
                    self.group_names.append(gname)
                self.group_of.append(self.group_names.index(gname))
                self.wrappers[id(obj)] = self._wrap(fid, obj)
        self.reset_counts()
        namespaces = [self.package] + modules
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                wrapper = self.wrappers.get(id(obj))
                if wrapper is not None:
                    self.patched.append((ns, name, obj))
                    setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, original in reversed(self.patched):
            setattr(ns, name, original)
        self.patched.clear()

    # -- per-pass counters --------------------------------------------

    def reset_counts(self) -> None:
        n, g = len(self.names), len(self.group_names)
        self.entries = [0] * n          # spans plus recursive entries
        self.self_ns = [0] * n
        self.open_group = [0] * g
        self.group_ns = [0] * g         # outermost-span time per group
        self.group_calls = [0] * g      # outermost spans per group
        self.edges: Counter = Counter()  # (parent fid, fid) -> spans
        self.values: Counter = Counter()  # counts read from returned data
        self.returns: list[Any] = []    # kept by hooks for after the pass
        # open spans: function, span index, time covered by child spans
        self.stack_fid: list[int] = []
        self.stack_idx: list[int] = []
        self.stack_child: list[int] = []

    def begin_pass(self, pass_id: int) -> None:
        self.reset_counts()
        self.pass_id = pass_id

    # -- wrapping -----------------------------------------------------

    def _open(self, fid: int) -> int:
        stack_fid = self.stack_fid
        parent = self.stack_idx[-1] if self.stack_idx else -1
        self.edges[(stack_fid[-1] if stack_fid else -1, fid)] += 1
        idx = len(self.span_fid)
        self.span_fid.append(fid)
        self.span_parent.append(parent)
        self.span_pass.append(self.pass_id)
        self.span_end.append(0)
        stack_fid.append(fid)
        self.stack_idx.append(idx)
        self.stack_child.append(0)
        self.open_group[self.group_of[fid]] += 1
        start = perf_counter_ns()
        self.span_start.append(start)
        return idx

    def _close(self, fid: int, idx: int) -> None:
        end = perf_counter_ns()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.stack_fid.pop()
        self.stack_idx.pop()
        child = self.stack_child.pop()
        if self.stack_child:
            self.stack_child[-1] += duration
        self.entries[fid] += 1
        self.self_ns[fid] += duration - child
        gid = self.group_of[fid]
        self.open_group[gid] -= 1
        if self.open_group[gid] == 0:
            self.group_ns[gid] += duration
            self.group_calls[gid] += 1

    def _wrap(self, fid: int, original: Callable) -> Callable:
        tracer = self
        hook = self.hooks.get(self.names[fid])

        if inspect.isgeneratorfunction(original):
            def resume(gen):
                while True:
                    idx = tracer._open(fid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(fid, idx)
                    yield item

            def gen_wrapper(*args, **kwargs):
                if tracer.stack_fid and tracer.stack_fid[-1] == fid:
                    tracer.entries[fid] += 1
                    return original(*args, **kwargs)
                return resume(original(*args, **kwargs))

            gen_wrapper.__wrapped__ = original
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if tracer.stack_fid and tracer.stack_fid[-1] == fid:
                tracer.entries[fid] += 1
                return original(*args, **kwargs)
            idx = tracer._open(fid)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(fid, idx)
                if hook is not None:
                    hook(tracer, args, kwargs, exc)
                raise
            tracer._close(fid, idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- reading ------------------------------------------------------

    def fid(self, qual: str) -> int:
        return self.names.index(qual)

    def group(self, name: str) -> int:
        return self.group_names.index(name)

    def edge_calls(self, parent: str, child: str) -> int:
        return self.edges[(self.fid(parent), self.fid(child))]

    def module_self_s(self) -> dict[str, float]:
        out = {m: 0 for m in MODULES}
        for fid, ns in enumerate(self.self_ns):
            out[self.module_of[fid]] += ns
        return {m: ns / 1e9 for m, ns in out.items()}

    def write_spans(self, path: Path, meta: dict[str, Any]) -> None:
        """Spans as gzip'd TSV: pass, span, parent, function, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("# " + json.dumps(meta, sort_keys=True) + "\n")
            out.write("pass\tspan\tparent\tfunction\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_fid)):
                out.write(f"{self.span_pass[i]}\t{i}\t{self.span_parent[i]}\t"
                          f"{names[self.span_fid[i]]}\t{self.span_start[i]}\t"
                          f"{self.span_end[i]}\n")


def term_sizes(term: Any, children: Callable[[Any], tuple]) -> tuple[int, int]:
    """(tree nodes, distinct node objects) of one term, without recursion."""
    size: dict[int, int] = {}
    stack = [term]
    while stack:
        node = stack[-1]
        key = id(node)
        if key in size:
            stack.pop()
            continue
        kids = children(node)
        pending = [k for k in kids if id(k) not in size]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        size[key] = 1 + sum(size[id(k)] for k in kids)
    return size[id(term)], len(size)
