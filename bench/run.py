"""storlab benchmark: closed-loop CLI workloads, run in-process.

Run from the repository root:

    python3 bench/run.py --workload storage-battery --seed 1 --seconds 30 --trace 0

One client issues a workload's commands (bench/workloads.json) back to
back through `storlab.cli.main` in this process, on one thread, with
stdout captured in memory.  A pass runs every command once, in an order
drawn from --seed; the program sees only the command lines.  Every
command's verdict and exit code are checked against hand-written answers
and its stdout against the digest recorded at the seed commit
(bench/digests.json).

--trace 0 measures the end-to-end metrics with tracing off.  Times are
reported at a fixed host speed: a frozen reference job (reference.py),
run in a helper process of its own on the same CPU, is timed between
commands, and each command's time is scaled by REF_SECONDS over the
reference times measured next to it.  The host this was built on drifts
in speed by 20-40% within seconds to minutes, so raw pass medians spread
by 10-35% from run to run (quartiles over ten runs), and the scaled ones
by a few per cent.  The raw wall-clock figures and the median reference
time are printed too and kept in .bench_runs/.  peak_heap_mb is the
largest rise of the Python heap (tracemalloc) during one command of an
extra untimed pass, the first the process runs.  --trace 1 times a few untraced passes, then wraps
storlab's public functions (tracer.py) and reports per-layer metrics
(layers.py), with the median reference time as host.reference_s; the
spans are written to .bench_runs/.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Exit code 0
means the benchmark ran; it is 2 when storlab cannot be found under src/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"    # per-run details and trace spans

TAIL_PERCENTILE = 75      # pass_s.tail, nearest rank
MIN_PASSES = 40           # so that at least 10 passes lie beyond the tail
SETUP_REPEATS = 15        # fresh interpreters per run for setup_s
# Times are reported at a fixed host speed: each command's (or set-up
# interpreter's) time is scaled by REF_SECONDS over the mean time of the
# reference.job() runs just before and just after it.  REF_SECONDS
# is a round figure near that job's median time (0.024-0.031 s) on the
# 2-vCPU host the benchmark was built on.
REF_SECONDS = 0.025
TRACED_PASSES = 5         # at most, in --trace 1; spans of every one are kept
FUEL_EXIT = 2

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s.p50", "s"),
    ("pass_s.tail", "s"),
    ("peak_heap_mb", "MB"),
    ("verdicts_ok", "ratio"),
    ("output_stable", "ratio"),
    ("completed_ratio", "ratio"),
)

# Runs in a fresh interpreter: import storlab and build the prelude, which
# every CLI invocation pays before its first command.
SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import storlab.cli
storlab.cli.prelude("S1")
print(time.perf_counter() - start)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    verdict: str
    exit: int

    @property
    def line(self) -> str:
        return "storlab " + " ".join(self.argv)


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    error: str | None


def load_spec() -> dict[str, Any]:
    with open(BENCH / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_digests() -> dict[str, str]:
    with open(BENCH / "digests.json", encoding="utf-8") as handle:
        return json.load(handle)


def commands_of(spec: dict[str, Any], workload: str, n_max: int | None = None) -> list[Command]:
    entry = spec["workloads"][workload]
    n = entry["n_max"] if n_max is None else n_max
    return [Command(tuple(c["argv"]) + ("--n-max", str(n)), c["verdict"], c["exit"])
            for c in entry["commands"]]


def import_storlab() -> Any:
    """Import storlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "storlab" / "__init__.py").is_file():
        raise BenchError(f"no storlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import storlab
    import storlab.cli  # noqa: F401  (loads every module the CLI uses)
    if Path(storlab.__file__).resolve().parent != (SRC / "storlab").resolve():
        raise BenchError(f"imported storlab from {storlab.__file__}, not {SRC}")
    return storlab


def pin_to_one_cpu() -> int | None:
    """Pin this process, and the children it starts from now on, to one CPU,
    so that the yardstick helper runs on the CPU whose speed it stands for.
    Unpinned, the scaled pass_s.p50 spread 7.8% over five runs, pinned 2.1%
    (noise_study in BENCH_seed.json)."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Yardstick:
    """reference.job() in a long-lived helper process, timed on request."""

    def __init__(self) -> None:
        self.helper = subprocess.Popen([sys.executable, str(BENCH / "reference.py")],
                                       cwd=ROOT, stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)

    def seconds(self) -> float:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        answer = self.helper.stdout.readline()
        if not answer:
            raise BenchError(f"reference helper ended with exit {self.helper.wait()}")
        return float(answer)

    def close(self) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()


def at_reference_speed(times: list[float], refs: list[float]) -> list[float]:
    """Scale times[j], taken between reference jobs refs[j] and refs[j + 1],
    to the host speed at which reference.job() takes REF_SECONDS."""
    return [t * REF_SECONDS * 2 / (a + b) for t, a, b in zip(times, refs, refs[1:])]


def setup_seconds() -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {done.stderr.strip()}")
    return float(done.stdout)


def measure_setup(yardstick: Yardstick, repeats: int) -> tuple[list[float], list[float]]:
    """Seconds to import storlab and build the prelude, each in a fresh
    interpreter between two reference jobs, raw and at reference speed."""
    setup_seconds()  # warms the file cache; not recorded
    raw: list[float] = []
    refs = [yardstick.seconds()]
    for _ in range(repeats):
        raw.append(setup_seconds())
        refs.append(yardstick.seconds())
    return raw, at_reference_speed(raw, refs)


def run_command(cli: Any, argv: tuple[str, ...]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a counted failure, never a verdict
            return Outcome(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return Outcome(rc, out.getvalue(), None)


def verdict_of(command: Command, stdout: str) -> str | None:
    if "--json" in command.argv:
        try:
            return json.loads(stdout).get("verdict")
        except (ValueError, AttributeError):
            return None
    last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith("verdict: "):
        return None
    return last[len("verdict: "):].split(" ")[0]


class Gate:
    """Checks every command against its known answer and seed digest."""

    def __init__(self, digests: dict[str, str] | None):
        self.digests = digests
        self.attempted = self.failed = self.verdicts_ok = self.stable = 0
        self.problems: list[str] = []
        self.inconsistent = False

    def flag(self, problem: str) -> None:
        """A measurement that contradicts itself; the run is not correct."""
        self.inconsistent = True
        self.problems.append(problem)

    def check(self, command: Command, outcome: Outcome) -> None:
        self.attempted += 1
        problem = None
        if outcome.error is not None or outcome.rc == FUEL_EXIT:
            self.failed += 1
            problem = outcome.error or "fuel exhausted (exit 2)"
        else:
            verdict = verdict_of(command, outcome.stdout)
            if verdict == command.verdict and outcome.rc == command.exit:
                self.verdicts_ok += 1
            else:
                problem = (f"verdict {verdict} exit {outcome.rc}, expected "
                           f"{command.verdict} exit {command.exit}")
        if self.digests is not None:
            digest = hashlib.sha256(outcome.stdout.encode("utf-8")).hexdigest()
            if digest == self.digests[command.line]:
                self.stable += 1
            elif problem is None:
                problem = "stdout differs from the seed digest"
        if problem is not None and len(self.problems) < 20:
            self.problems.append(f"{command.line}: {problem}")

    @property
    def correct(self) -> bool:
        stable = self.digests is None or self.stable == self.attempted
        return (self.attempted > 0 and self.failed == 0 and not self.inconsistent
                and self.verdicts_ok == self.attempted and stable)


def run_pass(cli: Any, commands: list[Command], rng: random.Random, gate: Gate,
             yardstick: Yardstick | None = None, refs: list[float] | None = None
             ) -> tuple[list[float], int]:
    """One pass in a seeded order; returns each command's seconds and the
    stdout bytes.  Given a yardstick, a reference job runs after every
    command and its time is appended to refs."""
    order = rng.sample(commands, len(commands))
    gc.collect()
    times: list[float] = []
    outcomes: list[Outcome] = []
    for command in order:
        start = time.perf_counter()
        outcomes.append(run_command(cli, command.argv))
        times.append(time.perf_counter() - start)
        if yardstick is not None:
            refs.append(yardstick.seconds())
    for command, outcome in zip(order, outcomes):
        gate.check(command, outcome)
    return times, sum(len(o.stdout.encode("utf-8")) for o in outcomes)


def timed_passes(cli: Any, commands: list[Command], rng: random.Random, gate: Gate,
                 yardstick: Yardstick, seconds: float, min_passes: int,
                 detail: dict[str, Any]) -> tuple[list[float], list[float]]:
    """An unrecorded warm-up pass, then passes until `seconds` have gone,
    with reference jobs between commands; pass times raw and at reference
    speed."""
    run_pass(cli, commands, rng, gate)
    refs = [yardstick.seconds()]
    passes: list[list[float]] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(run_pass(cli, commands, rng, gate, yardstick, refs)[0])
    flat = at_reference_speed([t for p in passes for t in p], refs)
    raw: list[float] = []
    scaled: list[float] = []
    for p in passes:
        raw.append(sum(p))
        scaled.append(sum(flat[:len(p)]))
        flat = flat[len(p):]
    detail.update({"command_s": passes, "reference_s": refs})
    return raw, scaled


def tail(times: list[float]) -> float:
    """The TAIL_PERCENTILE-th percentile, by nearest rank."""
    ordered = sorted(times)
    return ordered[math.ceil(len(ordered) * TAIL_PERCENTILE / 100) - 1]


def heap_pass(cli: Any, commands: list[Command], gate: Gate) -> tuple[int, int]:
    """One untimed pass under tracemalloc, the first the process runs, so
    that whatever storlab caches, interns or memoizes counts.  Returns the
    largest rise of the Python heap above its level at a command's start,
    over the commands, and the bytes still allocated after the pass.  The
    commands run in their listed order: one-time allocations fall to the
    first command, so a seeded order would make the figure vary by seed."""
    gc.collect()
    tracemalloc.start()
    try:
        rise = 0
        for command in commands:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            outcome = run_command(cli, command.argv)
            rise = max(rise, tracemalloc.get_traced_memory()[1] - base)
            gate.check(command, outcome)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return rise, kept


def peak_rss_kb() -> int:
    """This process's peak resident memory so far (kB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def end_to_end(storlab: Any, commands: list[Command], rng: random.Random, gate: Gate,
               yardstick: Yardstick, seconds: float, detail: dict[str, Any]
               ) -> tuple[dict[str, float], list[str]]:
    heap_rise, heap_kept = heap_pass(storlab.cli, commands, gate)
    raw_setups, setups = measure_setup(yardstick, SETUP_REPEATS)
    raw, times = timed_passes(storlab.cli, commands, rng, gate, yardstick, seconds,
                              MIN_PASSES, detail)
    attempted = gate.attempted
    values = {
        "setup_s": statistics.median(setups),
        "pass_s.p50": statistics.median(times),
        "pass_s.tail": tail(times),
        "peak_heap_mb": heap_rise / 2**20,
        "verdicts_ok": gate.verdicts_ok / attempted,
        "output_stable": gate.stable / attempted,
        "completed_ratio": 1 - gate.failed / attempted,
    }
    reference_s = statistics.median(detail["reference_s"])
    notes = [
        f"times at reference speed (reference job = {REF_SECONDS} s); the reference "
        f"job took a median {reference_s} s in this run",
        f"setup_s: median of {len(setups)} fresh interpreters; "
        f"raw wall time {statistics.median(raw_setups)} s",
        f"pass_s.p50: median of {len(times)} passes; raw wall time {statistics.median(raw)} s",
        f"pass_s.tail: p{TAIL_PERCENTILE} of {len(times)} passes; raw wall time {tail(raw)} s",
        f"peak_heap_mb: largest rise of the Python heap in one command of the first pass, "
        f"traced; {heap_kept / 2**20} MB "
        f"still allocated after it; peak resident memory of the process "
        f"{peak_rss_kb() / 1024} MB",
        f"failed_ratio: {gate.failed / attempted} ({gate.failed} of {attempted} commands)",
    ]
    detail.update({"median_reference_s": reference_s,
                   "raw_setup_s": statistics.median(raw_setups),
                   "raw_pass_s.p50": statistics.median(raw), "raw_pass_s.tail": tail(raw),
                   "heap_kept_mb": heap_kept / 2**20, "peak_rss_mb": peak_rss_kb() / 1024,
                   "setup_s": setups, "pass_s": times, "raw_pass_s": raw})
    return values, notes


def traced(storlab: Any, commands: list[Command], rng: random.Random, gate: Gate,
           yardstick: Yardstick, seconds: float, out_path: Path, detail: dict[str, Any]
           ) -> tuple[dict[str, float], list[str]]:
    """Untraced passes for half the time, then at most TRACED_PASSES traced
    passes; per-layer values are medians over the traced passes."""
    from layers import DETERMINISTIC, hooks, pass_metrics
    from tracer import Tracer

    start = time.perf_counter()
    untraced_detail: dict[str, Any] = {}
    untraced = timed_passes(storlab.cli, commands, rng, gate, yardstick, seconds / 2, 3,
                            untraced_detail)[0]
    tracer = Tracer(storlab, hooks(storlab))
    tracer.install()
    per_pass: list[dict[str, float]] = []
    try:
        while len(per_pass) < 2 or (len(per_pass) < TRACED_PASSES
                                    and time.perf_counter() - start < seconds):
            tracer.begin_pass(len(per_pass))
            first_span = len(tracer.span_fid)
            times, stdout_bytes = run_pass(storlab.cli, commands, rng, gate)
            pass_s = sum(times)
            spans = len(tracer.span_fid) - first_span
            per_pass.append(pass_metrics(tracer, storlab, stdout_bytes, pass_s, spans))
    finally:
        tracer.uninstall()
    tracer.write_spans(out_path, detail)

    notes = [f"{len(untraced)} untraced and {len(per_pass)} traced passes; "
             f"spans written to {out_path.relative_to(ROOT)}"]
    for i, values in enumerate(per_pass):
        layer_self = sum(v for k, v in values.items() if k.startswith("layer."))
        if layer_self > values["trace.pass_s"]:
            gate.flag(f"traced pass {i}: layer self times {layer_self} s "
                      f"exceed the pass, {values['trace.pass_s']} s")
    varying = [n for n in DETERMINISTIC if len({p[n] for p in per_pass}) > 1]
    if varying:
        notes.append("counters differ between passes (state kept between commands): "
                     + ", ".join(varying))
    metrics = {name: statistics.median_low(p[name] for p in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = metrics["trace.pass_s"] / statistics.median(untraced)
    metrics["host.reference_s"] = statistics.median(untraced_detail["reference_s"])
    detail.update({"raw_pass_s": untraced, "traced_passes": per_pass,
                   "spans": str(out_path.relative_to(ROOT))})
    return metrics, notes


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        if args.workload not in spec["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"known: {', '.join(spec['workloads'])}")
        storlab = import_storlab()
        commands = commands_of(spec, args.workload)
        digests = load_digests()
        missing = [c.line for c in commands if c.line not in digests]
        if missing:
            raise BenchError(f"no seed digest for: {'; '.join(missing)}")
        cpu = pin_to_one_cpu()
        gate = Gate(digests)
        rng = random.Random(args.seed)
        meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "n_max": spec["workloads"][args.workload]["n_max"], "cpu": cpu,
                "python": sys.version.split()[0], "trace": args.trace}
        detail = dict(meta)
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        yardstick = Yardstick()
        try:
            if args.trace:
                values, notes = traced(storlab, commands, rng, gate, yardstick, args.seconds,
                                       OUT / f"{stem}.spans.tsv.gz", detail)
                from layers import PER_LAYER
                units = dict(PER_LAYER)
            else:
                values, notes = end_to_end(storlab, commands, rng, gate, yardstick,
                                           args.seconds, detail)
                units = dict(END_TO_END)
        finally:
            yardstick.close()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    detail.update({"correct": gate.correct, "attempted": gate.attempted,
                   "failed": gate.failed, "problems": gate.problems, "metrics": values})
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print(json.dumps(meta, sort_keys=True))
    for command in commands:
        print(f"  {command.line}  -> {command.verdict}, exit {command.exit}")
    for note in notes + gate.problems:
        print(note)
    for name, value in values.items():
        print(f"{name:32} {value:<24} {units[name]}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
