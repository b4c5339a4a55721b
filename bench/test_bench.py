"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest bench/test_bench.py

Each workload runs twice at a small --n-max, traced, in two different
command orders, and the deterministic counters must come out identical.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
from layers import DETERMINISTIC, PER_LAYER, hooks, pass_metrics  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

SMALL_N_MAX = 3
SPEC = run.load_spec()
STORLAB = run.import_storlab()


def traced_pass(workload: str, seed: int) -> dict[str, float]:
    commands = run.commands_of(SPEC, workload, SMALL_N_MAX)
    gate = run.Gate(None)
    tracer = Tracer(STORLAB, hooks(STORLAB))
    tracer.install()
    try:
        tracer.begin_pass(0)
        times, stdout_bytes = run.run_pass(STORLAB.cli, commands, random.Random(seed), gate)
        values = pass_metrics(tracer, STORLAB, stdout_bytes, sum(times), len(tracer.span_fid))
    finally:
        tracer.uninstall()
    assert gate.correct, gate.problems
    return values


@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_counters_repeat_across_runs_and_orders(workload):
    first = traced_pass(workload, seed=1)
    second = traced_pass(workload, seed=2)
    for name in DETERMINISTIC:
        assert first[name] == second[name], name
    assert first["reduction.beta_steps"] > 0
    assert first["checker.macro_steps"] > 0
    assert first["checker.peak_term_nodes"] >= first["checker.peak_dag_nodes"] > 0
    layer_self = sum(first[f"layer.{m}.self_s"] for m in MODULES)
    assert layer_self <= first["trace.pass_s"]
    assert set(first) | {"trace.overhead_ratio", "host.reference_s"} == {
        name for name, _ in PER_LAYER}


def test_corpus_repeats_run_checks():
    values = traced_pass("corpus", seed=1)
    assert values["checker.run_check.repeat_ratio"] > 0
    assert traced_pass("storage-battery", seed=1)["checker.run_check.repeat_ratio"] == 0


def test_tracer_restores_every_namespace():
    before = {(m, name): obj for m in MODULES
              for name, obj in vars(getattr(STORLAB, m)).items() if callable(obj)}
    traced_pass("trace-json", seed=3)
    after = {(m, name): obj for m in MODULES
             for name, obj in vars(getattr(STORLAB, m)).items() if callable(obj)}
    assert before == after


def test_gate_counts_crashes_and_fuel_as_failures():
    command = run.Command(("check-storage", "T1", "--n-max", "1"), "AllPass", 0)
    ok = run.run_command(STORLAB.cli, command.argv)
    digest = hashlib.sha256(ok.stdout.encode()).hexdigest()
    gate = run.Gate({command.line: digest})
    gate.check(command, ok)
    assert gate.correct
    gate.check(command, run.Outcome(None, "", "RecursionError: too deep"))
    gate.check(command, run.Outcome(2, ok.stdout, None))
    gate.check(command, run.Outcome(1, ok.stdout, None))
    gate.check(command, run.Outcome(0, ok.stdout + "\n", None))
    assert (gate.attempted, gate.failed, gate.verdicts_ok, gate.stable) == (5, 2, 2, 3)
    assert not gate.correct


def test_benchmark_json_matches_the_code():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(SPEC["workloads"])
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    digests = run.load_digests()
    for workload in SPEC["workloads"]:
        for command in run.commands_of(SPEC, workload):
            assert command.line in digests


def test_reference_job_is_fixed_work():
    assert reference.job() == reference.job() > 0


def test_yardstick_helper_answers_and_ends():
    yardstick = run.Yardstick()
    try:
        assert yardstick.seconds() > 0
    finally:
        yardstick.close()
    assert yardstick.helper.returncode == 0


def test_heap_pass_traces_one_pass_only():
    commands = run.commands_of(SPEC, "corpus", SMALL_N_MAX)
    gate = run.Gate(None)
    peak, kept = run.heap_pass(STORLAB.cli, commands, gate)
    assert peak > 0 and kept > 0
    assert gate.correct and gate.attempted == len(commands)
    assert not tracemalloc.is_tracing()


def test_tail_is_a_fixed_percentile():
    assert run.tail([float(i) for i in range(1, 41)]) == 30.0
    assert run.tail([float(i) for i in range(1, 81)]) == 60.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
