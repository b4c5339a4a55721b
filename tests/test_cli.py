"""End-to-end command line behavior, driven through main() in process."""

import argparse
import contextlib
import gc
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from genterms import any_term, builtin_shaped, rng
from storlab import cli, prelude, syntax
from storlab.checker import OperatorSummary, check_operator, to_json
from storlab.cli import (
    EXIT_FUEL,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_REFUTED,
    EXIT_USAGE,
    CorpusReport,
    TermReport,
    main,
)
from storlab.reduction import FuelExhausted, Limits, Verdict, check_successor
from storlab.syntax import parse, pretty
from storlab.theorems import (
    verify_theorem1_instance,
    verify_theorem2_instance,
    verify_theorem3,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_pretty_prints(capsys):
    code, out, _ = run(capsys, "parse", "\\x. x")
    assert code == EXIT_PASS
    assert out == "\\x. x\n"


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "#3", "--json")
    assert code == EXIT_PASS
    assert json.loads(out) == {"term": "#3"}


def test_reduce_and_normalize(capsys):
    code, out, _ = run(capsys, "reduce", "(\\s. s) p")
    assert (code, out) == (EXIT_PASS, "p\n")
    code, out, _ = run(capsys, "normalize", "S1 #2")
    assert (code, out) == (EXIT_PASS, "#3\n")


def test_normalize_fuel_exhaustion(capsys):
    code, out, _ = run(capsys, "normalize", "(\\x. x x) (\\x. x x)",
                       "--norm-fuel", "40")
    assert code == EXIT_FUEL
    assert "fuel exhausted after 40 steps" in out


def test_check_successor(capsys):
    code, out, _ = run(capsys, "check-successor", "S2")
    assert code == EXIT_PASS
    assert "k=10" in out
    code, out, _ = run(capsys, "check-successor", "I")
    assert code == EXIT_REFUTED
    assert "k=0: FAILED" in out


def test_check_storage_pass(capsys):
    code, out, _ = run(capsys, "check-storage", "T1", "--n-max", "3")
    assert code == EXIT_PASS
    assert "AllPass" in out


def test_check_storage_refutation(capsys):
    code, out, _ = run(capsys, "check-storage", "T3", "--succ", "S2",
                       "--n-max", "3")
    assert code == EXIT_REFUTED
    assert "TauNotClosed" in out


def test_check_s_storage_pass(capsys):
    code, out, _ = run(capsys, "check-s-storage", "T3", "--succ", "S2",
                       "--n-max", "3")
    assert code == EXIT_PASS


def test_check_s_storage_fuel(capsys):
    code, out, _ = run(capsys, "check-s-storage", "T2", "--succ", "S2",
                       "--n-max", "3", "--head-fuel", "5")
    assert code == EXIT_FUEL
    assert "FuelExhausted" in out


def test_trace_rendering(capsys):
    code, out, _ = run(capsys, "check-storage", "T1", "--n-max", "1", "--trace")
    assert code == EXIT_PASS
    assert "≻(" in out
    assert "—" in out


def test_check_storage_json_stability(capsys):
    argv = ("check-storage", "T2", "--n-max", "2", "--json")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == EXIT_PASS
    json.loads(first[1])


def test_theorem_commands(capsys):
    assert run(capsys, "theorem1", "T1", "--succ", "S2", "--n-max", "2")[0] == EXIT_PASS
    assert run(capsys, "theorem2", "T2", "--n-max", "2")[0] == EXIT_PASS
    code, out, _ = run(capsys, "theorem3", "--n-max", "2", "--json")
    assert code == EXIT_PASS
    assert json.loads(out)["verdict"] == "Pass"


def test_corpus_runs_clean(capsys):
    code, out, _ = run(capsys, "corpus", "--n-max", "2")
    assert code == EXIT_PASS
    assert "successor" in out


def test_corpus_fuel_starvation(capsys):
    code, out, _ = run(capsys, "corpus", "--n-max", "2", "--head-fuel", "10")
    assert code == EXIT_FUEL
    assert "DEVIATION" not in out


@pytest.mark.parametrize("argv, last", [
    (("theorem2", "T1", "--n-max", "64"), "verdict: Pass"),
    (("corpus", "--n-max", "32"), "corpus: Pass"),
])
def test_theorems_hold_at_larger_n(capsys, argv, last):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_PASS
    assert out.splitlines()[-1] == last


def test_corpus_runs_each_sweep_once(capsys, monkeypatch):
    import storlab.checker as checker

    original, runs = checker.run_check, []

    def counting(*args, **kwargs):
        runs.append(args)
        return original(*args, **kwargs)

    # every sweep, the theorems' included, runs its levels through checker.run_check
    monkeypatch.setattr(checker, "run_check", counting)
    assert run(capsys, "corpus", "--n-max", "2")[0] == EXIT_PASS
    # theorem 2 on T1, T2, T3 and theorem 3 run two sweeps each, the
    # s-storage rows with S2 one each; theorem 3 repeats T3's lower sweep
    assert len(runs) == 10 * 3


def test_defs_flow(capsys, tmp_path):
    path = tmp_path / "ops.defs"
    path.write_text("def T4 = \\n f. n F f #0;\n")
    code, _, _ = run(capsys, "check-storage", "T4", "--defs", str(path),
                     "--n-max", "2")
    assert code == EXIT_PASS
    # defs see the rebound successor: T4 built on F must still verify under S2
    code, _, _ = run(capsys, "check-s-storage", "T4", "--succ", "S2",
                     "--defs", str(path), "--n-max", "2")
    assert code == EXIT_PASS


@pytest.mark.parametrize("argv, builds", [
    (["parse", "T1"], 1),
    (["parse", "T1", "--succ", "S1"], 1),
    (["parse", "T1", "--succ", "S2"], 2),
    (["parse", "T1", "--succ", "\\n f x. f (n f x)"], 2),
])
def test_prelude_is_rebuilt_only_for_another_successor(capsys, monkeypatch, argv, builds):
    successors = []

    def counting(successor="S1"):
        successors.append(successor)
        return prelude(successor)

    monkeypatch.setattr(cli, "prelude", counting)
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_PASS and len(successors) == builds
    # T1 is built around S2 only when S2 is asked for
    assert ("n f (f x)" in out) == ("S2" in argv)


@pytest.mark.parametrize("succ", ["S2", "S"])
def test_prelude_is_rebuilt_when_defs_rebind_s(capsys, tmp_path, succ):
    # the defs file makes env["S"] the S2 term, but the prelude was built on S1
    path = tmp_path / "s2.defs"
    path.write_text("def S = S2;\n")
    code, out, _ = run(capsys, "parse", "T2", "--defs", str(path), "--succ", succ)
    assert code == EXIT_PASS
    assert "n f (f x)" in out and "f (n f x)" not in out


def test_unbound_name_is_usage_error(capsys):
    code, _, err = run(capsys, "check-storage", "T9")
    assert code == EXIT_USAGE
    assert "T9" in err


def test_parse_error_is_usage_error(capsys):
    code, _, err = run(capsys, "parse", "(p")
    assert code == EXIT_USAGE
    assert "parse error" in err


def test_zero_fuel_is_usage_error(capsys):
    for flag in ("--head-fuel", "--macro-fuel", "--norm-fuel"):
        code, out, err = run(capsys, "check-storage", "T1", flag, "0")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"storlab: {flag[2:].replace('-', '_')} must be at least 1\n"


@pytest.mark.parametrize("source", ["x[" + "7" * 5000 + "]", "#" + "7" * 5000])
def test_overlong_number_is_a_parse_error(capsys, source):
    # int() refuses more than 4300 digits; the parser reports where
    code, out, err = run(capsys, "parse", source)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("storlab: parse error: number too long: 5000 digits")


def test_numeral_above_the_bound_is_a_parse_error(capsys, monkeypatch):
    # refused before a node is built: #100000000 would take about 5.6 GB
    built = []
    monkeypatch.setattr(syntax, "mk_church", built.append)
    code, out, err = run(capsys, "parse", "#100000000")
    assert (code, out, built) == (EXIT_USAGE, "", [])
    assert err == ("storlab: parse error: numeral literal above the bound #1000000"
                   " (line 1, column 1)\n")
    assert "100000000" not in err


def test_defs_file_not_utf8_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.defs"
    path.write_bytes("def A = \\x. x;\n# café\n".encode("latin-1"))
    code, out, err = run(capsys, "parse", "A", "--defs", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("storlab: cannot read defs file: 'utf-8' codec can't decode")


def test_unknown_subcommand_exits_3(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == EXIT_USAGE


def test_bad_flag_exits_3(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check-storage", "T1", "--does-not-exist"])
    assert info.value.code == EXIT_USAGE


def test_open_successor_rejected(capsys):
    code, _, err = run(capsys, "check-s-storage", "T1", "--succ", "\\n. n p")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, err", [
    (["check-storage", "\\n f. f x[0]"],
     "storlab: operator '\\\\n f. f x[0]' contains symbolic constants\n"),
    (["check-s-storage", "T1", "--succ", "x[0]"],
     "storlab: successor 'x[0]' contains symbolic constants\n"),
])
def test_closed_term_with_a_constant_rejected(capsys, argv, err):
    assert run(capsys, *argv) == (EXIT_USAGE, "", err)


def test_non_numeric_bound_exits_3(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check-storage", "T1", "--n-max", "abc"])
    assert info.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --n-max: must be a non-negative integer, got 'abc'" in captured.err


def test_literal_successor_accepted(capsys):
    code, _, _ = run(capsys, "check-s-storage", "T1", "--succ",
                     "\\n f x. f (n f x)", "--n-max", "2")
    assert code == EXIT_PASS


@pytest.mark.parametrize("argv", [
    ["check-storage", "T1", "--n-max", "-1"],
    ["theorem2", "T1", "--n-max", "-1"],
    ["check-successor", "S1", "--k-max", "-1"],
    ["theorem3", "--n-max", "-1"],
    ["corpus", "--n-max", "-1"],
])
def test_negative_bound_exits_3(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a non-negative integer" in captured.err


@pytest.mark.parametrize("flag, command", [("--n-max", "check-storage"),
                                           ("--k-max", "check-successor")])
def test_overlong_bound_exits_3_without_its_digits(capsys, flag, command):
    # int() refuses more than 4300 digits; the bound is reported by its length
    with pytest.raises(SystemExit) as info:
        main([command, "S1", flag, "9" * 5000])
    assert info.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: number too long: 5000 digits" in captured.err
    assert "9" * 50 not in captured.err


# Flags every subcommand used to accept and ignore; each is now rejected.
_IGNORED_BEFORE = {
    ("parse", "T1"): ["--n-max", "--head-fuel", "--macro-fuel", "--norm-fuel", "--trace"],
    ("reduce", "T1"): ["--n-max", "--macro-fuel", "--norm-fuel", "--trace"],
    ("normalize", "T1"): ["--n-max", "--head-fuel", "--macro-fuel", "--trace"],
    ("check-successor", "S1"): ["--n-max", "--head-fuel", "--macro-fuel", "--trace"],
    ("theorem1", "T1"): ["--trace"],
    ("theorem2", "T1"): ["--trace"],
    ("theorem3",): ["--succ", "--defs", "--trace"],
    ("corpus",): ["--succ", "--defs", "--trace"],
}
_FLAG_VALUE = {"--n-max": ["1"], "--head-fuel": ["5"], "--macro-fuel": ["5"],
               "--norm-fuel": ["5"], "--succ": ["S1"], "--defs": ["/nonexistent"],
               "--trace": []}


@pytest.mark.parametrize("argv", [
    [*command, flag, *_FLAG_VALUE[flag]]
    for command, flags in _IGNORED_BEFORE.items() for flag in flags
], ids=" ".join)
def test_unread_flag_exits_3(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""


def readme_flag_table():
    """README's Subcommand/Flags table, each row's "the `x` flags" and
    "except" spelled out: subcommand -> the flags it accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = readme.split("| Subcommand | Flags |\n", 1)[1].split("\n\n", 1)[0]
    table = {}
    for commands, flags in re.findall(r"^\| (.*?) \| (.*?) \|$", rows, re.M):
        taken, _, dropped = flags.partition(" except ")
        base = re.search(r"the `([a-z0-9-]+)` flags", taken)
        accepted = set(table[base.group(1)]) if base else set()
        accepted |= set(re.findall(r"`(--[a-z-]+)`", taken))
        accepted -= set(re.findall(r"`(--[a-z-]+)`", dropped))
        for command in re.findall(r"`([a-z0-9-]+)`", commands):
            table[command] = accepted
    return table


def usage(capsys, *argv):
    """The usage block that `--help` prints first, the parser's format_usage()."""
    with pytest.raises(SystemExit) as info:
        main([*argv, "--help"])
    assert info.value.code == 0
    return capsys.readouterr().out.split("\n\n", 1)[0]


def test_usage_lists_the_readme_flags_in_flag_order(capsys):
    commands = re.search(r"\{([a-z0-9,-]+)\}", usage(capsys)).group(1).split(",")
    table = readme_flag_table()
    assert sorted(table) == sorted(commands)
    for command in commands:
        shown = re.findall(r"\[(--[a-z-]+)", usage(capsys, command))
        assert shown == [flag for flag in cli._FLAGS if flag in table[command]], command


def test_main_builds_no_parser(capsys, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "parse", "T1")[0] == EXIT_PASS
    assert run(capsys, "check-storage", "T1", "--n-max", "1")[0] == EXIT_PASS
    assert built == []


def test_calls_share_no_flag_values(capsys, tmp_path):
    ops = tmp_path / "ops.defs"
    ops.write_text("def T4 = \\n f. n F f #0;\n")
    code, out, _ = run(capsys, "parse", "T4", "--defs", str(ops))
    assert code == EXIT_PASS and out != "T4\n"
    # without --defs, T4 is a free name again
    assert run(capsys, "parse", "T4") == (EXIT_PASS, "T4\n", "")
    families = []
    for command in ("check-storage", "check-s-storage", "check-storage"):
        _, out, _ = run(capsys, command, "T1", "--n-max", "0", "--json")
        families.append(json.loads(out)["family"])
    assert families == ["x", "X", "x"]


def test_recursion_limit_is_an_internal_error(capsys, monkeypatch):
    def too_deep(args, limits):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_normalize", too_deep)
    code, out, err = run(capsys, "normalize", "S1 #1500")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("storlab: internal error: RecursionError: ")


def test_deep_numeral_normalizes(capsys):
    # substitution walks with an explicit stack, so depth is no limit
    code, out, err = run(capsys, "normalize", "S1 #1500")
    assert (code, out, err) == (EXIT_PASS, "#1501\n", "")


@pytest.mark.parametrize("json_flag, expected", [
    ([], "fuel exhausted after 7 steps: p q\n"),
    (["--json"], '{\n  "verdict": "FuelExhausted",\n  "stage": "Norm",\n'
                 '  "beta_steps": 7,\n  "partial": "p q"\n}\n'),
])
def test_fuel_from_any_command_is_reported_as_fuel(capsys, monkeypatch, json_flag, expected):
    # a FuelExhausted that escapes a command is its result, never a crash
    def starved(n_max, limits):
        raise FuelExhausted("Norm", parse("p q"), 7)

    monkeypatch.setattr(cli, "verify_theorem3", starved)
    code, out, err = run(capsys, "theorem3", "--n-max", "1", *json_flag)
    assert (code, out, err) == (EXIT_FUEL, expected, "")


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(args, limits):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_parse", broken)
    code, out, err = run(capsys, "parse", "T1")
    assert (code, out, err) == (EXIT_INTERNAL, "", "storlab: internal error: RuntimeError: boom\n")


def test_value_error_inside_a_command_is_an_internal_error(capsys, monkeypatch):
    # only a UsageError or a ParseError reads as bad usage
    def broken(args, limits):
        raise ValueError("checker bug")

    monkeypatch.setattr(cli, "cmd_parse", broken)
    code, out, err = run(capsys, "parse", "T1")
    assert (code, out, err) == (EXIT_INTERNAL, "",
                                "storlab: internal error: ValueError: checker bug\n")


class ClosingStdout(io.StringIO):
    """A stdout whose reader goes away after the first write."""

    writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("argv", [["check-storage", "T1", "--n-max", "3"],
                                  ["corpus", "--n-max", "1", "--json"]])
def test_closed_output_is_no_report_and_no_crash(argv):
    out, err = ClosingStdout(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_INTERNAL
    assert err.getvalue() == "storlab: output closed before the report was written\n"


@pytest.mark.parametrize("argv, lines_read", [
    # long trace lines, and short text lines, each more than a pipe holds
    (["check-storage", "T1", "--n-max", "60", "--trace"], 1),
    (["check-storage", "T1", "--n-max", "200"], 1),
    # a report small enough to sit in stdout's buffer until the end
    (["corpus", "--n-max", "2", "--json"], 0),
])
def test_closed_pipe_exits_4_with_one_line(argv, lines_read):
    # the reader of a real pipe stops after lines_read lines
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "storlab.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        for _ in range(lines_read):
            assert proc.stdout.readline().endswith(b"\n")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == EXIT_INTERNAL
    assert err == b"storlab: output closed before the report was written\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    # every command pays for its imports before its first beta-step; -S keeps
    # site's own imports out of the count
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = "import sys, storlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


# -- JSON is written a piece at a time, text a level at a time --


def report_cases(trace=False):
    """One report of every type, the summaries with and without a successor
    and both lazy and built on runs already made, with trace or without."""
    env, env2 = prelude(), prelude("S2")
    return [
        check_operator(env["T1"], 2, trace=trace),
        check_operator(env2["T3"], 2, trace=trace),
        check_operator(env["T2"], 2, env["S1"], trace=trace),
        OperatorSummary(list(check_operator(env2["T1"], 1, env2["S2"])), trace),
        verify_theorem1_instance(env2["T2"], env2["S2"], 1),
        verify_theorem2_instance(env["T1"], 1),
        verify_theorem3(1),
        CorpusReport(1, (("successor S1", Verdict.PASS, Verdict.PASS),
                         ("theorem3", Verdict.PASS, Verdict.FUEL))),
        check_successor(env["S1"], 2),
        TermReport(parse("\\x. x")),
        TermReport(env["T1"], beta_steps=3),
        FuelExhausted("Head", parse("p q"), 7),
    ]


def emitted(report):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli._emit(report, argparse.Namespace(json=True))
    assert code == cli._exit_code(report.verdict)
    return out.getvalue()


@pytest.mark.parametrize("trace", [False, True])
def test_streamed_json_is_the_whole_document(trace):
    # to_json is storlab's own writer, so the stdlib's encoder checks both;
    # a summary is read once, so each encoding gets reports of its own
    for report, again, once_more in zip(*(report_cases(trace) for _ in range(3))):
        streamed = emitted(report)
        assert streamed == to_json(again.to_dict()) + "\n", report
        assert streamed == json.dumps(once_more.to_dict(), indent=2, default=list) + "\n", report
    for payload in ({}, {"a": []}, {"a": {}, "b": [1, {"c": [2, []]}, "d"], "e": None}):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_json(payload)
        assert out.getvalue() == to_json(payload) + "\n"
        assert out.getvalue() == json.dumps(payload, indent=2, default=list) + "\n"


def test_report_members_take_no_argument():
    """A command's report is printed as it is: whether runs show their macro
    steps is chosen where the summary is built, so to_dict and lines of the
    protocol and of every command report type take no parameter but self."""
    for kind in {type(report) for report in report_cases()} | {cli.Report}:
        for member in (kind.to_dict, kind.lines):
            assert list(inspect.signature(member).parameters) == ["self"], member


def test_json_trace_heap_stays_near_its_output():
    argv = ["check-storage", "T1", "--json", "--trace", "--n-max"]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv + ["1"])  # one-time allocations fall outside the measure
    out = io.StringIO()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(out):
            assert main(argv + ["30"]) == EXIT_PASS
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 4.2 times the output while every run's dict and the encoder's chunks
    # of the whole document were alive at once
    assert peak <= 2.5 * len(out.getvalue().encode())


def traced_peak(argv):
    """The traced heap's peak rise while main(argv) runs, its output discarded."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_PASS
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["check-storage T1", "theorem1 T1 --succ S2",
                                     "theorem2 T1", "theorem3"],
                         ids=["check-storage", "theorem1", "theorem2", "theorem3"])
def test_text_sweep_heap_grows_linearly(command):
    argv = command.split() + ["--n-max"]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv + ["1"])  # one-time allocations fall outside the measure
    peak30, peak60 = traced_peak(argv + ["30"]), traced_peak(argv + ["60"])
    # a run at level n holds O(n) nodes: one run at a time doubles the peak
    # when n doubles, and every run kept to the end made it 3.7 to 4 times
    assert peak60 <= 2.5 * peak30


_SWEEP_OPERATORS = ("shaped", "T1", "T2", "T3", r"\n f. f #0")


def sweep(operator, seed, successor, n_max, limits):
    env = prelude("S2")
    term = builtin_shaped(rng(seed))[0] if operator == "shaped" else env.get(operator)
    if term is None:
        term = parse(operator)
    return check_operator(term, n_max, env.get(successor), limits)


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(st.sampled_from(_SWEEP_OPERATORS), st.integers(0, 2**32 - 1),
           st.sampled_from((None, "S1", "S2")), st.integers(0, 3),
           st.builds(Limits, st.sampled_from((2, 50, 10_000)), st.sampled_from((2, 30)),
                     st.sampled_from((5, 10_000))))
@hyp.example(r"\n f. f #0", 0, None, 3, Limits())
@hyp.example("T1", 0, None, 3, Limits(head_fuel=2))
def test_text_verdict_agrees_with_json(operator, seed, successor, n_max, limits):
    """lines() streams its runs and folds their verdicts; the tail line and
    the exit code must be those of to_dict() on a fresh summary."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli._emit(sweep(operator, seed, successor, n_max, limits),
                         argparse.Namespace(json=False))
    tail = re.fullmatch(r"verdict: (\w+)(?: \(n=(\d+)\))?", out.getvalue().splitlines()[-1])
    fresh = sweep(operator, seed, successor, n_max, limits).to_dict()
    at = None if tail[2] is None else int(tail[2])
    assert (tail[1], at, code) == (fresh["verdict"], fresh.get("at"),
                                   cli._exit_code(fresh["verdict"]))


def test_text_sweep_reaches_every_verdict():
    # the property above is not vacuous: its fixed cases fail at a level and starve
    verdicts = {sweep(r"\n f. f #0", 0, None, 3, Limits()).verdict,
                sweep("T1", 0, None, 3, Limits(head_fuel=2)).verdict,
                sweep("T1", 0, "S2", 3, Limits()).verdict}
    assert verdicts == {Verdict.FIRST_FAILURE, Verdict.FUEL, Verdict.ALL_PASS}


def test_streamed_summary_keeps_only_its_verdict():
    """After any read, to_dict and lines() raise, so neither writes part of
    a sweep, while the verdict and at still answer."""
    first_reads = (lambda s: list(s.lines()), lambda s: s.to_dict(), list,
                   lambda s: next(iter(s)), lambda s: s.verdict, lambda s: s.at)
    for first_read in first_reads:
        summary = check_operator(parse(r"\n f. f #0"), 3)
        first_read(summary)
        for read in (summary.to_dict, lambda: next(summary.lines())):
            with pytest.raises(RuntimeError, match="runs were read already"):
                read()
        assert (summary.verdict, summary.at) == (Verdict.FIRST_FAILURE, 1)
        assert list(summary) == []
    assert not hasattr(summary, "__dict__")


def test_text_prints_each_level_as_its_run_returns(monkeypatch):
    import storlab.checker as checker

    original, out, printed = checker.run_check, io.StringIO(), {}

    def watching(term, n, *args, **kwargs):
        printed[n] = out.getvalue()
        if n == 2:
            raise RuntimeError("boom")
        return original(term, n, *args, **kwargs)

    monkeypatch.setattr(checker, "run_check", watching)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["check-storage", "T1", "--n-max", "3"])
    assert printed[1] == "n=0: Success  tau = #0\n"
    # an internal error after some levels leaves their lines, but no verdict
    assert (code, err.getvalue()) == (EXIT_INTERNAL, "storlab: internal error: RuntimeError: boom\n")
    assert out.getvalue() == printed[2]
    assert out.getvalue().splitlines()[1].startswith("n=1: Success")


# -- every command line ends in one of the five documented exit codes --

_COMMANDS = ("parse", "reduce", "normalize", "check-successor", "check-storage",
             "check-s-storage", "theorem1", "theorem2", "theorem3", "corpus")
_NAMES = ("I", "S1", "S2", "G", "d0", "T1", "F", "T2", "a3", "b3", "T3", "p")
_NOISE = "\\.()#xX[];, pqst0123"


def cli_case(seed):
    """A command line: a generated, builtin or garbled term, small fuels,
    bounds from -1 to 3, and optional --succ, --json and --trace."""
    r = rng(seed)
    roll = r.random()
    if roll < 0.5:
        source = pretty(any_term(r, 4))
    elif roll < 0.8:
        source = r.choice(_NAMES)
    else:
        source = "".join(r.choice(_NOISE) for _ in range(r.randint(0, 12)))

    def fuel():
        return str(r.randint(0, 30))

    command = r.choice(_COMMANDS)
    argv = [command]
    if command not in ("theorem3", "corpus"):
        argv.append(source)
    if command == "reduce":
        argv += ["--head-fuel", fuel()]
    elif command in ("normalize", "check-successor"):
        argv += ["--norm-fuel", fuel()]
    elif command != "parse":
        argv += ["--head-fuel", fuel(), "--macro-fuel", fuel(), "--norm-fuel", fuel()]
    if command == "check-successor":
        argv += ["--k-max", str(r.randint(-1, 3))]
    elif command not in ("parse", "reduce", "normalize"):
        argv += ["--n-max", str(r.randint(-1, 3))]
    if command in ("check-s-storage", "theorem1", "theorem2") and r.random() < 0.5:
        argv += ["--succ", r.choice(("S1", "S2", source))]
    if command in ("check-storage", "check-s-storage") and r.random() < 0.3:
        argv.append("--trace")
    if r.random() < 0.3:
        argv.append("--json")
    return argv


def exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(st.integers(0, 2**32 - 1))
def test_exit_code_is_always_documented(seed):
    argv = cli_case(seed)
    assert exit_code(argv) in (0, 1, 2, 3, 4), argv


def test_every_verdict_maps_to_its_documented_exit_code():
    # the module docstring's codes: 0 the property holds, 1 it was refuted,
    # 2 fuel ran out; a command's verdict is never an input or internal error
    documented = {
        Verdict.SUCCESS: EXIT_REFUTED, Verdict.FAIL: EXIT_REFUTED, Verdict.FUEL: EXIT_FUEL,
        Verdict.ALL_PASS: EXIT_PASS, Verdict.FIRST_FAILURE: EXIT_REFUTED,
        Verdict.PASS: EXIT_PASS, Verdict.REFUTED: EXIT_REFUTED,
        Verdict.VACUOUS: EXIT_REFUTED, Verdict.UNKNOWN: EXIT_REFUTED,
    }
    assert set(documented) == set(Verdict)
    assert {verdict: cli._exit_code(verdict) for verdict in Verdict} == documented
    assert (EXIT_PASS, EXIT_REFUTED, EXIT_FUEL, EXIT_USAGE, EXIT_INTERNAL) == (0, 1, 2, 3, 4)


def test_generated_command_lines_reach_every_outcome():
    # the property above is not vacuous: its generator reaches pass,
    # refutation, fuel exhaustion and usage errors
    codes = {exit_code(cli_case(seed)) for seed in range(120)}
    assert {0, 1, 2, 3} <= codes
