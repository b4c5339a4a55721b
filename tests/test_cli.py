"""End-to-end command line behavior, driven through main() in process."""

import json

import pytest

from storlab.checker import EXIT_FUEL, EXIT_PASS, EXIT_REFUTED
from storlab.cli import EXIT_USAGE, main


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


def test_unbound_name_is_usage_error(capsys):
    code, _, err = run(capsys, "check-storage", "T9")
    assert code == EXIT_USAGE
    assert "T9" in err


def test_parse_error_is_usage_error(capsys):
    code, _, err = run(capsys, "parse", "(p")
    assert code == EXIT_USAGE
    assert "parse error" in err


def test_zero_fuel_is_usage_error(capsys):
    code, _, err = run(capsys, "check-storage", "T1", "--head-fuel", "0")
    assert code == EXIT_USAGE


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
