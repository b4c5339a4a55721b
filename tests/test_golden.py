"""Golden outputs: stdout bytes and exit code of every subcommand.

Each case runs `storlab.cli.main` in process and compares what it printed,
byte for byte, with `golden/<name>.out`, and its exit code with the one
recorded in `golden/exit_codes.json`.  A deliberate output change
regenerates the files with

    PYTHONPATH=src python3 tests/test_golden.py

and the diff of `tests/golden/` then shows exactly what changed.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from storlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
OMEGA = "(\\x. x x) (\\x. x x)"

CASES = {
    "parse": ["parse", "T1"],
    "parse_json": ["parse", "T1", "--json"],
    "reduce": ["reduce", "T1 #2 f"],
    "reduce_json": ["reduce", "T1 #2 f", "--json"],
    "reduce_fuel": ["reduce", OMEGA, "--head-fuel", "5"],
    "reduce_fuel_json": ["reduce", OMEGA, "--head-fuel", "5", "--json"],
    "normalize": ["normalize", "S2 #2"],
    "normalize_json": ["normalize", "S2 #2", "--json"],
    "normalize_fuel": ["normalize", "S1 #3", "--norm-fuel", "2"],
    "normalize_fuel_json": ["normalize", "S1 #3", "--norm-fuel", "2", "--json"],
    "check_successor": ["check-successor", "S1", "--k-max", "3"],
    "check_successor_json": ["check-successor", "S1", "--k-max", "3", "--json"],
    "check_successor_refuted": ["check-successor", "I", "--k-max", "2"],
    "check_successor_refuted_json": ["check-successor", "I", "--k-max", "2", "--json"],
    "check_successor_fuel": ["check-successor", "S1", "--k-max", "2", "--norm-fuel", "2"],
    "check_successor_fuel_json": ["check-successor", "S1", "--k-max", "2",
                                  "--norm-fuel", "2", "--json"],
    "check_storage": ["check-storage", "T1", "--n-max", "3"],
    "check_storage_trace": ["check-storage", "T1", "--n-max", "1", "--trace"],
    "check_storage_json": ["check-storage", "T1", "--n-max", "3", "--json"],
    "check_storage_json_trace": ["check-storage", "T1", "--n-max", "2", "--json", "--trace"],
    "check_storage_t3": ["check-storage", "T3", "--succ", "S2", "--n-max", "2"],
    "check_storage_t3_trace": ["check-storage", "T3", "--succ", "S2", "--n-max", "1",
                               "--trace"],
    "check_storage_t3_json": ["check-storage", "T3", "--succ", "S2", "--n-max", "2",
                              "--json"],
    "check_storage_t3_json_trace": ["check-storage", "T3", "--succ", "S2", "--n-max", "2",
                                    "--json", "--trace"],
    "check_s_storage": ["check-s-storage", "T3", "--succ", "S2", "--n-max", "2"],
    "check_s_storage_json": ["check-s-storage", "T3", "--succ", "S2", "--n-max", "2",
                             "--json"],
    "check_s_storage_fuel": ["check-s-storage", "T2", "--succ", "S2", "--n-max", "3",
                             "--head-fuel", "5"],
    "check_s_storage_fuel_json": ["check-s-storage", "T2", "--succ", "S2", "--n-max", "3",
                                  "--head-fuel", "5", "--json"],
    "theorem1": ["theorem1", "T1", "--succ", "S2", "--n-max", "2"],
    "theorem1_json": ["theorem1", "T1", "--succ", "S2", "--n-max", "2", "--json"],
    "theorem2_t1": ["theorem2", "T1", "--n-max", "2"],
    "theorem2_t1_json": ["theorem2", "T1", "--n-max", "2", "--json"],
    "theorem2_t3": ["theorem2", "T3", "--n-max", "2"],
    "theorem2_t3_json": ["theorem2", "T3", "--n-max", "2", "--json"],
    "theorem3": ["theorem3", "--n-max", "3"],
    "theorem3_json": ["theorem3", "--n-max", "3", "--json"],
    "corpus": ["corpus", "--n-max", "2"],
    "corpus_json": ["corpus", "--n-max", "2", "--json"],
    "corpus_fuel": ["corpus", "--n-max", "2", "--head-fuel", "10"],
    "corpus_fuel_json": ["corpus", "--n-max", "2", "--head-fuel", "10", "--json"],
}


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, exit_codes):
    code, out = run_case(CASES[name])
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    assert code == exit_codes[name]


def test_every_golden_file_has_a_case(exit_codes):
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(CASES) == set(exit_codes)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.glob("*.out"):
        path.unlink()
    codes = {}
    for name in sorted(CASES):
        codes[name], out = run_case(CASES[name])
        (GOLDEN / f"{name}.out").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
