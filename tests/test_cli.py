import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sqkd3
import sqkd3.term_tables as tables
import sqkd3.linalg as linalg
from sqkd3 import ChannelScenario, cli, key_rate, verify
from sqkd3.attack import CONVENTIONS
from sqkd3.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_corrected_mode_starts_at_one(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "sweep", "--variant", "phi1", "--model",
                         "dep", "--p-mode", "corrected", "--q-min", "0",
                         "--q-max", "0.05", "--steps", "6",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# sqkd3 sweep variant=phi1 model=dependent")
    assert lines[1].split(",")[0] == "Q"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-9)


def test_sweep_default_mode_brackets_reference_threshold(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "sweep", "--variant", "phi1", "--model",
                         "dep", "--q-min", "0.19", "--q-max", "0.20",
                         "--steps", "2", "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().split("\n")[2:]
    r_values = [float(r.split(",")[1]) for r in rows]
    assert r_values[0] > 0 > r_values[1]


def test_sweep_phi2_independent_brackets_reference_threshold(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "sweep", "--variant", "phi2", "--model",
                         "indep", "--q-min", "0.029", "--q-max", "0.031",
                         "--steps", "2", "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().split("\n")[2:]
    r_values = [float(r.split(",")[1]) for r in rows]
    assert r_values[0] > 0 > r_values[1]


def test_sweep_csv_formatting_is_9_significant_digits(tmp_path, capsys):
    out = tmp_path / "c.csv"
    run_cli(capsys, "sweep", "--q-min", "0.01", "--q-max", "0.02",
            "--steps", "3", "--out", str(out))
    for row in out.read_text().strip().split("\n")[2:]:
        for cell in row.split(","):
            assert "," not in cell
            float(cell)  # parses with '.' decimal separator
            mantissa = cell.lstrip("-").replace(".", "").split("e")[0]
            assert len(mantissa.lstrip("0")) <= 9


def test_sweep_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "sweep", "--steps", "11", "--out", str(a))
    run_cli(capsys, "sweep", "--steps", "11", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_sweep_unwritable_path(capsys):
    code, _, err = run_cli(capsys, "sweep", "--out",
                           "/nonexistent-dir/x.csv")
    assert code == 3
    assert "cannot write" in err


def test_sweep_bad_grid(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--q-min", "0.3", "--q-max", "0.2")
    assert code == 2


@pytest.mark.parametrize("argv", [["--q", "0.5"], ["--q", "-0.1"], ["--q", "nan"],
                                  ["--n", "0"], ["--seed", "-1"]])
def test_simulate_bad_input_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("simulate needs") and err.count("\n") == 1


class _BrokenStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["sweep", "--steps", "3"], ["threshold"],
                                  ["simulate", "--n", "100"], ["verify"]],
                         ids=lambda argv: argv[0])
def test_broken_stdout_is_an_io_error(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"sqkd3 {argv[0]}: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", [["sweep", "--steps", "3"], ["threshold"],
                                  ["simulate", "--n", "100"], ["verify"]],
                         ids=lambda argv: argv[0])
def test_closed_stdout_is_an_io_error(capsys, monkeypatch, argv):
    # sys.stdout is None when the process starts with fd 1 closed
    monkeypatch.setattr(sys, "stdout", None)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err == (f"sqkd3 {argv[0]}: cannot write output: "
                   "[Errno 9] standard output is closed\n")


def test_closed_stdout_does_not_stop_sweep_to_a_file(tmp_path, monkeypatch):
    out = tmp_path / "curve.csv"
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["sweep", "--steps", "3", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 5


@pytest.mark.parametrize("stderr", [_BrokenStdout(), None], ids=["broken", "closed"])
def test_io_error_report_is_best_effort(monkeypatch, stderr):
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["simulate", "--n", "5"]) == 3


def _cli_process(argv, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(Path(sqkd3.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from sqkd3.cli import main; sys.exit(main())", *argv],
        env=env, timeout=60, **kwargs)


def test_process_with_closed_stdout_exits_3():
    proc = _cli_process(["threshold"], stderr=subprocess.PIPE, text=True,
                        preexec_fn=lambda: os.close(1))
    assert proc.returncode == 3
    assert proc.stderr == ("sqkd3 threshold: cannot write output: "
                           "[Errno 9] standard output is closed\n")


def test_process_with_both_streams_on_a_broken_pipe_exits_3():
    # as in `sqkd3 simulate 2>&1 | head -c 10`, once head has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process(["simulate", "--n", "5"], stdout=write_end,
                            stderr=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 3


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--variant", "phi3"])
    assert exc.value.code == 2


def test_threshold_command_matches_reference(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--variant", "phi1",
                           "--model", "dep")
    assert code == 0
    doc = json.loads(out)
    assert doc["threshold"] == pytest.approx(0.191, abs=0.005)
    assert doc["convention"]["p_mode"] == "as-printed"
    assert abs(doc["report_at_threshold"]["r"]) < 1e-4


def test_simulate_deterministic_and_converged(capsys):
    code, out1, _ = run_cli(capsys, "simulate", "--n", "200000", "--q", "0.1",
                            "--seed", "0")
    assert code == 0
    code, out2, _ = run_cli(capsys, "simulate", "--n", "200000", "--q", "0.1",
                            "--seed", "0")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["max_deviation_sigma"] < 4.0
    assert doc["sifted_fraction"] == pytest.approx(0.25, abs=0.01)


def test_simulate_noiseless_exact(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "20000", "--q", "0",
                           "--seed", "1")
    assert code == 0
    # zero up to the phase-arithmetic dust in the analytic zero cells
    assert json.loads(out)["max_deviation_sigma"] < 1e-9


def test_verify_clean_build(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert out.count("PASS") == len(verify.GROUPS)
    assert "FAIL" not in out


def test_verify_detects_corrupted_basis_phase(capsys, monkeypatch):
    corrupted = linalg._BASES["T"].copy()
    corrupted[0, 0] = -corrupted[0, 0]
    monkeypatch.setitem(linalg._BASES, "T", corrupted)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert any(line.startswith("FAIL mub") for line in out.splitlines())


def test_verify_detects_corrupted_term_table(capsys, monkeypatch):
    broken = dict(tables.T_ERROR_TERMS)
    entry = list(broken[(0, 1)])
    phase, m, n = entry[0]
    entry[0] = ({0: 1, 1: -1, -1: 0}[phase], m, n)  # wrong phase on one term
    broken[(0, 1)] = entry
    monkeypatch.setitem(tables.ERROR_TERMS, "phi1", broken)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert any(line.startswith("FAIL expansion-equivalence")
               for line in out.splitlines())


def test_verify_detects_corrupted_k_term_table_and_recovers(capsys, monkeypatch):
    broken = dict(tables.K_ERROR_TERMS)
    entry = list(broken[(0, 1)])
    phase, m, n = entry[0]
    entry[0] = ({0: 1, 1: -1, -1: 0}[phase], m, n)  # wrong phase on one term
    broken[(0, 1)] = entry
    with monkeypatch.context() as patch:
        patch.setitem(tables.ERROR_TERMS, "phi2", broken)
        code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert any(line.startswith("FAIL expansion-equivalence")
               for line in out.splitlines())
    # the compiled term arrays follow the restored table
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out


def test_sweep_repeatable_and_rows_equal_key_rate(tmp_path, capsys):
    flags = ["--variant", "phi2", "--model", "indep", "--p-mode", "corrected",
             "--weighting", "normalized", "--basis-convention", "total",
             "--q-min", "0", "--q-max", "0.3", "--steps", "31"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, "sweep", *flags, "--out", str(a))[0] == 0
    assert run_cli(capsys, "sweep", *flags, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().strip().split("\n")[2:]
    assert len(rows) == 31
    for q, row in zip(np.linspace(0.0, 0.3, 31), rows):
        rep = key_rate(ChannelScenario(
            q=float(q), model="independent", variant="phi2",
            basis_noise_convention="total", joint_weighting="normalized",
            p_mode="corrected"))
        assert row.split(",")[1] == f"{rep.r:.9g}"


#: values whose %.9g takes exponent form or a special spelling
CRAFTED = [1e-5, 1e9, 1e21, np.nan, np.inf, -np.inf, -0.0, 0.0, -1e-5,
           123456789.5, 1 / 3, -2.5e-300, 5e-324]


def per_row_body(cols: dict) -> str:
    """The CSV lines after the header, one % call per row."""
    rows = np.column_stack([cols[name] for name in cli.SWEEP_COLUMNS]).tolist()
    row_format = ",".join(["%.9g"] * len(cli.SWEEP_COLUMNS))
    lines = [",".join(cli.SWEEP_COLUMNS)]
    lines += [row_format % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("steps", [2, 13, 40])
def test_sweep_body_equals_per_row_formatting(capsys, monkeypatch, steps):
    values = np.resize(np.array(CRAFTED), (len(cli.SWEEP_COLUMNS) + 1, steps))
    # each column starts elsewhere in the cycle, so every column meets
    # every crafted value
    cols = {name: np.roll(values[k], k) for k, name in
            enumerate(cli.SWEEP_COLUMNS + ["S_clamped"])}
    monkeypatch.setattr(cli, "key_rate_curve", lambda grid, **_: cols)
    code, out, _ = run_cli(capsys, "sweep", "--steps", str(steps))
    assert code == 0
    header, body = out.split("\n", 1)
    assert header.startswith("# sqkd3 sweep variant=phi1")
    assert body == per_row_body(cols)
    assert "e-05" in body and "e+21" in body and "-0," in body
    assert "nan" in body and "-inf" in body


def test_sweep_accepts_noise_up_to_three_eighths(tmp_path, capsys):
    out = tmp_path / "high.csv"
    code, _, _ = run_cli(capsys, "sweep", "--q-max", "0.36", "--out", str(out))
    assert code == 0
    last = out.read_text().strip().split("\n")[-1].split(",")
    assert float(last[0]) == 0.36


def test_threshold_past_one_third(capsys):
    flags = ["threshold", "--variant", "phi1", "--model", "dep",
             "--weighting", "normalized"]
    code, out, _ = run_cli(capsys, *flags)
    assert code == 0
    assert json.loads(out)["threshold"] == pytest.approx(0.3476, abs=1e-4)
    code, out, _ = run_cli(capsys, *flags, "--basis-convention", "total")
    assert code == 0
    assert json.loads(out)["threshold"] is None


#: The convention flag of sweep and threshold for each CONVENTIONS name.
CONVENTION_FLAGS = {"variant": "--variant", "model": "--model",
                    "basis_noise_convention": "--basis-convention",
                    "joint_weighting": "--weighting", "p_mode": "--p-mode"}


@pytest.mark.parametrize("command", ["sweep", "threshold"])
def test_convention_flag_choices_map_one_to_one_onto_conventions(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    choices = {action.option_strings[0]: action.choices
               for action in sub._actions if action.choices}
    assert set(choices) == set(CONVENTION_FLAGS.values())
    for name, flag in CONVENTION_FLAGS.items():
        values = [cli._conventions(build_parser().parse_args(
            [command, flag, spelling]))[name] for spelling in choices[flag]]
        # every spelling names a distinct value, and every value has one
        assert sorted(values) == sorted(CONVENTIONS[name])
