import json

import numpy as np
import pytest

import sqkd3.term_tables as tables
import sqkd3.linalg as linalg
from sqkd3 import ChannelScenario, key_rate, verify
from sqkd3.cli import main


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
