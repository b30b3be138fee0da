import importlib.util
import sys
from pathlib import Path

import pytest

import sqkd3


def test_every_export_resolves():
    missing = [name for name in sqkd3.__all__ if not hasattr(sqkd3, name)]
    assert missing == []


_ROOT = Path(__file__).resolve().parent.parent


def _digest_script():
    path = _ROOT / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_script_imports():
    # loading runs the script's imports, not its outputs
    assert callable(_digest_script().outputs)


def test_digest_script_runs_to_the_end(monkeypatch):
    # a change in what a library function returns can break the script
    # at run time while its imports still load; the script sets COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    labels = []
    for label, payload in _digest_script().outputs():
        assert isinstance(payload, (str, bytes)), label
        labels.append(label)
    assert len(labels) == len(set(labels))


_RECORDS = {
    "AttackModel": lambda: sqkd3.random_attack(1, 1, 1),
    "StatTable": lambda: sqkd3.stat_table_from_attack(
        sqkd3.pauli_twirl_attack(0.1, 0.1), "phi1"),
    "SimulationResult": lambda: sqkd3.run_protocol(
        10, sqkd3.identity_attack(), seed=1),
}


@pytest.mark.parametrize("make", _RECORDS.values(), ids=_RECORDS.keys())
def test_array_records_compare_by_identity_and_hash(make):
    # field-wise == on array fields raised numpy's "truth value of an
    # array is ambiguous", and the frozen ones were unhashable
    one, other = make(), make()
    assert one == one and one != other
    assert len({one, other, one}) == 2


def test_benchmark_replay_reproduces_key_rate(monkeypatch):
    # the benchmark's traced run recomposes key_rate from the public
    # statistics functions; a change to one of their names or results
    # would otherwise show only in a traced benchmark run.  The module's
    # dataclasses need it in sys.modules while it loads.
    spec = importlib.util.spec_from_file_location(
        "perfbench_ops", _ROOT / "perfbench" / "ops.py")
    ops = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, ops)
    spec.loader.exec_module(ops)
    for conv in ops.CONVENTIONS:
        for q in (0.0, 0.05, 0.1, 0.2, 1 / 3):
            scn = ops.scenario(conv, q)
            assert ops.replay_key_rate(ops.Tracer(), scn) == sqkd3.key_rate(scn).r
