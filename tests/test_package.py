import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
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


def _benchmark_ops(monkeypatch):
    # the module's dataclasses need it in sys.modules while it loads
    spec = importlib.util.spec_from_file_location(
        "perfbench_ops", _ROOT / "perfbench" / "ops.py")
    ops = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, ops)
    spec.loader.exec_module(ops)
    return ops


def test_benchmark_replay_reproduces_key_rate(monkeypatch):
    # the benchmark's traced run recomposes key_rate from the public
    # statistics functions; a change to one of their names or results
    # would otherwise show only in a traced benchmark run
    ops = _benchmark_ops(monkeypatch)
    for conv in ops.CONVENTIONS:
        for q in (0.0, 0.05, 0.1, 0.2, 1 / 3):
            scn = ops.scenario(conv, q)
            assert ops.replay_key_rate(ops.Tracer(), scn) == sqkd3.key_rate(scn).r


def test_benchmark_traced_operations_replay_without_mismatch(monkeypatch):
    # a traced benchmark run compares key_rate, key_rate_from_table and
    # SimulationResult with their stage-by-stage replays bit for bit; the
    # statistical sigma checks of the simulate and short operations are
    # left out, as they can fail faithful draws
    ops = _benchmark_ops(monkeypatch)
    sizes = ops.Sizes(sweep_steps=31, sim_rounds=20_000, short_rounds=2_000,
                      stats_repeats=1)
    for seed, name in enumerate(["sweep", "threshold", "stats", "entropies",
                                 "verify"]):
        ctx = ops.Context(rng=np.random.default_rng(seed), sizes=sizes,
                          tracer=ops.Tracer())
        ops.OPS[name](ctx)  # a replay that differs raises ReplayMismatch
        assert ctx.failed == 0, (name, ctx.failures)
    q, variant, seed, n = 0.12, "phi2", 5, 20_000
    rc, text = ops.run_cli(["simulate", "--n", str(n), "--q", repr(q),
                            "--variant", variant, "--seed", str(seed)])
    assert rc == 0
    ops.replay_simulate(ops.Tracer(), q, variant, seed, n, json.loads(text), 0.0)


def test_benchmark_replay_reproduces_attack_statistics(monkeypatch):
    # the traced statistics pass rebuilds each table from its stages and
    # raises ReplayMismatch when it differs from stat_table_from_attack
    ops = _benchmark_ops(monkeypatch)
    ctx = ops.Context(rng=None, tracer=ops.Tracer())
    for d_f, d_r in ops.DIM_PAIRS:
        attack = sqkd3.random_attack(d_f, d_r, 10 * d_f + d_r)
        for variant in ops.VARIANTS:
            replayed = ops._stat_table(ctx, attack, variant)
            table = sqkd3.stat_table_from_attack(attack, variant)
            assert replayed.p.tobytes() == table.p.tobytes()
            assert replayed.basis_err.tobytes() == table.basis_err.tobytes()
    assert "stats.p_table_from_attack" in ctx.tracer.values
