"""sqkd3 benchmark: one command that runs a named workload against the
checkout's ``src/sqkd3``, checks every output, and prints each metric by
name with its unit.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

Every workload is a closed loop with one client in a single process: the
next call starts when the previous one returned.  A workload is a cycle of
operations (see ``ops.py``), repeated until ``--seconds`` have passed, and
always at least once.  The benchmark sets no thread variable, so the sweep
pool and BLAS run as users get them.

``--trace 0`` prints the end-to-end metrics, each the median of the run's
samples.  ``--trace 1`` runs one untraced stretch, then replays every
operation stage by stage through the public functions of each module with
one span per call, and prints the per-layer metrics, including the traced
minus untraced difference of each end-to-end metric.

The last line of standard output is the result object; the line before it
holds sample counts, tails, output digests, failures and provenance.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Each cycle takes about twelve seconds on a 2-core machine.  The emphasis
# operations of a workload fill most of it; one or two of every other
# operation, placed early so that a run cut mid-cycle still has them, keep
# each end-to-end metric measured on every workload.
_SIM = ["simulate", *["short"] * 10]
WORKLOADS = {
    # Scalar stats/keyrate path and the CLI sweep pool; almost no attack,
    # sim or eigendecomposition work: the control for changes to those.
    "analytic": ["verify", "entropies", "stats", *_SIM, "sweep", "threshold", "sweep",
                 "threshold", "entropies", "stats", *["short"] * 10, "sweep", "threshold",
                 "sweep", "threshold"],
    # Long runs (per-round sampling and memory) against short runs (per-run
    # fixed cost), so a change trading one cost for the other shows.
    "montecarlo": ["verify", "entropies", *_SIM, "sweep", *_SIM, "threshold", "stats",
                   *_SIM, "entropies", "threshold", "stats", *_SIM * 5],
    # Attack records and the explicit 972-dimensional states, which the
    # analytic workload never builds.
    "attack_states": ["sweep", "stats", "entropies", "entropies", "verify", *_SIM,
                      "threshold", "stats", "entropies", "entropies", "verify",
                      "threshold", *["short"] * 10, "stats", "entropies", "entropies",
                      "verify"],
}

E2E_UNITS = {
    "setup_s": "s",
    "sweep_points_per_s": "points/s",
    "threshold_s": "s",
    "simulate_rounds_per_s": "rounds/s",
    "short_run_ms": "ms",
    "attack_stats_per_s": "attacks/s",
    "entropies_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}

#: Spans whose median per-call time is a per-layer metric ``<span>.s``.
TIMED_SPANS = [
    "stats.stat_table_for_scenario", "stats.t_values", "keyrate.x_bound",
    "keyrate.p_lower_bound", "keyrate.sigma1_entropy_terms", "keyrate.s_bec",
    "keyrate.s_ec_upper", "stats.joint_and_marginal", "keyrate.h_b_given_a",
    "keyrate.key_rate", "keyrate.find_threshold",
    "attack.pauli_twirl_attack", "attack.random_attack", "attack.vector_families",
    "stats.p_table_from_attack", "stats.basis_error_direct", "stats.f_gram",
    "stats.basis_error_expanded", "keyrate.key_rate_from_table",
    "keyrate.rho_be", "keyrate.rho_bec", "keyrate.trace_out_receiver",
    "linalg.von_neumann_entropy3",
    "sim.run_protocol", "sim.run_protocol.short", "stats.stat_table_from_attack",
]
#: Spans called at every sweep point, so thousands of times in any traced
#: run; each also reports ``<span>.s.tail``.
TAIL_SPANS = ["stats.stat_table_for_scenario", "stats.t_values", "keyrate.x_bound",
              "keyrate.sigma1_entropy_terms", "keyrate.s_bec", "stats.joint_and_marginal",
              "keyrate.h_b_given_a", "keyrate.key_rate"]
#: Spans whose number of calls is a per-layer metric ``<span>.calls``.
COUNTED_SPANS = ["keyrate.key_rate", "attack.vector_families",
                 "linalg.von_neumann_entropy3"]
#: Figures derived per operation: (metric name, unit, how the run reports them).
DERIVED = [
    ("cli.sweep.overhead_s", "s", "median"),
    ("cli.threshold.overhead_s", "s", "median"),
    ("cli.simulate.overhead_s", "s", "median"),
    ("sim.fixed_cost_s", "s", "median"),
    ("sim.sampling_ns_per_round", "ns", "median"),
    ("sim.run_protocol.peak_mb", "MB", "median"),
    ("sim.run_protocol.rounds", "count", "sum"),
    ("linalg.von_neumann_entropy3.dim3_sum", "count", "median"),
    ("linalg.von_neumann_entropy3.bytes_in", "bytes", "median"),
]
THREAD_VARS = ("SQKD3_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
#: Timings are scaled to a machine on which reference_kernel takes this long.
REF_NOMINAL = 0.008
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


class ProgramMissing(RuntimeError):
    """The checkout holds no sqkd3 sources to benchmark."""


def load_ops():
    """Import ops (and with it sqkd3) from this checkout's sources."""
    if not (SRC / "sqkd3" / "__init__.py").is_file():
        raise ProgramMissing(f"no sqkd3 sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ops
    import sqkd3
    if Path(sqkd3.__file__).resolve().parent != SRC / "sqkd3":
        raise ProgramMissing(f"imported sqkd3 from {sqkd3.__file__}, not {SRC}")
    return ops


_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.normal(size=(300, 300))
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.T
_REF_VECTOR = _REF_RNG.normal(size=100_000)


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter, small-array numpy, LAPACK and
    sorting work that never calls sqkd3; the fastest of three runs.

    The machine's speed drifts by tens of percent over tens of seconds when
    other virtual machines load the cores it shares.  Every end-to-end timing
    is scaled by REF_NOMINAL over the mean of this kernel's time just before
    and just after it, so runs taken at different moments agree; the raw
    medians are kept in the detail line.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(600):
            a = np.full((3, 3), 0.1 * (i % 5))
            acc += float(np.sqrt(a * a + 1.0).sum()) + (i * i) % 7
        np.linalg.eigvalsh(_REF_MATRIX)
        np.sort(_REF_VECTOR)
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup() -> tuple[list, list]:
    """Seconds to import sqkd3 and sqkd3.cli, each in a fresh interpreter:
    (raw, scaled by the reference kernel)."""
    code = ("import time; t = time.perf_counter(); import sqkd3, sqkd3.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, refs = [], [reference_kernel()]
    for _ in range(SETUP_REPEATS):
        raw.append(float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                        capture_output=True, text=True, check=True,
                                        timeout=120).stdout))
        refs.append(reference_kernel())
    scaled = [t * 2 * REF_NOMINAL / (a + b) for t, a, b in zip(raw, refs, refs[1:])]
    return raw, scaled


def run_cycles(ops, ctx, cycle: list, seconds: float) -> None:
    """Repeat the cycle until `seconds` have passed, completing it at least once.

    The reference kernel runs before each operation that differs from the one
    before it (a batch of short runs shares one) and once at the end.
    """
    deadline = time.perf_counter() + seconds
    previous = None
    for n_done in itertools.count():
        for name in cycle:
            if n_done and time.perf_counter() >= deadline:
                ctx.refs.append(reference_kernel())
                return
            if name != previous:
                ctx.refs.append(reference_kernel())
                previous = name
            ops.OPS[name](ctx)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def summary(values: list) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    for pct in TAIL_PERCENTILES:
        if len(values) * (1 - pct / 100) >= 10:
            out["tail_pct"] = pct
            out["tail"] = float(np.percentile(values, pct))
            break
    return out


def sample_values(ctx, scaled: bool) -> dict:
    """Per-metric sample values, raw or scaled by the reference kernel."""
    out: dict[str, list] = {}
    for metric, seconds, amount, i in ctx.samples:
        if scaled:
            seconds *= 2 * REF_NOMINAL / (ctx.refs[i] + ctx.refs[i + 1])
        value = amount / seconds if amount else seconds
        out.setdefault(metric, []).append(value * 1e3 if E2E_UNITS[metric] == "ms" else value)
    return out


def end_to_end(ctx, setup: list | None, rss: float) -> dict:
    values = {name: statistics.median(v) for name, v in sample_values(ctx, True).items()}
    values["peak_rss_mb"] = rss
    if setup is not None:
        values["setup_s"] = statistics.median(setup)
    return values


def per_layer(ops, ctx, untraced: dict, traced: dict) -> dict:
    values = {}
    spans = ctx.tracer.values
    for name in TIMED_SPANS:
        values[f"{name}.s"] = (statistics.median(spans[name]), "s")
    for name in TAIL_SPANS:
        values[f"{name}.s.tail"] = (summary(spans[name])["tail"], "s")
    for name in COUNTED_SPANS:
        values[f"{name}.calls"] = (len(spans[name]), "count")
    for name, unit, how in DERIVED:
        v = spans[name]
        value = sum(v) if how == "sum" else statistics.median(v)
        values[name] = (int(value) if unit in ("count", "bytes") else value, unit)
    for group, _check in ops.verify.GROUPS:
        values[f"verify.{group}.s"] = (statistics.median(spans[f"verify.{group}"]), "s")
    values["keyrate.s_ec_upper.slack_min"] = (min(ctx.slack), "trit")
    values["failed_frac"] = (ctx.failed / ctx.attempted, "ratio")
    for name, unit in E2E_UNITS.items():
        if name != "setup_s":
            values[f"trace_overhead.{name}"] = (traced[name] - untraced[name], unit)
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import sqkd3
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sqkd3": sqkd3.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": git_commit(),
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple:
    """Run one workload; returns (result object, detail object)."""
    ops = load_ops()
    ctx = ops.Context(rng=np.random.default_rng(seed), sizes=sizes or ops.Sizes())
    cycle = WORKLOADS[workload]
    detail = {"workload": workload, "trace": int(trace), "seconds": seconds,
              "provenance": provenance(seed)}
    if not trace:
        setup_raw, setup = measure_setup()
        run_cycles(ops, ctx, cycle, seconds)
        values = end_to_end(ctx, setup, peak_rss_mb())
        detail["samples"] = {k: summary(v) for k, v in sample_values(ctx, True).items()}
        detail["samples"]["setup_s"] = summary(setup)
        detail["raw_samples"] = {k: summary(v) for k, v in sample_values(ctx, False).items()}
        detail["raw_samples"]["setup_s"] = summary(setup_raw)
        detail["reference_kernel_s"] = summary(ctx.refs)
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    else:
        start = time.perf_counter()
        run_cycles(ops, ctx, cycle, seconds / 3)
        untraced = end_to_end(ctx, None, peak_rss_mb())
        ctx.samples.clear()
        ctx.tracer = ops.Tracer()
        run_cycles(ops, ctx, cycle, seconds - (time.perf_counter() - start))
        traced = end_to_end(ctx, None, peak_rss_mb())
        metrics = per_layer(ops, ctx, untraced, traced)
        detail["spans"] = {k: summary(v) for k, v in ctx.tracer.values.items()}
    ops.rerun_simulate(ctx)
    detail.update(attempted=ctx.attempted, failed=ctx.failed,
                  failed_frac=ctx.failed / ctx.attempted, failures=ctx.failures,
                  upper_bound_slack=ctx.slack, digests=ctx.digests)
    result = {"correct": ctx.failed == 0, "attempted": ctx.attempted,
              "failed": ctx.failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ops = load_ops()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ops.ReplayMismatch as exc:
        print(f"perfbench: traced replay failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
