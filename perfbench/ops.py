"""The operations the sqkd3 benchmark runs, the checks on their outputs, and
the stage-by-stage replays that the traced run times.

Every operation is one step of a closed loop with a single client: it draws
its inputs from the run's seeded generator, calls the program, times the
call that the end-to-end metric names, and checks what came back.  With a
tracer attached, an operation also replays the same work through the public
functions of each module and records one span per call; the replay must
reproduce the end-to-end result exactly, or the run stops with
``ReplayMismatch`` instead of timing a path the program no longer takes.

This module imports ``sqkd3``; the caller puts the checkout's ``src`` first
on ``sys.path`` before importing it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from sqkd3 import cli, verify
from sqkd3.attack import ChannelScenario, pauli_twirl_attack, random_attack, vector_families
from sqkd3.keyrate import (conditional_entropies, find_threshold, h_b_given_a, key_rate,
                           key_rate_from_table, p_lower_bound, rho_be, rho_bec, s_bec,
                           s_ec_upper, sigma1_eigenvalues, sigma1_entropy_terms,
                           trace_out_receiver, x_bound)
from sqkd3.linalg import shannon_entropy3, von_neumann_entropy3
from sqkd3.sim import run_protocol
from sqkd3.stats import (StatTable, basis_error_direct, basis_error_expanded, f_gram,
                         joint_and_marginal, p_table_from_attack, stat_table_for_scenario,
                         stat_table_from_attack, t_values)
from sqkd3.term_tables import BASIS_ERROR_ORDER

VARIANTS = ("phi1", "phi2")
DIMS = (1, 3, 9)
DIM_PAIRS = [(d_f, d_r) for d_f in DIMS for d_r in DIMS]

#: (variant, model, p-mode) as the CLI spells them, in the fixed order that
#: sweeps and threshold tables walk through, so every seed covers the same mix.
CONVENTIONS = [(v, m, pm) for v in VARIANTS for m in ("dep", "indep")
               for pm in ("printed", "corrected")]

#: The README's threshold table (as-printed and corrected modes).
README_THRESHOLDS = {
    ("phi1", "dep", "printed"): 0.1904, ("phi1", "indep", "printed"): 0.0613,
    ("phi2", "dep", "printed"): 0.0423, ("phi2", "indep", "printed"): 0.0301,
    ("phi1", "dep", "corrected"): 0.0917, ("phi1", "indep", "corrected"): 0.0409,
    ("phi2", "dep", "corrected"): 0.0322, ("phi2", "indep", "corrected"): 0.0284,
}
THRESHOLD_TOL = 1e-4
R0_TOL = 1e-9
BASIS_ERR_TOL = 1e-10
SSA_TOL = 1e-9
#: Largest accepted deviation of a Monte Carlo frequency from the analytic
#: table, in binomial standard errors.  With 33 categories a correct sampler
#: exceeds it with probability below 1e-7 per run of the protocol.
SIGMA_BOUND = 6.0

#: Sweeps stay inside [0, 1/3]: the CLI accepts --q-max up to 3/8, but
#: p_table_symmetric rejects Q above 1/3 and the sweep ends in a traceback.
Q_SWEEP_MAX = 1.0 / 3.0
N_SWEEP_COLUMNS = 13

_MODEL = {"dep": "dependent", "indep": "independent"}
_PMODE = {"printed": "as-printed", "corrected": "corrected"}


class ReplayMismatch(RuntimeError):
    """The stage-by-stage replay did not reproduce the end-to-end result."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the operations; the defaults are the benchmark's."""

    sweep_steps: int = 5001
    sim_rounds: int = 10_000_000
    short_rounds: int = 10_000
    stats_repeats: int = 2     # attacks per (d_f, d_r) pair in one statistics pass


class Tracer:
    """Per-call durations of the public functions a replay goes through.

    ``values`` keeps one list per span name (durations in seconds) and per
    derived figure (named as its metric).
    """

    def __init__(self):
        self.values: dict[str, list] = defaultdict(list)
        self.last = 0.0

    def span(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.last = time.perf_counter() - t0
        self.values[name].append(self.last)
        return out

    def add(self, name: str, value) -> None:
        self.values[name].append(value)


@dataclass
class Context:
    """State of one benchmark run: inputs, checks, samples and the tracer.

    ``refs`` holds the machine-speed reference times measured between
    operations (see run.py); each sample keeps the index of the one before it.
    """

    rng: np.random.Generator
    sizes: Sizes = field(default_factory=Sizes)
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    slack: list = field(default_factory=list)
    rerun_argv: list | None = None
    n_sweeps: int = 0
    n_shorts: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def record(self, metric: str, seconds: float, amount: int | None = None) -> None:
        """One end-to-end sample: the wall time of an operation and, for a
        rate, the work it did; tied to the last machine-speed reference."""
        self.samples.append((metric, seconds, amount, len(self.refs) - 1))

    def span(self, name: str, fn, *args):
        """Call fn, recording a span when the run is traced."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.span(name, fn, *args)

    def digest(self, argv: list, text: str) -> None:
        self.digests[" ".join(argv)] = sha256(text)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list) -> tuple[int, str]:
    """sqkd3.cli.main with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def scenario(conv: tuple, q: float) -> ChannelScenario:
    variant, model, p_mode = conv
    return ChannelScenario(q=q, model=_MODEL[model], variant=variant,
                           p_mode=_PMODE[p_mode])


def convention_flags(conv: tuple) -> list:
    variant, model, p_mode = conv
    return ["--variant", variant, "--model", model, "--p-mode", p_mode]


# ---------------------------------------------------------------------------
# Key-rate path: sweep and threshold table
# ---------------------------------------------------------------------------

def replay_key_rate(tr: Tracer, scn: ChannelScenario) -> float:
    """key_rate(scn).r recomposed from its stages, one span per call."""
    table = tr.span("stats.stat_table_for_scenario", stat_table_for_scenario, scn)
    t = tr.span("stats.t_values", t_values, table.p)
    x = tr.span("keyrate.x_bound", x_bound, table)
    if scn.p_mode == "as-printed":
        p_low = max(x, 0.0) ** 2
    else:
        p_low = tr.span("keyrate.p_lower_bound", p_lower_bound, x, table, scn.p_mode)
    p000, p111, p222 = table.p[0, 0, 0], table.p[1, 1, 1], table.p[2, 2, 2]
    lam1, lam2, ent = tr.span("keyrate.sigma1_entropy_terms", sigma1_entropy_terms,
                              p000, p111, p222, p_low, scn.p_mode)
    bec = tr.span("keyrate.s_bec", s_bec, table)
    if scn.p_mode == "corrected":
        ec_upper = tr.span("keyrate.s_ec_upper", s_ec_upper, t, lam1, lam2)
    else:
        # key_rate_from_table inlines this form for the as-printed mode
        ec_upper = (shannon_entropy3([t[0] / 3, t[1] / 3, t[2] / 3, t[3] / 3])
                    + (t[1] + t[2] + t[3]) / 3.0 + t[0] / 3.0 * ent)
    jd = tr.span("stats.joint_and_marginal", joint_and_marginal, table.p,
                 scn.joint_weighting)
    hba = tr.span("keyrate.h_b_given_a", h_b_given_a, jd)
    return bec - ec_upper - hba


def op_sweep(ctx: Context) -> None:
    """One `sqkd3 sweep` over seed-drawn bounds; conventions taken in turn."""
    conv = CONVENTIONS[ctx.n_sweeps % len(CONVENTIONS)]
    ctx.n_sweeps += 1
    q_min = float(ctx.rng.uniform(0.0, 0.15))
    q_max = float(ctx.rng.uniform(q_min + 0.05, Q_SWEEP_MAX))
    steps = ctx.sizes.sweep_steps
    argv = ["sweep", *convention_flags(conv), "--q-min", repr(q_min),
            "--q-max", repr(q_max), "--steps", str(steps)]
    wall, (rc, text) = timed(ctx.span, "cli.sweep", run_cli, argv)
    ctx.record("sweep_points_per_s", wall, steps)
    ctx.digest(argv, text)
    rows = [line.split(",") for line in text.splitlines()[2:]]
    ctx.check(rc == 0 and len(rows) == steps and all(
        len(row) == N_SWEEP_COLUMNS and all(math.isfinite(float(v)) for v in row)
        for row in rows), f"sweep rows: {' '.join(argv)}")
    if ctx.tracer is not None:
        replay_sweep(ctx.tracer, conv, np.linspace(q_min, q_max, steps), rows, wall)


def replay_sweep(tr: Tracer, conv: tuple, grid: np.ndarray, rows: list,
                 wall: float) -> None:
    t_key_rate = 0.0
    for q, row in zip(grid, rows):
        scn = scenario(conv, float(q))
        r = tr.span("keyrate.key_rate", key_rate, scn).r
        t_key_rate += tr.last
        if replay_key_rate(tr, scn) != r or f"{r:.9g}" != row[1]:
            raise ReplayMismatch(f"sweep {conv} at Q={q!r}: replay differs from key_rate")
    tr.add("cli.sweep.overhead_s", wall - t_key_rate)


def op_threshold_table(ctx: Context) -> None:
    """The 8-entry `sqkd3 threshold` table, checked against the README."""
    walls, docs = [], []
    for conv in CONVENTIONS:
        wall, (rc, text) = timed(ctx.span, "cli.threshold", run_cli,
                                 ["threshold", *convention_flags(conv)])
        walls.append(wall)
        docs.append(json.loads(text) if rc == 0 else {})
    ctx.record("threshold_s", sum(walls))
    for conv, doc in zip(CONVENTIONS, docs):
        thr = doc.get("threshold")
        ctx.check(thr is not None and abs(thr - README_THRESHOLDS[conv]) <= THRESHOLD_TOL,
                  f"threshold {conv}: {thr} vs README {README_THRESHOLDS[conv]}")
        if conv[2] == "corrected":
            r0 = key_rate(scenario(conv, 0.0)).r
            ctx.check(abs(r0 - 1.0) <= R0_TOL, f"corrected r(0) {conv}: {r0!r}")
    if ctx.tracer is not None:
        replay_thresholds(ctx.tracer, walls, docs)


def replay_thresholds(tr: Tracer, walls: list, docs: list) -> None:
    for conv, wall, doc in zip(CONVENTIONS, walls, docs):
        variant, model, p_mode = conv
        thr = tr.span("keyrate.find_threshold", find_threshold, variant, _MODEL[model],
                      "per-pair", "as-printed", _PMODE[p_mode])
        tr.add("cli.threshold.overhead_s", wall - tr.last)
        if thr != doc.get("threshold"):
            raise ReplayMismatch(f"threshold {conv}: library {thr!r} vs CLI")
        if replay_key_rate(tr, scenario(conv, thr)) != doc["report_at_threshold"]["r"]:
            raise ReplayMismatch(f"threshold {conv}: replayed r differs at threshold")


# ---------------------------------------------------------------------------
# Simulation path: long `simulate` runs and short run_protocol runs
# ---------------------------------------------------------------------------

def max_sigma(result, table: StatTable) -> float:
    """Worst deviation of the empirical tables from the analytic ones.

    Counted in binomial standard errors, with one count of variance added so
    that a category expected to hold a fraction of a round does not turn a
    single draw into a many-sigma event.
    """
    worst = 0.0
    per_sent = result.counts_p.sum(axis=(1, 2))
    for i in range(3):
        n = per_sent[i]
        for p, count in zip(table.p[i].ravel(), result.counts_p[i].ravel()):
            worst = max(worst, abs(count - n * p) / math.sqrt(n * p * (1 - p) + 1))
    for idx, (i, _j) in enumerate(BASIS_ERROR_ORDER):
        n = result.noise_rounds_per_sent[i]
        p = table.basis_err[idx]
        worst = max(worst, abs(result.counts_basis_err[idx] - n * p)
                    / math.sqrt(n * p * (1 - p) + 1))
    return worst


def op_simulate(ctx: Context) -> None:
    """One long `sqkd3 simulate` run at a seed-drawn Q, variant and seed."""
    q = float(ctx.rng.uniform(0.02, 0.3))
    variant = VARIANTS[int(ctx.rng.integers(2))]
    seed = int(ctx.rng.integers(2**31))
    n = ctx.sizes.sim_rounds
    argv = ["simulate", "--n", str(n), "--q", repr(q), "--variant", variant,
            "--seed", str(seed)]
    wall, (rc, text) = timed(ctx.span, "cli.simulate", run_cli, argv)
    ctx.record("simulate_rounds_per_s", wall, n)
    ctx.digest(argv, text)
    doc = json.loads(text) if rc == 0 else {}
    sigma = doc.get("max_deviation_sigma", math.inf)
    ctx.check(sigma < SIGMA_BOUND, f"simulate deviation {sigma} sigma: {' '.join(argv)}")
    if ctx.rerun_argv is None:
        ctx.rerun_argv = argv
    if ctx.tracer is not None:
        replay_simulate(ctx.tracer, q, variant, seed, n, doc, wall)


def replay_simulate(tr: Tracer, q: float, variant: str, seed: int, n: int,
                    doc: dict, wall: float) -> None:
    attack = tr.span("attack.pauli_twirl_attack", pauli_twirl_attack, q, q)
    t_attack = tr.last
    tr.span("sim.fixed_cost", run_protocol, 1, attack, variant, seed)
    t_fixed = tr.last
    result = tr.span("sim.run_protocol", run_protocol, n, attack, variant, seed)
    t_run = tr.last
    table = tr.span("stats.stat_table_from_attack", stat_table_from_attack, attack, variant)
    t_table = tr.last
    tr.add("sim.run_protocol.rounds", n)
    tr.add("sim.fixed_cost_s", t_fixed)
    tr.add("sim.sampling_ns_per_round", (t_run - t_fixed) / n * 1e9)
    tr.add("cli.simulate.overhead_s", wall - t_attack - t_run - t_table)
    replayed = json.loads(result.to_json())
    if any(doc.get(k) != v for k, v in replayed.items()) \
            or doc.get("analytic_p") != table.p.ravel().tolist():
        raise ReplayMismatch(f"simulate q={q!r} seed={seed}: replay differs from CLI")
    if "sim.run_protocol.peak_mb" not in tr.values:
        tracemalloc.start()
        try:
            run_protocol(n, attack, variant, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tr.add("sim.run_protocol.peak_mb", peak / 2**20)


def op_short_run(ctx: Context) -> None:
    """One short run_protocol on a seed-drawn random attack."""
    d_f, d_r = DIM_PAIRS[ctx.n_shorts % len(DIM_PAIRS)]
    ctx.n_shorts += 1
    attack_seed, run_seed = (int(s) for s in ctx.rng.integers(2**31, size=2))
    variant = VARIANTS[int(ctx.rng.integers(2))]
    n = ctx.sizes.short_rounds
    attack = ctx.span("attack.random_attack", random_attack, d_f, d_r, attack_seed)
    wall, result = timed(ctx.span, "sim.run_protocol.short", run_protocol, n, attack,
                         variant, run_seed)
    ctx.record("short_run_ms", wall)
    table = ctx.span("stats.stat_table_from_attack", stat_table_from_attack, attack, variant)
    sigma = max_sigma(result, table)
    ctx.check(sigma < SIGMA_BOUND, f"short run deviation {sigma} sigma "
                                   f"(d_f={d_f}, d_r={d_r}, seed={attack_seed}/{run_seed})")
    if ctx.tracer is not None:
        ctx.tracer.add("sim.run_protocol.rounds", n)


# ---------------------------------------------------------------------------
# Attack records and explicit states
# ---------------------------------------------------------------------------

def _stat_table(ctx: Context, attack, variant: str) -> StatTable:
    """stat_table_from_attack, replayed stage by stage when traced."""
    if ctx.tracer is None:
        return stat_table_from_attack(attack, variant)
    fams = ctx.span("attack.vector_families", vector_families, attack)
    return StatTable(ctx.span("stats.p_table_from_attack", p_table_from_attack, fams),
                     ctx.span("stats.basis_error_direct", basis_error_direct, fams, variant),
                     variant)


def op_attack_stats(ctx: Context) -> None:
    """Statistics pass over seed-drawn random attacks, every (d_f, d_r) pair."""
    plan = [(d_f, d_r, int(ctx.rng.integers(2**31)))
            for d_f, d_r in DIM_PAIRS for _ in range(ctx.sizes.stats_repeats)]
    out = []
    t0 = time.perf_counter()
    for d_f, d_r, seed in plan:
        attack = ctx.span("attack.random_attack", random_attack, d_f, d_r, seed)
        fams = ctx.span("attack.vector_families", vector_families, attack)
        gram = ctx.span("stats.f_gram", f_gram, fams)
        for variant in VARIANTS:
            table = _stat_table(ctx, attack, variant)
            expanded = ctx.span("stats.basis_error_expanded", basis_error_expanded,
                                gram, variant)
            report = ctx.span("keyrate.key_rate_from_table", key_rate_from_table, table,
                              "normalized", "corrected")
            out.append((attack, variant, table, expanded, report))
    ctx.record("attack_stats_per_s", time.perf_counter() - t0, len(plan))
    for attack, variant, table, expanded, report in out:
        gap = float(np.max(np.abs(table.basis_err - expanded)))
        ctx.check(gap <= BASIS_ERR_TOL, f"direct vs expanded basis error {gap:.3e}")
        ctx.check(math.isfinite(report.r), f"key_rate_from_table r={report.r}")
        if ctx.tracer is not None:
            ref = ctx.span("stats.stat_table_from_attack", stat_table_from_attack,
                           attack, variant)
            if not (np.array_equal(ref.p, table.p)
                    and np.array_equal(ref.basis_err, table.basis_err)):
                raise ReplayMismatch("statistics pass: replayed table differs")


def replay_conditional_entropies(tr: Tracer, fams) -> dict:
    """conditional_entropies(fams) recomposed from its stages."""
    work = {"dim3_sum": 0, "bytes_in": 0}

    def entropy(rho):
        work["dim3_sum"] += rho.shape[0] ** 3
        work["bytes_in"] += rho.nbytes
        return tr.span("linalg.von_neumann_entropy3", von_neumann_entropy3, rho)

    be = tr.span("keyrate.rho_be", rho_be, fams)
    dim_e = be.shape[0] // 3
    e = tr.span("keyrate.trace_out_receiver", trace_out_receiver, be, dim_e)
    bec = tr.span("keyrate.rho_bec", rho_bec, fams)
    ec = tr.span("keyrate.trace_out_receiver", trace_out_receiver, bec, dim_e * 4)
    out = {"S_B_given_E": entropy(be) - entropy(e),
           "S_B_given_EC": entropy(bec) - entropy(ec),
           "S_EC_exact": entropy(ec)}
    tr.add("linalg.von_neumann_entropy3.dim3_sum", work["dim3_sum"])
    tr.add("linalg.von_neumann_entropy3.bytes_in", work["bytes_in"])
    return out


def upper_bound_slack(fams, s_ec_exact: float) -> float:
    """s_ec_upper minus the exact S(EC) on a twirl state.

    Negative values are the README's known formula defect (criterion 8);
    they are recorded, not counted as failures.
    """
    p = p_table_from_attack(fams)
    pairs = [(fams.ekij[(0, 0, 0)], fams.ekij[(1, 1, 4)]),
             (fams.ekij[(0, 0, 0)], fams.ekij[(2, 2, 8)]),
             (fams.ekij[(1, 1, 4)], fams.ekij[(2, 2, 8)])]
    p_exact = sum(abs(np.vdot(a, b)) ** 2 for a, b in pairs)
    lam1, lam2 = sigma1_eigenvalues(p[0, 0, 0], p[1, 1, 1], p[2, 2, 2], p_exact)
    return s_ec_upper(t_values(p), lam1, lam2) - s_ec_exact


def op_entropies(ctx: Context) -> None:
    """conditional_entropies on a twirl attack at a seed-drawn Q (972 dims)."""
    q = float(ctx.rng.uniform(0.01, 0.3))
    attack = ctx.span("attack.pauli_twirl_attack", pauli_twirl_attack, q, q)
    fams = ctx.span("attack.vector_families", vector_families, attack)
    if ctx.tracer is None:
        wall, ents = timed(conditional_entropies, fams)
    else:
        wall, ents = timed(replay_conditional_entropies, ctx.tracer, fams)
        if ctx.span("keyrate.conditional_entropies", conditional_entropies, fams) != ents:
            raise ReplayMismatch(f"conditional_entropies at Q={q!r}: replay differs")
    ctx.record("entropies_s", wall)
    gap = ents["S_B_given_E"] - ents["S_B_given_EC"]
    ctx.check(gap >= -SSA_TOL, f"S(B|E)-S(B|EC) = {gap:.3e} at Q={q!r}")
    ctx.slack.append(upper_bound_slack(fams, ents["S_EC_exact"]))


# ---------------------------------------------------------------------------
# Self-check suite
# ---------------------------------------------------------------------------

def op_verify(ctx: Context) -> None:
    """One `sqkd3 verify`, which must exit 0."""
    wall, (rc, text) = timed(ctx.span, "cli.verify", run_cli, ["verify"])
    ctx.record("verify_s", wall)
    ctx.check(rc == 0, f"verify exit code {rc}")
    if ctx.tracer is not None:
        lines = text.splitlines()
        for (name, fn), line in zip(verify.GROUPS, lines):
            ok, detail = ctx.span(f"verify.{name}", fn)
            if line != f"{'PASS' if ok else 'FAIL'} {name}: {detail}":
                raise ReplayMismatch(f"verify group {name}: replay differs from CLI")


OPS = {
    "sweep": op_sweep,
    "threshold": op_threshold_table,
    "simulate": op_simulate,
    "short": op_short_run,
    "stats": op_attack_stats,
    "entropies": op_entropies,
    "verify": op_verify,
}


def rerun_simulate(ctx: Context) -> None:
    """Repeat the run's first seeded `simulate`; its output must not change."""
    if ctx.rerun_argv is None:
        return
    key = " ".join(ctx.rerun_argv)
    rc, text = run_cli(ctx.rerun_argv)
    ctx.check(rc == 0 and sha256(text) == ctx.digests[key],
              f"simulate output changed on re-run: {key}")
