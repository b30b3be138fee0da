"""Monte Carlo execution of the protocol's quantum communication stage.

Each round the sender prepares one of six states (canonical basis or the
variant's alternative basis, uniformly), the receiver either measures in
the canonical basis and resends or reflects (uniformly), and the sender
measures the returning qutrit in her preparation basis.  The attack's
isometries act on both channel passes.

Raw-key and noise-estimation outcomes are sampled from the exact
amplitude-level conditional distributions implied by the attack; the
eavesdropper's ancilla is traced implicitly since only sender/receiver
statistics are collected.  The two kinds of round the protocol discards
only advance the random stream.  Given a seed, results are reproducible
byte for byte (numpy PCG64 generator).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .attack import AttackModel, vector_families
from .stats import _ERROR_CELLS, StatTable, alt_basis_table, p_table_from_attack

_ERR_SENT = _ERROR_CELLS[0]


@dataclass
class SimulationResult:
    """Aggregated statistics of one seeded run.

    counts_p counts the raw-key rounds (canonical basis, measured) by
    (sent, bob, final) and empirical_p normalizes it per sent value.
    counts_basis_err counts the noise-estimation rounds (alternative basis,
    reflected) in BASIS_ERROR_ORDER, empirical_basis_err normalizes them by
    noise_rounds_per_sent of their sent value.  n_sifted, sifted_fraction
    and raw_key_error_rate (bob != final) are derived from counts_p; an
    empty frequency row is all zeros.
    """

    n_rounds: int
    counts_p: np.ndarray          # (3,3,3) counts over (sent, bob, final)
    empirical_p: np.ndarray       # (3,3,3)
    counts_basis_err: np.ndarray  # (6,)
    empirical_basis_err: np.ndarray  # (6,)
    noise_rounds_per_sent: np.ndarray  # (3,)
    seed: int = 0

    @property
    def n_sifted(self) -> int:
        return int(self.counts_p.sum())

    @property
    def sifted_fraction(self) -> float:
        return self.n_sifted / self.n_rounds

    @property
    def raw_key_error_rate(self) -> float:
        if self.n_sifted == 0:
            return 0.0
        agree = int(np.trace(self.counts_p, axis1=1, axis2=2).sum())
        return (self.n_sifted - agree) / self.n_sifted

    def to_json(self) -> str:
        return json.dumps({
            "n_rounds": self.n_rounds,
            "seed": self.seed,
            "counts_p": self.counts_p.astype(int).ravel().tolist(),
            "empirical_p": self.empirical_p.ravel().tolist(),
            "counts_basis_err": self.counts_basis_err.astype(int).tolist(),
            "empirical_basis_err": self.empirical_basis_err.tolist(),
            "noise_rounds_per_sent": self.noise_rounds_per_sent.astype(int).tolist(),
            "sifted_fraction": self.sifted_fraction,
            "n_sifted": self.n_sifted,
            "raw_key_error_rate": self.raw_key_error_rate,
        })


def _category_sizes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rounds per category over n rounds, keyed sent*4 + alt*2 + reflect.

    The flags are drawn as three int64 arrays in the order alternative
    basis, reflect, sent; the stream depends on that order.
    """
    key = rng.integers(0, 2, size=n)
    key *= 2
    key += rng.integers(0, 2, size=n)
    sent = rng.integers(0, 3, size=n)
    sent *= 4
    key += sent
    return np.bincount(key, minlength=12)


def run_protocol(n: int, attack: AttackModel, variant: str = "phi1",
                 seed: int = 0) -> SimulationResult:
    """Simulate n rounds and aggregate the protocol statistics."""
    if n < 1:
        raise ValueError("need at least one round")
    rng = np.random.default_rng(seed)
    fams = vector_families(attack)
    counts_p = np.zeros((3, 9), dtype=np.int64)
    alt_reflect = np.zeros((3, 3), dtype=np.int64)
    # kind = alt*2 + reflect: raw key (canonical basis, measured) and noise
    # estimation (alternative basis, reflected) with their outcome tables
    reported = {0: (p_table_from_attack(fams).reshape(3, 9), counts_p),
                3: (alt_basis_table(fams, variant), alt_reflect)}

    sizes = _category_sizes(rng, n)
    for c in np.flatnonzero(sizes):
        i, kind = divmod(int(c), 4)
        if kind not in reported:
            # Generator.choice takes exactly one Generator.random uniform
            # per round, so a discarded category only advances the stream
            rng.random(sizes[c])
            continue
        table, counts = reported[kind]
        probs = table[i]
        draws = rng.choice(probs.size, size=sizes[c], p=probs / probs.sum())
        counts[i] = np.bincount(draws, minlength=probs.size)

    counts_p = counts_p.reshape(3, 3, 3)
    per_sent = counts_p.sum(axis=(1, 2))[:, None, None]
    noise_rounds = alt_reflect.sum(axis=1)
    counts_basis_err = alt_reflect[_ERROR_CELLS]
    return SimulationResult(
        n_rounds=n, counts_p=counts_p,
        empirical_p=np.divide(counts_p, per_sent, out=np.zeros((3, 3, 3)),
                              where=per_sent > 0),
        counts_basis_err=counts_basis_err,
        empirical_basis_err=np.divide(
            counts_basis_err, noise_rounds[_ERR_SENT], out=np.zeros(6),
            where=noise_rounds[_ERR_SENT] > 0),
        noise_rounds_per_sent=noise_rounds, seed=seed)


def max_deviation_sigma(result: SimulationResult, table: StatTable) -> float:
    """Worst deviation of the 27 raw-key and 6 basis-error frequencies from
    the analytic StatTable, in binomial standard errors.

    A cell with no rounds counts 0; a cell whose analytic standard error
    is 0 counts 0 if it matches exactly and inf otherwise; a NaN cell (an
    analytic probability that rounding put outside [0, 1]) is skipped.
    """
    n = np.concatenate([np.repeat(result.counts_p.sum(axis=(1, 2)), 9),
                        result.noise_rounds_per_sent[_ERR_SENT]])
    p = np.concatenate([table.p.ravel(), table.basis_err])
    diff = np.abs(np.concatenate([result.empirical_p.ravel(),
                                  result.empirical_basis_err]) - p)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = diff / np.sqrt(p * (1 - p) / n)
    # a cell with no rounds gives 0 or NaN, an exact zero-variance match
    # 0/0 = NaN; fmax skips NaN
    return float(np.fmax.reduce(dev, initial=0.0))
