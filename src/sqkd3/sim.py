"""Monte Carlo execution of the protocol's quantum communication stage.

Each round the sender prepares one of six states (canonical basis or the
variant's alternative basis, uniformly), the receiver either measures in
the canonical basis and resends or reflects (uniformly), and the sender
measures the returning qutrit in her preparation basis.  The attack's
isometries act on both channel passes.

Per-round outcomes are sampled from the exact amplitude-level conditional
distributions implied by the attack; the eavesdropper's ancilla is traced
implicitly since only sender/receiver statistics are collected.  Given a
seed, results are reproducible byte for byte (numpy PCG64 generator).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .term_tables import BASIS_ERROR_ORDER
from .attack import AttackModel, vector_families
from .linalg import basis_vectors, sq_norms
from .stats import (StatTable, alt_basis_table, measure_records,
                    p_table_from_attack)

_ERR_SENT, _ERR_FINAL = np.array(BASIS_ERROR_ORDER).T


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


def _conditional_tables(attack: AttackModel, variant: str) -> dict:
    """Exact outcome distributions for the four round categories.

    Keys: ("A","M") -> (3,3,3) P(bob, final | sent); ("A","R") -> (3,3)
    P(final | sent); ("alt","M") and ("alt","R") analogous in the
    alternative basis.
    """
    fams = vector_families(attack)
    alt = basis_vectors("T" if variant == "phi1" else "K")
    # by linearity, sending alt ket i and measuring alt ket k on the way
    # back leaves sum_ab alt[a,i] conj(alt[b,k]) e^b_{j,3a+j}
    alt_m = sq_norms(np.einsum("ai,bk,ajbd->ijkd", alt, alt.conj(),
                               measure_records(fams)))
    return {("A", "M"): p_table_from_attack(fams),
            ("A", "R"): sq_norms(fams.f).reshape(3, 3),
            ("alt", "M"): alt_m, ("alt", "R"): alt_basis_table(fams, variant)}


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
    tabs = _conditional_tables(attack, variant)

    sizes = _category_sizes(rng, n)
    # per sent value, in key order: canonical basis measured (raw key) and
    # reflected, alternative basis measured and reflected (noise
    # estimation); the two discarded categories are sampled all the same,
    # since the seeded stream depends on their draws
    kinds = [tabs[c].reshape(3, -1) for c in
             (("A", "M"), ("A", "R"), ("alt", "M"), ("alt", "R"))]
    counts = np.zeros((3, 4, 9), dtype=np.int64)
    for c in np.flatnonzero(sizes):
        i, kind = divmod(int(c), 4)
        probs = kinds[kind][i]
        draws = rng.choice(probs.size, size=sizes[c], p=probs / probs.sum())
        counts[i, kind, :probs.size] = np.bincount(draws, minlength=probs.size)

    counts_p = counts[:, 0].reshape(3, 3, 3)
    per_sent = counts_p.sum(axis=(1, 2))[:, None, None]
    alt_reflect = counts[:, 3, :3]
    noise_rounds = alt_reflect.sum(axis=1)
    counts_basis_err = alt_reflect[_ERR_SENT, _ERR_FINAL]
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
