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
from dataclasses import dataclass, field

import numpy as np

from .term_tables import BASIS_ERROR_ORDER
from .attack import AttackModel, vector_families
from .linalg import BasisSet, basis_vectors, sq_norms
from .stats import alt_basis_table, measure_records, p_table_from_attack


@dataclass(frozen=True)
class RoundRecord:
    """One protocol round; bob_result is present iff bob measured."""

    alice_basis: str          # "A" | "alt"
    alice_sent: int           # trit index within the chosen basis
    bob_op: str               # "M" | "R"
    bob_result: int | None
    alice_final: int

    def __post_init__(self):
        if (self.bob_result is None) != (self.bob_op == "R"):
            raise ValueError("bob_result must be present iff bob measured")


@dataclass
class SimulationResult:
    n_rounds: int
    counts_p: np.ndarray          # (3,3,3) counts over (sent, bob, final)
    empirical_p: np.ndarray       # frequencies, normalized per sent value
    counts_basis_err: np.ndarray  # (6,) counts in BASIS_ERROR_ORDER
    empirical_basis_err: np.ndarray
    noise_rounds_per_sent: np.ndarray  # (3,) alt-basis reflect rounds per state
    sifted_fraction: float
    raw_key_pairs: np.ndarray = field(repr=False)  # (n_sifted, 2) of (bob, alice)
    seed: int = 0

    @property
    def raw_key_error_rate(self) -> float:
        if len(self.raw_key_pairs) == 0:
            return 0.0
        return float(np.mean(self.raw_key_pairs[:, 0] != self.raw_key_pairs[:, 1]))

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
            "n_sifted": int(len(self.raw_key_pairs)),
            "raw_key_error_rate": self.raw_key_error_rate,
        })

    def category_counts_csv(self) -> str:
        lines = ["category,sent,bob,final,count"]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    lines.append(f"raw_key,{i},{j},{k},{int(self.counts_p[i, j, k])}")
        for idx, (i, j) in enumerate(BASIS_ERROR_ORDER):
            lines.append(f"basis_err,{i},,{j},{int(self.counts_basis_err[idx])}")
        return "\n".join(lines) + "\n"


def measure_in_basis(state: np.ndarray, basis: BasisSet,
                     rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Projective measurement of a pure qutrit state onto a basis."""
    state = np.asarray(state, dtype=complex)
    norm = np.vdot(state, state).real
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm {norm} deviates from 1")
    amps = basis.vectors.conj().T @ state
    probs = np.abs(amps) ** 2
    probs = probs / probs.sum()
    outcome = int(rng.choice(3, p=probs))
    return outcome, basis.vectors[:, outcome].copy()


def _alt_basis(variant: str) -> BasisSet:
    return basis_vectors("T" if variant == "phi1" else "K")


def _conditional_tables(attack: AttackModel, variant: str) -> dict:
    """Exact outcome distributions for the four round categories.

    Keys: ("A","M") -> (3,3,3) P(bob, final | sent); ("A","R") -> (3,3)
    P(final | sent); ("alt","M") and ("alt","R") analogous in the
    alternative basis.
    """
    fams = vector_families(attack)
    alt = _alt_basis(variant).vectors
    # by linearity, sending alt ket i and measuring alt ket k on the way
    # back leaves sum_ab alt[a,i] conj(alt[b,k]) e^b_{j,3a+j}
    alt_m = sq_norms(np.einsum("ai,bk,ajbd->ijkd", alt, alt.conj(),
                               measure_records(fams)))
    return {("A", "M"): p_table_from_attack(fams),
            ("A", "R"): sq_norms(fams.f).reshape(3, 3),
            ("alt", "M"): alt_m, ("alt", "R"): alt_basis_table(fams, variant)}


def run_protocol(n: int, attack: AttackModel, variant: str = "phi1",
                 seed: int = 0) -> SimulationResult:
    """Simulate n rounds and aggregate the protocol statistics."""
    if n < 1:
        raise ValueError("need at least one round")
    rng = np.random.default_rng(seed)
    tabs = _conditional_tables(attack, variant)

    basis_is_alt = rng.integers(0, 2, size=n).astype(bool)
    op_is_reflect = rng.integers(0, 2, size=n).astype(bool)
    sent = rng.integers(0, 3, size=n)

    counts_p = np.zeros((3, 3, 3), dtype=np.int64)
    counts_alt_reflect = np.zeros((3, 3), dtype=np.int64)
    raw_bob, raw_alice = [], []

    for i in range(3):
        # raw-key rounds: canonical basis, measure-and-resend
        sel = (~basis_is_alt) & (~op_is_reflect) & (sent == i)
        m = int(sel.sum())
        if m:
            probs = tabs[("A", "M")][i].ravel()
            draws = rng.choice(9, size=m, p=probs / probs.sum())
            js, ks = draws // 3, draws % 3
            np.add.at(counts_p[i], (js, ks), 1)
            raw_bob.append(js)
            raw_alice.append(ks)
        # canonical basis, reflected (not used in statistics, still sampled)
        sel = (~basis_is_alt) & op_is_reflect & (sent == i)
        m = int(sel.sum())
        if m:
            probs = tabs[("A", "R")][i]
            rng.choice(3, size=m, p=probs / probs.sum())
        # alternative basis, measured (discarded at sifting, still sampled)
        sel = basis_is_alt & (~op_is_reflect) & (sent == i)
        m = int(sel.sum())
        if m:
            probs = tabs[("alt", "M")][i].ravel()
            rng.choice(9, size=m, p=probs / probs.sum())
        # alternative basis, reflected: noise-estimation rounds
        sel = basis_is_alt & op_is_reflect & (sent == i)
        m = int(sel.sum())
        if m:
            probs = tabs[("alt", "R")][i]
            draws = rng.choice(3, size=m, p=probs / probs.sum())
            np.add.at(counts_alt_reflect[i], draws, 1)

    per_sent = counts_p.sum(axis=(1, 2))
    empirical_p = np.zeros((3, 3, 3))
    for i in range(3):
        if per_sent[i]:
            empirical_p[i] = counts_p[i] / per_sent[i]

    counts_basis_err = np.zeros(6, dtype=np.int64)
    empirical_basis_err = np.zeros(6)
    alt_sent_totals = counts_alt_reflect.sum(axis=1)
    for idx, (i, j) in enumerate(BASIS_ERROR_ORDER):
        counts_basis_err[idx] = counts_alt_reflect[i, j]
        if alt_sent_totals[i]:
            empirical_basis_err[idx] = counts_alt_reflect[i, j] / alt_sent_totals[i]

    bob = np.concatenate(raw_bob) if raw_bob else np.empty(0, dtype=np.int64)
    alice = np.concatenate(raw_alice) if raw_alice else np.empty(0, dtype=np.int64)
    sifted = np.stack([bob, alice], axis=1) if len(bob) else np.empty((0, 2), int)

    return SimulationResult(
        n_rounds=n, counts_p=counts_p, empirical_p=empirical_p,
        counts_basis_err=counts_basis_err,
        empirical_basis_err=empirical_basis_err,
        noise_rounds_per_sent=alt_sent_totals,
        sifted_fraction=float(len(bob)) / n,
        raw_key_pairs=sifted, seed=seed)


def simulate_round(attack: AttackModel, variant: str,
                   rng: np.random.Generator) -> RoundRecord:
    """State-vector simulation of a single round, for record-level checks."""
    use_alt = bool(rng.integers(0, 2))
    reflect = bool(rng.integers(0, 2))
    sent = int(rng.integers(0, 3))
    basis = _alt_basis(variant) if use_alt else basis_vectors("A")

    state = attack.forward @ basis.ket(sent)          # (3*d_f,)
    d_f, d_r = attack.d_f, attack.d_r
    bob_result = None
    if not reflect:
        blocks = state.reshape(3, d_f)
        probs = np.array([np.vdot(b, b).real for b in blocks])
        j = int(rng.choice(3, p=probs / probs.sum()))
        bob_result = j
        collapsed = np.zeros_like(state)
        collapsed[j * d_f:(j + 1) * d_f] = blocks[j] / np.sqrt(probs[j])
        state = collapsed
    state = attack.reverse @ state                    # (3*d_f*d_r,)
    blocks = state.reshape(3, d_f * d_r)
    amps = np.zeros((3, d_f * d_r), dtype=complex)
    for k in range(3):
        for b in range(3):
            amps[k] += np.conj(basis.vectors[b, k]) * blocks[b]
    probs = np.array([np.vdot(a, a).real for a in amps])
    final = int(rng.choice(3, p=probs / probs.sum()))

    return RoundRecord(alice_basis="alt" if use_alt else "A",
                       alice_sent=sent, bob_op="R" if reflect else "M",
                       bob_result=bob_result, alice_final=final)
