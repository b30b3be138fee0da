"""Observed statistics consumed by the key-rate bound.

A StatTable holds the 27 canonical-basis probabilities p[i, j, k]
(sender prepared |i>, receiver measured |j| and resent, sender finally
measured |k>) together with the six alternative-basis error probabilities
of the reflection rounds.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import term_tables as tables
from .attack import (Q_MAX, AttackModel, ChannelScenario, VectorFamilies,
                     vector_families)
from .linalg import OMEGA

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class StatTable:
    """27 canonical-basis probabilities plus six alternative-basis errors.

    basis_err is ordered (0->1, 0->2, 1->0, 1->2, 2->0, 2->1).
    """

    p: np.ndarray          # (3, 3, 3) float
    basis_err: np.ndarray  # (6,) float
    variant: str           # phi1 | phi2

    def __post_init__(self):
        p = self.p
        if p.shape != (3, 3, 3):
            raise ValueError("p must be a 3x3x3 table")
        if self.variant not in tables.X54_COEFFICIENT:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not (np.isfinite(p).all() and np.isfinite(self.basis_err).all()):
            raise ValueError("table entries must be finite")
        check_p_tables(p)
        if self.basis_err.shape != (6,):
            raise ValueError("basis_err must have six entries")

    def to_json(self) -> str:
        return json.dumps({
            "p": [float(self.p[i, j, k])
                  for i in range(3) for j in range(3) for k in range(3)],
            "basis_err": [float(v) for v in self.basis_err],
            "variant": "Phi1" if self.variant == "phi1" else "Phi2",
        })

    @classmethod
    def from_json(cls, text: str) -> "StatTable":
        doc = json.loads(text)
        p = np.array(doc["p"], dtype=float).reshape(3, 3, 3)
        return cls(p, np.array(doc["basis_err"], dtype=float),
                   doc["variant"].lower())


def check_p_tables(p: np.ndarray) -> None:
    """Reject tables p (..., 3, 3, 3) with an entry outside [0, 1] or an
    input row whose probabilities do not sum to 1."""
    if (p < -1e-12).any() or (p > 1 + 1e-12).any():
        raise ValueError("table entries outside [0, 1]")
    rows = p.sum(axis=(-2, -1))
    bad = np.abs(rows - 1.0).max(axis=-1) > ROW_SUM_TOL
    if bad.any():
        raise ValueError(f"per-input sums {rows[bad][0]} differ from 1")


@dataclass(frozen=True)
class JointDistribution:
    """Joint raw-key distribution p(b, a) and the sender marginal."""

    joint: np.ndarray      # (3, 3), index [b, a]
    marginal_a: np.ndarray  # (3,)
    weighting: str          # as-printed | normalized


def p_table_from_attack(fams: VectorFamilies) -> np.ndarray:
    """27 probabilities from the record vectors: squared norms of e^k_{j, 3i+j}."""
    p = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                v = fams.ekij[(k, j, 3 * i + j)]
                p[i, j, k] = np.vdot(v, v).real
    return p


def p_table_symmetric(q_forward, q_reverse) -> np.ndarray:
    """Analytic table for ternary symmetric noise in each direction.

    Scalar flip probabilities give one (3, 3, 3) table; arrays give one
    table per (broadcast) entry, shape (..., 3, 3, 3).  Each probability
    must lie in [0, 3/8], where the twirl attack realises the channel.
    """
    qf, qr = np.broadcast_arrays(np.asarray(q_forward, dtype=float),
                                 np.asarray(q_reverse, dtype=float))
    for q in (qf, qr):
        outside = ~((q >= 0.0) & (q <= Q_MAX))
        if np.any(outside):
            raise ValueError(f"per-pair flip probability {q[outside][0]} "
                             "outside [0, 3/8]")

    def trans(q):
        m = np.empty(q.shape + (3, 3))
        m[...] = q[..., None, None]
        m[..., range(3), range(3)] = (1.0 - 2.0 * q)[..., None]
        return m

    # p[..., i, j, k] = tf[..., i, j] * tr[..., j, k]
    return trans(qf)[..., :, :, None] * trans(qr)[..., None, :, :]


def basis_error_direct(fams: VectorFamilies, variant: str) -> np.ndarray:
    """Six alternative-basis error probabilities as direct squared norms."""
    family = fams.g if variant == "phi1" else fams.h
    out = np.empty(6)
    for idx, (i, j) in enumerate(tables.BASIS_ERROR_ORDER):
        v = family[3 * i + j]
        out[idx] = np.vdot(v, v).real
    return out


def f_gram(fams: VectorFamilies) -> np.ndarray:
    """9x9 Gram matrix <f_m|f_n> of the round-trip record vectors."""
    g = np.zeros((9, 9), dtype=complex)
    for m in range(9):
        for n in range(9):
            g[m, n] = np.vdot(fams.f[m], fams.f[n])
    return g


def basis_error_expanded(gram: np.ndarray, variant: str) -> np.ndarray:
    """Six error probabilities from the term tables over the f Gram matrix.

    Algebraically identical to basis_error_direct for any valid attack;
    kept as an independent path so either term-table or extraction bugs
    show up as a disagreement.
    """
    term_sets = tables.ERROR_TERMS[variant]
    out = np.empty(6)
    for idx, key in enumerate(tables.BASIS_ERROR_ORDER):
        acc = 1.0 / 3.0
        for phase, m, n in term_sets[key]:
            acc += (OMEGA**phase * gram[m, n]).real / 9.0
        out[idx] = acc
    return out


#: Flat indices of the (i, j, k) cells of the first three error patterns,
#: in the order they are added.
_T_CELLS = [np.ravel_multi_index(np.transpose(cells), (3, 3, 3)) for cells in (
    [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
    [(1, 0, 0), (2, 0, 0), (0, 1, 1), (2, 1, 1), (0, 2, 2), (1, 2, 2)],
    [(0, 0, 1), (0, 0, 2), (1, 1, 0), (1, 1, 2), (2, 2, 0), (2, 2, 1)])]


def t_value_array(p: np.ndarray) -> np.ndarray:
    """t_values of tables p (..., 3, 3, 3), stacked on a last axis of 4."""
    flat = p.reshape(p.shape[:-3] + (27,))
    t1, t2, t3 = (np.add.accumulate(flat[..., cells], axis=-1)[..., -1]
                  for cells in _T_CELLS)
    return np.stack([t1, t2, t3, flat.sum(axis=-1) - t1 - t2 - t3], axis=-1)


def t_values(p: np.ndarray) -> tuple[float, float, float, float]:
    """Total probabilities of the four error patterns of a round.

    t1: no error either way; t2: outbound error only; t3: return error
    only; t4: errors both ways.  They sum to 3 (one per prepared state).
    """
    return tuple(t_value_array(np.asarray(p, dtype=float)).tolist())


_JOINT_WEIGHTS = np.where(np.eye(3, dtype=bool), 1.0 / 3.0, 2.0 / 3.0)


def joint_tables(p: np.ndarray, weighting: str = "as-printed"
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Joint raw-key distributions (..., 3, 3), index [b, a], of tables p
    (..., 3, 3, 3), with their sender marginals (..., 3)."""
    if weighting not in ("as-printed", "normalized"):
        raise ValueError(f"unknown weighting {weighting!r}")
    joint = _JOINT_WEIGHTS * p.sum(axis=-3)
    if weighting == "normalized":
        joint = joint / joint.sum(axis=(-2, -1))[..., None, None]
    return joint, joint.sum(axis=-2)


def joint_and_marginal(p: np.ndarray, weighting: str = "as-printed") -> JointDistribution:
    """Raw-key joint distribution p(b, a) with its sender marginal.

    The as-printed weighting gives matching-symbol cells weight 1/3 and
    mismatched cells 2/3, which does not sum to 1 under noise (mass
    1 + 2Q for the symmetric channel); "normalized" rescales by the total
    mass.  Both are exposed because the two disagree on H(B|A).
    """
    joint, marginal = joint_tables(np.asarray(p, dtype=float), weighting)
    return JointDistribution(joint, marginal, weighting)


def stat_table_from_attack(attack: AttackModel, variant: str) -> StatTable:
    """Exact observed statistics of a concrete attack."""
    fams = vector_families(attack)
    return StatTable(p_table_from_attack(fams),
                     basis_error_direct(fams, variant), variant)


def stat_table_for_scenario(scenario: ChannelScenario) -> StatTable:
    """Analytic statistics of a noise scenario (symmetric channel)."""
    p = p_table_symmetric(scenario.q, scenario.q)
    err = np.full(6, scenario.basis_error_value())
    return StatTable(p, err, scenario.variant)
