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
from .attack import (Q_MAX, AttackModel, ChannelScenario, _json_document,
                     _json_numbers, check_conventions)
from .linalg import OMEGA, sequential_sum, sq_norms

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StatTable:
    """27 canonical-basis probabilities plus six alternative-basis errors,
    of one table or of each table of a stack.

    p is (..., 3, 3, 3) and basis_err (..., 6), with equal leading axes;
    basis_err is ordered (0->1, 0->2, 1->0, 1->2, 2->0, 2->1).  Both are
    numpy arrays of real probabilities, each in [0, 1] up to 1e-12.  The
    table keeps read-only float64 copies of the arrays it is given and
    checks those, so no later write reaches a value that was not checked.
    Equality is identity.
    """

    p: np.ndarray          # (..., 3, 3, 3) float
    basis_err: np.ndarray  # (..., 6) float
    variant: str

    def __post_init__(self):
        for name, axes in (("p", (3, 3, 3)), ("basis_err", (6,))):
            x = _trailing(name, getattr(self, name), axes)
            if x.dtype.kind not in "biuf":  # bool, integer or float
                raise ValueError(f"{name} must hold real numbers, got dtype "
                                 f"{x.dtype}")
            x = x.astype(np.float64, order="C")
            x.flags.writeable = False
            object.__setattr__(self, name, x)
        p, err = self.p, self.basis_err
        if p.shape[:-3] != err.shape[:-1]:
            raise ValueError(f"p shape {p.shape} and basis_err shape "
                             f"{err.shape} have different leading axes")
        check_conventions(variant=self.variant)
        check_p_tables(p)  # NaN and infinite entries included
        if not _in_unit_interval(err):
            raise ValueError("basis errors outside [0, 1]")

    def to_json(self) -> str:
        _one_table(self)
        return json.dumps({"p": self.p.ravel().tolist(),
                           "basis_err": self.basis_err.tolist(),
                           "variant": self.variant.capitalize()})

    @classmethod
    def from_json(cls, text: str) -> "StatTable":
        doc = _json_document(text, ("p", "basis_err", "variant"))
        if not isinstance(doc["variant"], str):
            raise ValueError(f"variant must be a string, got {doc['variant']!r}")
        return cls(_json_numbers(doc, "p", (27,)).reshape(3, 3, 3),
                   _json_numbers(doc, "basis_err", (6,)), doc["variant"].lower())


def _one_table(table: StatTable) -> StatTable:
    """table, if it holds one table; a stack raises."""
    if table.p.ndim > 3:
        raise ValueError("expected one table, got a stack of shape "
                         f"{table.p.shape[:-3]}")
    return table


def _trailing(name: str, x, axes: tuple) -> np.ndarray:
    """x, if it is an array (..., *axes) of one table or a stack."""
    if not (isinstance(x, np.ndarray) and x.shape[-len(axes):] == axes):
        raise ValueError(f"{name} must be an array (..., "
                         f"{', '.join(map(str, axes))}), got "
                         f"{getattr(x, 'shape', type(x).__name__)}")
    return x


def _in_unit_interval(x: np.ndarray) -> bool:
    """Whether every entry of x lies in [0, 1] up to 1e-12; NaN does not."""
    # min and max propagate NaN, and a NaN bound fails both comparisons
    return bool(x.min(initial=np.inf) >= -1e-12
                and x.max(initial=-np.inf) <= 1 + 1e-12)


def check_p_tables(p: np.ndarray) -> None:
    """Reject tables p (..., 3, 3, 3) with an entry outside [0, 1] (NaN
    included) or an input row whose probabilities do not sum to 1."""
    if not _in_unit_interval(p):
        raise ValueError("table entries outside [0, 1]")
    rows = p.sum(axis=(-2, -1))
    bad = np.abs(rows - 1.0).max(axis=-1) > ROW_SUM_TOL
    if bad.any():
        raise ValueError(f"per-input sums {rows[bad][0]} differ from 1")


_I, _J, _K = np.indices((3, 3, 3))

#: Error pattern of cell [i, j, k] (sent, receiver found, sender found):
#: 0 no error, 1 outbound error only, 2 return error only, 3 both.
ERROR_PATTERN = (_I != _J) + 2 * (_J != _K)


def p_table_from_attack(fams: AttackModel) -> np.ndarray:
    """27 probabilities (..., 3, 3, 3) from the record vectors: squared
    norms of fams.records, with the families' stack axes leading."""
    return sq_norms(fams.records)


def alt_basis_table(fams: AttackModel, variant: str) -> np.ndarray:
    """P(final | sent) (..., 3, 3) of the alternative-basis reflection
    rounds: squared norms of the T-basis (phi1) or K-basis (phi2) round-trip
    records, with the families' stack axes leading."""
    check_conventions(variant=variant)
    norms = sq_norms(fams.g if variant == "phi1" else fams.h)
    return norms.reshape(norms.shape[:-1] + (3, 3))


_DIAGONAL = np.eye(3, dtype=bool)


def p_table_symmetric(q_forward, q_reverse) -> np.ndarray:
    """Analytic table for ternary symmetric noise in each direction.

    Scalar flip probabilities give one (3, 3, 3) table; arrays give one
    table per (broadcast) entry, shape (..., 3, 3, 3).  Each probability
    must lie in [0, 3/8], where the twirl attack realises the channel.
    """
    q = np.array(np.broadcast_arrays(np.asarray(q_forward, dtype=float),
                                     np.asarray(q_reverse, dtype=float)))
    outside = ~((q >= 0.0) & (q <= Q_MAX))
    if outside.any():  # q[outside] lists the forward entries first
        raise ValueError(f"per-pair flip probability {q[outside][0]} "
                         "outside [0, 3/8]")
    # the transition matrices of the two directions: 1 - 2q on the
    # diagonal, q off it
    tf, tr = np.where(_DIAGONAL, (1.0 - 2.0 * q)[..., None, None],
                      q[..., None, None])
    # p[..., i, j, k] = tf[..., i, j] * tr[..., j, k]
    return tf[..., :, :, None] * tr[..., None, :, :]


_ERROR_CELLS = tuple(np.transpose(tables.BASIS_ERROR_ORDER))


def basis_error_direct(fams: AttackModel, variant: str) -> np.ndarray:
    """Six alternative-basis error probabilities (..., 6) as direct squared
    norms."""
    return alt_basis_table(fams, variant)[(..., *_ERROR_CELLS)]


def f_gram(fams: AttackModel) -> np.ndarray:
    """9x9 Gram matrices <f_m|f_n> (..., 9, 9) of the round-trip record
    vectors."""
    return fams.f.conj() @ fams.f.swapaxes(-1, -2)


#: Term arrays compiled from tables.ERROR_TERMS, per variant:
#: (source table, wr, wi, flat Gram index).
_COMPILED_TERMS: dict = {}


def _compile_terms(term_sets: dict) -> tuple[np.ndarray, ...]:
    """Re and Im of omega**phase and the flat Gram index 9m + n of each
    term, as (6, 1 + longest row) arrays in BASIS_ERROR_ORDER.

    Column 0 and the padding after a row's last term have zero weights and
    index 81, a zero appended to the Gram matrix, so they add exact zeros.
    """
    rows = [term_sets[key] for key in tables.BASIS_ERROR_ORDER]
    shape = (6, 1 + max(len(terms) for terms in rows))
    wr, wi = np.zeros(shape), np.zeros(shape)
    index = np.full(shape, 81)
    for row, terms in enumerate(rows):
        for col, (phase, m, n) in enumerate(terms, start=1):
            w = OMEGA**phase
            wr[row, col], wi[row, col] = w.real, w.imag
            index[row, col] = 9 * m + n
    return wr, wi, index


def basis_error_expanded(gram: np.ndarray, variant: str) -> np.ndarray:
    """Six error probabilities (..., 6) from the term tables over the f Gram
    matrices (..., 9, 9).

    Algebraically identical to basis_error_direct for any valid attack;
    kept as an independent path so either term-table or extraction bugs
    show up as a disagreement.  The compiled term arrays are rebuilt
    whenever tables.ERROR_TERMS[variant] is replaced.
    """
    check_conventions(variant=variant)
    term_sets = tables.ERROR_TERMS[variant]
    compiled = _COMPILED_TERMS.get(variant)
    if compiled is None or compiled[0] is not term_sets:
        compiled = _COMPILED_TERMS[variant] = (term_sets,
                                               *_compile_terms(term_sets))
    _, wr, wi, index = compiled
    padded = np.zeros(gram.shape[:-2] + (82,), dtype=complex)
    padded[..., :81] = gram.reshape(gram.shape[:-2] + (81,))
    g = padded[..., index]
    # Re(omega**phase * <f_m|f_n>) / 9, summed in table order after 1/3
    terms = (wr * g.real - wi * g.imag) / 9.0
    terms[..., 0] = 1.0 / 3.0
    return np.add.accumulate(terms, axis=-1)[..., -1]


#: Flat indices of the (i, j, k) cells of error patterns 0-2, in the
#: receiver-major (j, i, k) order they are added.
_JIK = np.arange(27).reshape(3, 3, 3).transpose(1, 0, 2).ravel()
_T_CELLS = [_JIK[ERROR_PATTERN.ravel()[_JIK] == c] for c in range(3)]
#: The cells of _T_CELLS in one gather, and the run of each pattern in it.
_T_ORDER = np.concatenate(_T_CELLS)
_T_RUNS = (slice(0, 3), slice(3, 9), slice(9, 15))


def t_values(p: np.ndarray) -> np.ndarray:
    """Total probabilities (..., 4) of the four error patterns of a round,
    for tables p (..., 3, 3, 3).

    t1: no error either way; t2: outbound error only; t3: return error
    only; t4: errors both ways.  They sum to 3 (one per prepared state).
    """
    p = _trailing("p", np.asarray(p, dtype=float), (3, 3, 3))
    flat = p.reshape(-1, 27)
    cells = flat.T[_T_ORDER]
    t = np.empty((len(flat), 4))
    for c, run in enumerate(_T_RUNS):
        t[:, c] = sequential_sum(cells[run])
    t[:, 3] = flat.sum(axis=-1) - t[:, 0] - t[:, 1] - t[:, 2]
    return t.reshape(p.shape[:-3] + (4,))


_JOINT_WEIGHTS = np.where(np.eye(3, dtype=bool), 1.0 / 3.0, 2.0 / 3.0)


def joint_and_marginal(p: np.ndarray, weighting: str = "as-printed"
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Raw-key joint distributions p(b, a) (..., 3, 3), index [b, a], of
    tables p (..., 3, 3, 3), with their sender marginals (..., 3).

    The as-printed weighting gives matching-symbol cells weight 1/3 and
    mismatched cells 2/3, which does not sum to 1 under noise (mass
    1 + 2Q for the symmetric channel); "normalized" rescales by the total
    mass.  Both are exposed because the two disagree on H(B|A).
    """
    check_conventions(joint_weighting=weighting)
    p = _trailing("p", np.asarray(p, dtype=float), (3, 3, 3))
    joint = _JOINT_WEIGHTS * p.sum(axis=-3)
    if weighting == "normalized":
        joint = joint / joint.sum(axis=(-2, -1), keepdims=True)
    return joint, joint.sum(axis=-2)


def stat_table_from_attack(attack: AttackModel, variant: str) -> StatTable:
    """Exact observed statistics of a concrete attack, or the stack table of
    a stack of attacks, whose table t has the bits of attack t's own."""
    return StatTable(p_table_from_attack(attack),
                     basis_error_direct(attack, variant), variant)


def _scenario_table(q, model: str, basis_noise_convention: str,
                    variant: str) -> StatTable:
    """Analytic statistics of the symmetric channel at flip probability q,
    one table for a float q or a stack for a 1-d array: each basis error is
    q (dependent model) or 2q(2 - 3q) (independent), halved under the
    total basis-noise convention."""
    q = np.asarray(q, dtype=float)
    err = q if model == "dependent" else 2.0 * q * (2.0 - 3.0 * q)
    if basis_noise_convention == "total":
        err = err / 2.0
    return StatTable(p_table_symmetric(q, q),
                     np.repeat(err[..., None], 6, axis=-1), variant)


def stat_table_for_scenario(scenario: ChannelScenario) -> StatTable:
    """Analytic statistics of a noise scenario (symmetric channel)."""
    return _scenario_table(scenario.q, scenario.model,
                           scenario.basis_noise_convention, scenario.variant)
