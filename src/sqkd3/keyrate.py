"""Asymptotic key-rate lower bound for the qutrit two-way protocol.

The rate is S(B|EC) - H(B|A): the entropy of the joint record ensemble,
minus a term for the conditioned eavesdropper entropy S(EC), minus the
raw-key conditional entropy H(B|A).  For the rate to be a lower bound the
S(EC) term must be an upper bound on S(EC).  The key rate evaluates the
paper's printed expression for it (s_ec_upper), built from the
closed-form eigenvalues of the no-error block; that expression is not an
upper bound (it falls short of the exact S(EC) of the symmetric twirl,
see the README).  s_ec_bound is a certified upper bound, which the key
rate does not use yet.  Two evaluation semantics are exposed:

* "as-printed": the statistic X feeds p = max(X, 0)^2 directly and the
  closed-form eigenvalues are evaluated wherever the formulas take them
  (including complex or out-of-[0,1] values), with the real part of
  -lam log3 lam used for the entropy terms.  This mode reproduces the numeric
  behaviour behind the reference noise-tolerance curves that the acceptance suite pins.
* "corrected": p = max(X, 0)^2 / 3 capped at the Cauchy-Schwarz
  feasibility ceiling, discriminant floored at zero and eigenvalues
  clamped to [0, 1].  All entropy terms are then genuine entropies.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import term_tables as tables
from .attack import (Q_MAX, ChannelScenario, VectorFamilies,
                     alternative_basis_error, check_conventions)
from .linalg import LN3, entropy3, shannon_entropy3, von_neumann_entropy3
from .stats import (ERROR_PATTERN, JointDistribution, StatTable,
                    check_p_tables, joint_tables, measure_records,
                    p_table_symmetric, stat_table_for_scenario, t_value_array)


@dataclass(frozen=True)
class KeyRateReport:
    """Every intermediate of one key-rate evaluation."""

    t: tuple
    X: float
    S_clamped: float
    p_lower: float
    lambda1: float
    lambda2: float
    S_BEC: float
    S_EC_upper: float
    H_B_given_A: float
    r: float
    convention_flags: dict

    def to_json(self) -> str:
        doc = {k: (list(v) if isinstance(v, tuple) else v)
               for k, v in self.__dict__.items()}
        return json.dumps(doc)


@dataclass(frozen=True)
class Sigma1Decomposition:
    """Parameters of the no-error block written on an auxiliary basis.

    The block is chi|a> + sigma|b> + rho_c|c> together with two vectors of
    squared lengths p111 and p222 lying along |c>.
    """

    chi: complex
    sigma: complex
    rho_c: complex
    p111: float
    p222: float

    @property
    def p000(self) -> float:
        return abs(self.chi) ** 2 + abs(self.sigma) ** 2 + abs(self.rho_c) ** 2

    @property
    def p_value(self) -> float:
        """Sum of squared overlaps between the three block vectors."""
        return (abs(self.rho_c) ** 2 * (self.p111 + self.p222)
                + self.p111 * self.p222)

    def matrix(self) -> np.ndarray:
        """The normalized block operator on the auxiliary basis {a, b, c}."""
        chi, sg, rh = self.chi, self.sigma, self.rho_c
        m = np.array([
            [abs(chi) ** 2, chi * np.conj(sg), chi * np.conj(rh)],
            [sg * np.conj(chi), abs(sg) ** 2, sg * np.conj(rh)],
            [rh * np.conj(chi), rh * np.conj(sg),
             self.p111 + self.p222 + abs(rh) ** 2],
        ], dtype=complex)
        return m / (self.p000 + self.p111 + self.p222)


#: Flat indices (n_terms, 2) of the two cells of each square-root term of X.
_X_POS, _X_NEG = (np.ravel_multi_index(np.transpose(pairs), (3, 3, 3)).T
                  for pairs in (tables.X_SQRT_POS, tables.X_SQRT_NEG))


def _sqrt_product_sum(flat: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """sum of sqrt(p_a p_b) over the cell pairs, added in list order."""
    terms = np.sqrt(flat[..., pairs[:, 0]] * flat[..., pairs[:, 1]])
    return np.add.accumulate(terms, axis=-1)[..., -1]


def _x_stat(p: np.ndarray, basis_err: np.ndarray, variant: str) -> np.ndarray:
    flat = p.reshape(p.shape[:-3] + (27,))
    c54 = tables.X54_COEFFICIENT[variant]
    return (3.0 - 1.5 * basis_err.sum(axis=-1)
            + c54 * _sqrt_product_sum(flat, _X_POS) - _sqrt_product_sum(flat, _X_NEG))


def x_bound(table: StatTable) -> float:
    """The observable statistic bounding the no-error block overlaps."""
    return float(_x_stat(table.p, table.basis_err, table.variant))


def _square(x):
    # libm pow, as scalar `x ** 2` computes it; an array `x ** 2` is an
    # exact product, which differs from pow in the last bit on some inputs.
    return np.float_power(x, 2)


def _clamped_square(x):
    return _square(np.maximum(x, 0.0))


#: Flat indices of the no-error cells (a, a, a) and of the other 24 cells.
_NO_ERROR_CELLS = np.flatnonzero(ERROR_PATTERN == 0)
_ERROR_CELLS = np.flatnonzero(ERROR_PATTERN)


def _no_error_diagonal(p: np.ndarray) -> tuple:
    """(p000, p111, p222) of tables p (..., 3, 3, 3)."""
    flat = p.reshape(p.shape[:-3] + (27,))
    return tuple(flat[..., cell] for cell in _NO_ERROR_CELLS)


def _ceiling(p: np.ndarray) -> np.ndarray:
    """Largest overlap sum compatible with the three diagonal entries."""
    p000, p111, p222 = _no_error_diagonal(p)
    return p000 * p111 + p000 * p222 + p111 * p222


def _p_lower(s, p: np.ndarray, mode: str) -> np.ndarray:
    # s is the clamped square max(X, 0)^2
    if mode == "as-printed":
        return s
    if mode == "corrected":
        return np.minimum(s / 3.0, _ceiling(p))
    raise ValueError(f"unknown p mode {mode!r}")


def p_lower_bound(x: float, table: StatTable, mode: str = "as-printed") -> float:
    """The overlap quantity fed to the eigenvalue forms, as key_rate reports
    it in p_lower.

    as-printed: max(x, 0)^2, uncapped; corrected: max(x, 0)^2 / 3 capped
    at the feasibility ceiling p000 p111 + p000 p222 + p111 p222.  Neither
    is a lower bound on the no-error overlap sum (no_error_overlap): on
    the symmetric twirl the corrected value is 2.548 against an exact
    2.342 at Q = 0.02, and 1.968 against 1.566 at Q = 0.05.
    """
    return float(_p_lower(_clamped_square(x), table.p, mode))


def _block_total(p000, p111, p222):
    total = p000 + p111 + p222
    if np.any(total <= 0):
        raise ValueError("eigenvalue forms need p000 + p111 + p222 > 0")
    return total


def _discriminant(p000, p111, p222, p):
    return (4.0 * p + _square(p000) - 2.0 * p000 * p111 + _square(p111)
            - 2.0 * p000 * p222 - 2.0 * p111 * p222 + _square(p222))


def _sigma1_eigenvalues(p000, p111, p222, p):
    total = _block_total(p000, p111, p222)
    disc = np.maximum(_discriminant(p000, p111, p222, p), 0.0)
    half_spread = np.sqrt(disc) / (2.0 * total)
    return (np.minimum(np.maximum(0.5 + half_spread, 0.0), 1.0),
            np.minimum(np.maximum(0.5 - half_spread, 0.0), 1.0))


def sigma1_eigenvalues(p000: float, p111: float, p222: float,
                       p: float) -> tuple[float, float]:
    """Closed-form nonzero eigenvalues of the normalized no-error block.

    Discriminant floored at zero, results clamped to [0, 1]; the third
    eigenvalue is identically zero.
    """
    lam1, lam2 = _sigma1_eigenvalues(p000, p111, p222, p)
    return float(lam1), float(lam2)


def _eigenvalue_entropy(lam) -> np.ndarray:
    """-lam log3 lam of real eigenvalues in [0, 1], elementwise."""
    return entropy3(np.asarray(lam)[..., None])


def _entropy_term_analytic(lam: np.ndarray) -> np.ndarray:
    """Re(-lam log3 lam), principal branch; 0 at lam = 0."""
    zero = lam == 0
    return np.where(zero, 0.0, (-lam * np.log(np.where(zero, 1.0, lam))).real / LN3)


def _sigma1_terms(p000, p111, p222, p, mode: str):
    if mode == "corrected":
        lam1, lam2 = _sigma1_eigenvalues(p000, p111, p222, p)
        return lam1, lam2, _eigenvalue_entropy(lam1) + _eigenvalue_entropy(lam2)
    if mode != "as-printed":
        raise ValueError(f"unknown p mode {mode!r}")
    total = _block_total(p000, p111, p222)
    disc = np.asarray(_discriminant(p000, p111, p222, p), dtype=complex)
    half_spread = np.sqrt(disc) / (2 * total)
    lam1, lam2 = 0.5 + half_spread, 0.5 - half_spread
    return (lam1.real, lam2.real,
            _entropy_term_analytic(lam1) + _entropy_term_analytic(lam2))


def sigma1_entropy_terms(p000: float, p111: float, p222: float, p: float,
                         mode: str) -> tuple[float, float, float]:
    """(lambda1, lambda2, entropy term sum) under the chosen semantics."""
    lam1, lam2, ent = _sigma1_terms(p000, p111, p222, p, mode)
    return float(lam1), float(lam2), float(ent)


def _s_bec(p: np.ndarray) -> np.ndarray:
    return entropy3(p.reshape(p.shape[:-3] + (27,)) / 3.0)


def s_bec(table: StatTable) -> float:
    """Entropy of the full record ensemble: H3 of the 27 entries over 3."""
    return float(_s_bec(table.p))


def _s_ec_upper(t: np.ndarray, ent) -> np.ndarray:
    """s_ec_upper for t (..., 4) with eigenvalue entropy terms ent.

    The paper's printed expression, not a bound: see s_ec_upper.
    """
    return (entropy3(t / 3) + (t[..., 1] + t[..., 2] + t[..., 3]) / 3.0
            + t[..., 0] / 3.0 * ent)


def s_ec_upper(t: tuple, lam1: float, lam2: float) -> float:
    """The paper's printed evaluation expression for S(EC).

    H3(t/3) + (t2 + t3 + t4)/3 + (t1/3)(h(lam1) + h(lam2)).  It is not an
    upper bound on S(EC): it charges one trit per error block, whose
    entropy can reach log3 6 or log3 12, and assumes a rank-2 no-error
    block.  It falls short of the exact S(EC) of the symmetric twirl and
    of random attacks.  The key rate evaluates it as printed; s_ec_bound
    is the certified upper bound.
    """
    ent = _eigenvalue_entropy(lam1) + _eigenvalue_entropy(lam2)
    return float(_s_ec_upper(np.asarray(t, dtype=float), ent))


def no_error_overlap(fams: VectorFamilies) -> float:
    """Sum over a < b of |<e_aaa|e_bbb>|^2, the no-error block's overlaps."""
    vecs = measure_records(fams).reshape(27, -1)[_NO_ERROR_CELLS]
    return float(sum(abs(np.vdot(vecs[a], vecs[b])) ** 2
                     for a, b in ((0, 1), (0, 2), (1, 2))))


def s_ec_bound(p: np.ndarray, overlap: float) -> float:
    """Certified upper bound on the conditioned eavesdropper entropy S(EC).

    p is the attack's 3x3x3 table.  Valid whenever overlap is at most the
    attack's no-error overlap sum (no_error_overlap); it is clipped to
    [0, feasibility ceiling], where that sum always lies.

    S(EC) = H(C) + sum_c P(c) S(E|c), with P(c) the pattern weight t_c/3.
    An error block mixes its record vectors with weights p_ijk/t_c, so its
    entropy is at most their Shannon entropy; with H(C) that sums to the
    entropy of t1/3 and the 24 error cells p_ijk/3.  The no-error block
    spans three vectors and has purity at least
    P = (p000^2 + p111^2 + p222^2 + 2 overlap)/t1^2; the largest entropy of
    a three-level spectrum with purity P is that of (a, b, b) with
    a = (1 + sqrt(2(3P - 1)))/3.
    """
    p = np.asarray(p, dtype=float)
    flat = p.reshape(27)
    diag = flat[_NO_ERROR_CELLS]
    t1 = diag.sum()
    outer = entropy3(np.concatenate([[t1], flat[_ERROR_CELLS]]) / 3.0)
    if t1 <= 0.0:
        return float(outer)
    overlap = min(max(overlap, 0.0), float(_ceiling(p)))
    purity = (np.sum(diag * diag) + 2.0 * overlap) / (t1 * t1)
    a = min((1.0 + np.sqrt(2.0 * max(3.0 * purity - 1.0, 0.0))) / 3.0, 1.0)
    b = (1.0 - a) / 2.0
    return float(outer + t1 / 3.0 * entropy3([a, b, b]))


def _h_b_given_a(joint: np.ndarray, marginal: np.ndarray) -> np.ndarray:
    return entropy3(joint.reshape(joint.shape[:-2] + (9,))) - entropy3(marginal)


def h_b_given_a(jd: JointDistribution) -> float:
    """Conditional entropy H(B|A) = H(joint) - H(marginal of A)."""
    return float(_h_b_given_a(jd.joint, jd.marginal_a))


def _evaluate(p: np.ndarray, basis_err: np.ndarray, variant: str,
              weighting: str, p_mode: str) -> dict:
    """The key-rate bound on tables p (N, 3, 3, 3) with errors (N, 6).

    Returns one length-N array per intermediate, keyed as the sweep columns
    (t1..t4, X, p_lower, lambda1, lambda2, S_BEC, S_EC_upper, H_B_given_A,
    r) plus S_clamped.
    """
    t = t_value_array(p)
    x = _x_stat(p, basis_err, variant)
    s_clamped = _clamped_square(x)
    p_low = _p_lower(s_clamped, p, p_mode)
    lam1, lam2, ent = _sigma1_terms(*_no_error_diagonal(p), p_low, p_mode)
    bec = _s_bec(p)
    ec_upper = _s_ec_upper(t, ent)
    hba = _h_b_given_a(*joint_tables(p, weighting))
    return {"t1": t[:, 0], "t2": t[:, 1], "t3": t[:, 2], "t4": t[:, 3], "X": x,
            "S_clamped": s_clamped, "p_lower": p_low, "lambda1": lam1,
            "lambda2": lam2, "S_BEC": bec, "S_EC_upper": ec_upper,
            "H_B_given_A": hba, "r": bec - ec_upper - hba}


def key_rate_curve(q, model: str = "dependent", variant: str = "phi1",
                   basis_noise_convention: str = "per-pair",
                   joint_weighting: str = "as-printed",
                   p_mode: str = "as-printed") -> dict:
    """Key-rate bound of symmetric-noise scenarios over a 1-d array of q.

    One numpy pass over all points; entry i of every array equals the
    field of key_rate(ChannelScenario(q[i], ...)) bit for bit.  Returns
    one array per key: Q, t1..t4, X, S_clamped, p_lower, lambda1, lambda2,
    S_BEC, S_EC_upper, H_B_given_A and r.
    """
    check_conventions(model, variant, basis_noise_convention, joint_weighting,
                      p_mode)
    q = np.asarray(q, dtype=float)
    p = p_table_symmetric(q, q)
    check_p_tables(p)
    err = alternative_basis_error(q, model, basis_noise_convention)
    cols = _evaluate(p, np.repeat(err[:, None], 6, axis=1), variant,
                     joint_weighting, p_mode)
    return {"Q": q, **cols}


def key_rate_from_table(table: StatTable, weighting: str = "as-printed",
                        p_mode: str = "as-printed",
                        convention_flags: dict | None = None) -> KeyRateReport:
    """Evaluate the key-rate bound on an explicit statistics table."""
    cols = {k: v[0].item() for k, v in _evaluate(
        table.p[None], table.basis_err[None], table.variant, weighting,
        p_mode).items()}
    flags = dict(convention_flags or {})
    flags.setdefault("joint_weighting", weighting)
    flags.setdefault("p_mode", p_mode)
    return KeyRateReport(t=tuple(cols.pop(k) for k in ("t1", "t2", "t3", "t4")),
                         convention_flags=flags, **cols)


def key_rate(scenario: ChannelScenario) -> KeyRateReport:
    """Key-rate bound of a symmetric-noise scenario."""
    table = stat_table_for_scenario(scenario)
    return key_rate_from_table(table, scenario.joint_weighting,
                               scenario.p_mode, scenario.flags())


def find_threshold(variant: str, model: str,
                   basis_noise_convention: str = "per-pair",
                   joint_weighting: str = "as-printed",
                   p_mode: str = "as-printed") -> float | None:
    """Smallest noise level at which the key-rate bound hits zero.

    Evaluates a fixed grid of 400 evenly spaced points over [0, 3/8] in one
    pass, takes its first sign change, then bisects to |dQ| < 1e-6.
    Returns None when the rate stays positive on the whole range.
    """
    def rate(q):
        return key_rate_curve(q, model, variant, basis_noise_convention,
                              joint_weighting, p_mode)["r"]

    grid = np.linspace(0.0, Q_MAX, 400)
    r = rate(grid)
    down = np.flatnonzero((r[:-1] > 0.0) & (r[1:] <= 0.0))
    if down.size == 0:
        return None
    hi = grid[down[0] + 1]
    lo = hi - (grid[1] - grid[0])
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if rate([mid])[0] > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lemma1_check(blocks: list) -> tuple[float, float]:
    """Entropy of a classically labelled mixture, two ways.

    blocks is a list of (weight, density matrix).  Returns (lhs, rhs) with
    lhs the entropy of the assembled block-diagonal operator and rhs the
    label entropy plus the average block entropy; the two agree for exact
    inputs.
    """
    weights = [w for w, _ in blocks]
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-10:
        raise ValueError("weights must be nonnegative and sum to 1")
    dims = [b.shape[0] for _, b in blocks]
    full = np.zeros((sum(dims), sum(dims)), dtype=complex)
    offset = 0
    for (w, b), d in zip(blocks, dims):
        full[offset:offset + d, offset:offset + d] = w * np.asarray(b)
        offset += d
    lhs = von_neumann_entropy3(full)
    rhs = shannon_entropy3(weights) + sum(
        w * (von_neumann_entropy3(b) if w > 0 else 0.0) for w, b in blocks)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Explicit conditioned states for entropy-inequality verification
# ---------------------------------------------------------------------------

def _labelled_blocks(fams: VectorFamilies, label: np.ndarray) -> np.ndarray:
    """Diagonal blocks [j, c] (3, dim_c, dim_e, dim_e) of the receiver /
    eavesdropper state of the raw-key rounds with a classical register of
    dim_c = label.max() + 1 levels, label (3, 3, 3) indexed [i, j, k].

    Each record adds its outer product / 3 to the one (j, label[i, j, k])
    block it lives in, in (j, i, k) order.
    """
    recs = measure_records(fams)
    dim_e, dim_c = recs.shape[-1], int(label.max()) + 1
    outer = recs[..., :, None] * recs.conj()[..., None, :]
    # Scale the real and imaginary parts by 1/3, at half the cost of the
    # complex x / 3: numpy computes that as (re + im * 0) * (1/3), so the
    # two differ only in the sign of a zero, and adding onto the +0.0 of a
    # fresh block turns either zero into +0.0.
    parts = outer.view(float)
    parts *= 1.0 / 3.0
    blocks = np.zeros((3, dim_c, dim_e, dim_e), dtype=complex)
    for j, i, k in itertools.product(range(3), repeat=3):
        blocks[j, label[i, j, k]] += outer[i, j, k]
    return blocks


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """The operator with diagonal blocks [j, c], index order (j, e, c)."""
    _, dim_c, dim_e, _ = blocks.shape
    rho = np.zeros((3, dim_e, dim_c, 3, dim_e, dim_c), dtype=complex)
    j, c = np.indices((3, dim_c))
    rho[j, :, c, j, :, c] = blocks
    return rho.reshape(3 * dim_e * dim_c, 3 * dim_e * dim_c)


def rho_be(fams: VectorFamilies) -> np.ndarray:
    """Joint receiver/eavesdropper state of the raw-key rounds."""
    return _block_diagonal(_labelled_blocks(fams, np.zeros_like(ERROR_PATTERN)))


def rho_bec(fams: VectorFamilies) -> np.ndarray:
    """Same state with the four-level error-pattern register attached,
    index order (j, e, c) with c = stats.ERROR_PATTERN[i, j, k]."""
    return _block_diagonal(_labelled_blocks(fams, ERROR_PATTERN))


def trace_out_receiver(rho: np.ndarray, dim_rest: int) -> np.ndarray:
    """Partial trace over the leading qutrit factor."""
    r = rho.reshape(3, dim_rest, 3, dim_rest)
    return np.einsum("jajb->ab", r)


def conditional_entropies(fams: VectorFamilies) -> dict:
    """S(B|E) and S(B|EC) of the raw-key rounds, and S(EC).

    The states are taken as their diagonal blocks, never assembled: rho_be
    is block-diagonal in the receiver symbol j, rho_bec in j and the
    error-pattern register c, and tracing out the receiver sums the blocks
    over j.  The values equal those of von_neumann_entropy3 on rho_be,
    rho_bec and their trace_out_receiver, bit for bit.
    """
    be = _labelled_blocks(fams, np.zeros_like(ERROR_PATTERN))
    bec = _labelled_blocks(fams, ERROR_PATTERN)
    s_ec = von_neumann_entropy3(bec[0] + bec[1] + bec[2])
    return {
        "S_B_given_E": (von_neumann_entropy3(be)
                        - von_neumann_entropy3(be[0] + be[1] + be[2])),
        "S_B_given_EC": von_neumann_entropy3(bec) - s_ec,
        "S_EC_exact": s_ec,
    }
