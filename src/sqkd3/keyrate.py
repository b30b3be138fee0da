"""Asymptotic key-rate lower bound for the qutrit two-way protocol.

The rate is S(B|EC) - H(B|A): the entropy of the joint record ensemble,
minus a term for the conditioned eavesdropper entropy S(EC), minus the
raw-key conditional entropy H(B|A).  For the rate to be a lower bound the
S(EC) term must be an upper bound on S(EC).  The key rate evaluates the
paper's printed expression for it (s_ec_upper), built from the
closed-form eigenvalues of the no-error block; that expression is not an
upper bound (it falls short of the exact S(EC) of the symmetric twirl,
see the README).  s_ec_bound is a certified upper bound, which the key
rate does not use yet.  Both p modes evaluate one closed form,
lambda = 1/2 +- sqrt(disc) / (2 total), with entropy terms Re(-lam log3 lam),
and differ only in the cap, the floor and the clamp:

* "as-printed": p = max(X, 0)^2 uncapped; disc and lambda as they come,
  complex or outside [0, 1].  This mode reproduces the reference
  noise-tolerance curves that the acceptance suite pins.
* "corrected": p = max(X, 0)^2 / 3 capped at the Cauchy-Schwarz
  feasibility ceiling, disc floored at zero and lambda clamped to [0, 1],
  so all entropy terms are genuine entropies.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import term_tables as tables
from .attack import (Q_MAX, AttackModel, ChannelScenario, _one_attack,
                     alternative_basis_error, check_conventions)
from .linalg import (LN3, entropy3, sequential_sum, shannon_entropy3,
                     von_neumann_entropy3)
from .stats import (_J, ERROR_PATTERN, StatTable, check_p_tables,
                    joint_and_marginal, p_table_symmetric,
                    stat_table_for_scenario, t_values)


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


#: Flat indices of the two cells of each square-root term of X: the _N_POS
#: positive terms, then the negative ones.
_X_LEFT, _X_RIGHT = np.ravel_multi_index(
    np.transpose(tables.X_SQRT_POS + tables.X_SQRT_NEG), (3, 3, 3))
_N_POS = len(tables.X_SQRT_POS)


def _x_stat(p: np.ndarray, basis_err: np.ndarray, variant: str) -> np.ndarray:
    cells = p.reshape(-1, 27).T
    terms = cells[_X_LEFT] * cells[_X_RIGHT]
    np.sqrt(terms, out=terms)
    x = (3.0 - 1.5 * basis_err.sum(axis=-1)
         + tables.X54_COEFFICIENT[variant] * sequential_sum(terms[:_N_POS])
         - sequential_sum(terms[_N_POS:]))
    return x.reshape(p.shape[:-3])


def x_bound(table: StatTable) -> float:
    """The observable statistic bounding the no-error block overlaps."""
    return float(_x_stat(table.p, table.basis_err, table.variant))


def _square(x):
    # libm pow, as scalar `x ** 2` computes it; an array `x ** 2` is an
    # exact product, which differs from pow in the last bit on some inputs.
    return np.float_power(x, 2)


def _clamped_square(x):
    return _square(np.maximum(x, 0.0))


#: Flat indices of the no-error cells (a, a, a) and of the 24 with an error.
_NO_ERROR_CELLS = np.flatnonzero(ERROR_PATTERN == 0)
_ANY_ERROR_CELLS = np.flatnonzero(ERROR_PATTERN)


def _no_error_diagonal(p: np.ndarray) -> np.ndarray:
    """(p000, p111, p222) of tables p (..., 3, 3, 3), as one array (3, ...)."""
    return p.reshape(-1, 27).T[_NO_ERROR_CELLS].reshape((3,) + p.shape[:-3])


def _ceiling(diag) -> np.ndarray:
    """Largest overlap sum compatible with the diagonal entries
    diag = (p000, p111, p222)."""
    p000, p111, p222 = diag
    return p000 * p111 + p000 * p222 + p111 * p222


def _is_corrected(mode: str) -> bool:
    """Whether p mode caps, floors and clamps; an unknown mode raises."""
    check_conventions(p_mode=mode)
    return mode == "corrected"


def _p_lower(s_clamped, diag, corrected: bool) -> np.ndarray:
    return np.minimum(s_clamped / 3.0, _ceiling(diag)) if corrected else s_clamped


def p_lower_bound(x: float, table: StatTable, mode: str = "as-printed") -> float:
    """The overlap quantity fed to the eigenvalue forms, as key_rate reports
    it in p_lower.

    as-printed: max(x, 0)^2, uncapped; corrected: max(x, 0)^2 / 3 capped
    at the feasibility ceiling p000 p111 + p000 p222 + p111 p222.  Neither
    is a lower bound on the no-error overlap sum (no_error_overlap): on
    the symmetric twirl the corrected value is 2.548 against an exact
    2.342 at Q = 0.02, and 1.968 against 1.566 at Q = 0.05.
    """
    return float(_p_lower(_clamped_square(x), _no_error_diagonal(table.p),
                          _is_corrected(mode)))


def _h(lam):
    """Re(-lam log3 lam) elementwise, principal branch; 0 at lam = 0."""
    zero = lam == 0
    return np.where(zero, 0.0, (-lam * np.log(np.where(zero, 1.0, lam))).real / LN3)


def sigma1_entropy_terms(p000, p111, p222, p, mode: str):
    """(Re lambda1, Re lambda2, h(lambda1) + h(lambda2)) of the no-error
    block with diagonal (p000, p111, p222) and overlap quantity p, by the
    closed form of the module docstring under p mode `mode`.  The inputs
    broadcast; one table's scalars give numpy float scalars.
    """
    corrected = _is_corrected(mode)
    total = p000 + p111 + p222
    # a ufunc, not `total <= 0`: the entries may be Python floats
    if np.less_equal(total, 0.0).any():
        raise ValueError("eigenvalue forms need p000 + p111 + p222 > 0")
    sq000, sq111, sq222 = _square(p000), _square(p111), _square(p222)
    disc = (4.0 * p + sq000 - 2.0 * p000 * p111 + sq111
            - 2.0 * p000 * p222 - 2.0 * p111 * p222 + sq222)
    disc = np.maximum(disc, 0.0) if corrected else np.asarray(disc, dtype=complex)
    half_spread = np.sqrt(disc) / (2.0 * total)
    # lambda1 and lambda2 stacked; 0.5 + (-s) has the bits of 0.5 - s
    lam = 0.5 + np.array([half_spread, -half_spread])
    if corrected:
        lam = np.minimum(np.maximum(lam, 0.0), 1.0)
    h = _h(lam)
    return lam[0].real, lam[1].real, h[0] + h[1]


def sigma1_eigenvalues(p000, p111, p222, p):
    """Closed-form nonzero eigenvalues of the normalized no-error block.

    Discriminant floored at zero, results clamped to [0, 1]; the third
    eigenvalue is identically zero.
    """
    return sigma1_entropy_terms(p000, p111, p222, p, "corrected")[:2]


def _s_bec(p: np.ndarray) -> np.ndarray:
    return entropy3(p.reshape(p.shape[:-3] + (27,)) / 3.0)


def s_bec(table: StatTable) -> float:
    """Entropy of the full record ensemble: H3 of the 27 entries over 3."""
    return float(_s_bec(table.p))


def _s_ec_upper(t: np.ndarray, ent) -> np.ndarray:
    """s_ec_upper for t (..., 4) with eigenvalue entropy terms ent.

    The paper's printed expression, not a bound: see s_ec_upper.
    """
    third = t / 3
    return (entropy3(third) + (t[..., 1] + t[..., 2] + t[..., 3]) / 3.0
            + third[..., 0] * ent)


def s_ec_upper(t: tuple, lam1: float, lam2: float) -> float:
    """The paper's printed evaluation expression for S(EC).

    H3(t/3) + (t2 + t3 + t4)/3 + (t1/3)(h(lam1) + h(lam2)), lam in [0, 1].
    It is not an upper bound on S(EC): it charges one trit per error
    block, whose entropy can reach log3 6 or log3 12, and assumes a rank-2
    no-error block.  It falls short of the exact S(EC) of the symmetric
    twirl and of random attacks.  The key rate evaluates it as printed;
    s_ec_bound is the certified upper bound.
    """
    if not (0.0 <= lam1 <= 1.0 and 0.0 <= lam2 <= 1.0):
        raise ValueError(f"eigenvalues must lie in [0, 1], got {lam1}, {lam2}")
    ent = _h(lam1) + _h(lam2)
    return float(_s_ec_upper(np.asarray(t, dtype=float), ent))


def no_error_overlap(fams: AttackModel) -> float:
    """Sum over a < b of |<e_aaa|e_bbb>|^2, the no-error block's overlaps."""
    vecs = _one_attack(fams).records.reshape(27, -1)[_NO_ERROR_CELLS]
    return float(sum(abs(np.vdot(vecs[a], vecs[b])) ** 2
                     for a, b in ((0, 1), (0, 2), (1, 2))))


def s_ec_bound(p: np.ndarray, overlap: float) -> float:
    """Certified upper bound on the conditioned eavesdropper entropy S(EC).

    p is the attack's 3x3x3 table; one that check_p_tables rejects raises.
    Valid whenever overlap is at most the attack's no-error overlap sum
    (no_error_overlap); it is clipped to [0, feasibility ceiling], where
    that sum always lies.  A NaN or infinite overlap raises.

    S(EC) = H(C) + sum_c P(c) S(E|c), with P(c) the pattern weight t_c/3.
    An error block mixes its record vectors with weights p_ijk/t_c, so its
    entropy is at most their Shannon entropy; with H(C) that sums to the
    entropy of t1/3 and the 24 error cells p_ijk/3.  The no-error block
    spans three vectors and has purity at least
    P = (p000^2 + p111^2 + p222^2 + 2 overlap)/t1^2; the largest entropy of
    a three-level spectrum with purity P is that of (a, b, b) with
    a = (1 + sqrt(2(3P - 1)))/3.
    """
    if not np.isfinite(overlap):
        raise ValueError(f"overlap must be finite, got {overlap}")
    p = np.asarray(p, dtype=float)
    if p.shape != (3, 3, 3):
        raise ValueError("p must be a 3x3x3 table")
    check_p_tables(p)
    diag = _no_error_diagonal(p)
    t1 = diag.sum()
    outer = entropy3(np.concatenate([[t1], p.reshape(27)[_ANY_ERROR_CELLS]]) / 3.0)
    if t1 <= 0.0:
        return float(outer)
    overlap = min(max(overlap, 0.0), float(_ceiling(diag)))
    purity = (np.sum(diag * diag) + 2.0 * overlap) / (t1 * t1)
    a = min((1.0 + np.sqrt(2.0 * max(3.0 * purity - 1.0, 0.0))) / 3.0, 1.0)
    b = (1.0 - a) / 2.0
    return float(outer + t1 / 3.0 * entropy3([a, b, b]))


def h_b_given_a(jd: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Conditional entropy H(B|A) = H(joint) - H(marginal of A) of each
    (joint, marginal) pair that joint_and_marginal returns."""
    joint, marginal = jd
    return entropy3(joint.reshape(joint.shape[:-2] + (9,))) - entropy3(marginal)


def _evaluate(p: np.ndarray, basis_err: np.ndarray, variant: str,
              weighting: str, p_mode: str) -> dict:
    """The key-rate bound on tables p (N, 3, 3, 3) with errors (N, 6).

    Returns one length-N array per intermediate, keyed as the sweep columns
    (t1..t4, X, p_lower, lambda1, lambda2, S_BEC, S_EC_upper, H_B_given_A,
    r) plus S_clamped.
    """
    t = t_values(p)
    x = _x_stat(p, basis_err, variant)
    s_clamped = _clamped_square(x)
    diag = _no_error_diagonal(p)
    p_low = _p_lower(s_clamped, diag, _is_corrected(p_mode))
    lam1, lam2, ent = sigma1_entropy_terms(*diag, p_low, p_mode)
    bec = _s_bec(p)
    ec_upper = _s_ec_upper(t, ent)
    hba = h_b_given_a(joint_and_marginal(p, weighting))
    return {"t1": t[:, 0], "t2": t[:, 1], "t3": t[:, 2], "t4": t[:, 3], "X": x,
            "S_clamped": s_clamped, "p_lower": p_low, "lambda1": lam1,
            "lambda2": lam2, "S_BEC": bec, "S_EC_upper": ec_upper,
            "H_B_given_A": hba, "r": bec - ec_upper - hba}


#: Rows per kernel pass of key_rate_curve.  A pass's (rows, 27) float64
#: intermediates then stay under glibc's initial 128 KB mmap threshold, so
#: they come from the heap instead of fresh page-faulted mappings.
_CHUNK = 512


def key_rate_curve(q, model: str = "dependent", variant: str = "phi1",
                   basis_noise_convention: str = "per-pair",
                   joint_weighting: str = "as-printed",
                   p_mode: str = "as-printed") -> dict:
    """Key-rate bound of symmetric-noise scenarios over a 1-d array of q.

    Entry i of every array equals the field of key_rate(ChannelScenario(
    q[i], ...)) bit for bit.  Returns one array per key: Q, t1..t4, X,
    S_clamped, p_lower, lambda1, lambda2, S_BEC, S_EC_upper, H_B_given_A
    and r.

    The kernel runs on consecutive slices of _CHUNK = 512 points, and the
    columns of longer grids are concatenated at the end; rows do not
    depend on each other, so every column keeps its bits.  A grid of at
    most 512 points is one pass with no copy.  Beyond the outputs the call
    holds O(512) rows of intermediates and one copy of each column, so its
    peak memory stays below 2.5 times the bytes of its 14 columns.
    """
    check_conventions(model=model, variant=variant,
                      basis_noise_convention=basis_noise_convention,
                      joint_weighting=joint_weighting, p_mode=p_mode)
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError(f"q must be a 1-d array, got {q.ndim} dimensions")

    def rows(q):
        p = p_table_symmetric(q, q)
        check_p_tables(p)
        err = alternative_basis_error(q, model, basis_noise_convention)
        return _evaluate(p, np.repeat(err[:, None], 6, axis=1), variant,
                         joint_weighting, p_mode)

    if len(q) <= _CHUNK:
        return {"Q": q, **rows(q)}
    parts = [rows(q[start:start + _CHUNK])
             for start in range(0, len(q), _CHUNK)]
    return {"Q": q, **{name: np.concatenate([part[name] for part in parts])
                       for name in parts[0]}}


def key_rate_from_table(table: StatTable, weighting: str = "as-printed",
                        p_mode: str = "as-printed",
                        convention_flags: dict | None = None) -> KeyRateReport:
    """Evaluate the key-rate bound on an explicit statistics table.

    The report's convention flags are convention_flags plus the weighting,
    p-mode and table variant in use; a flag that names another value for
    one of those three, an unknown flag and an unknown value raise
    ValueError.
    """
    cols = {k: v.item() for k, v in _evaluate(
        table.p[None], table.basis_err[None], table.variant, weighting,
        p_mode).items()}
    flags = dict(convention_flags or {})
    for name, used in (("joint_weighting", weighting), ("p_mode", p_mode),
                       ("variant", table.variant)):
        if flags.setdefault(name, used) != used:
            raise ValueError(f"convention flag {name}={flags[name]!r} "
                             f"contradicts the {used!r} in use")
    check_conventions(**flags)
    return KeyRateReport(t=tuple(cols.pop(k) for k in ("t1", "t2", "t3", "t4")),
                         convention_flags=flags, **cols)


def key_rate(scenario: ChannelScenario) -> KeyRateReport:
    """Key-rate bound of a symmetric-noise scenario."""
    table = stat_table_for_scenario(scenario)
    return key_rate_from_table(table, scenario.joint_weighting,
                               scenario.p_mode, scenario.flags())


#: Bisection stops once the bracket is at most this wide.
_THRESHOLD_TOL = 1e-6
#: Bisection steps whose 2**5 - 1 = 31 possible midpoints one kernel call
#: evaluates.
_BISECT_DEPTH = 5
#: Consecutive slices of the 400-point threshold grid, one kernel call each,
#: that find_threshold scans until one holds a sign change.
_SCAN_PASSES = (64, 128, 208)


def find_threshold(variant: str, model: str,
                   basis_noise_convention: str = "per-pair",
                   joint_weighting: str = "as-printed",
                   p_mode: str = "as-printed") -> float | None:
    """Smallest noise level at which the key-rate bound hits zero.

    Scans a fixed grid of 400 evenly spaced points over [0, 3/8] for its
    first downward sign change, then bisects to |dQ| < 1e-6.  The grid is
    evaluated in up to three passes, points 0-63, 64-191 and 192-399, and
    the scan stops at the first pass that holds a sign change; each pass
    is prefixed with the last rate of the one before, so a change across a
    pass edge is found.  Each bisection step keeps the half whose upper end
    has rate <= 0.  The steps are taken five at a time: one kernel call
    evaluates the midpoints of all 31 brackets the next five steps can
    reach, and the sign tests are then walked in order.  Kernel rows do not
    depend on each other, so the result equals that of a one-pass grid and
    a bisection with one kernel call per midpoint, bit for bit; from the
    grid's spacing two such calls reach the tolerance.  Returns None when
    the rate stays positive on the whole range, after all three passes.
    """
    def rate(q):
        return key_rate_curve(q, model, variant, basis_noise_convention,
                              joint_weighting, p_mode)["r"]

    grid = np.linspace(0.0, Q_MAX, 400)
    start, r = 0, np.empty(0)
    for size in _SCAN_PASSES:
        r = np.concatenate((r[-1:], rate(grid[start:start + size])))
        start += size
        down = np.flatnonzero((r[:-1] > 0.0) & (r[1:] <= 0.0))
        if down.size:
            break
    else:
        return None
    # r[0] is the rate at grid point start - len(r)
    hi = grid[start - len(r) + down[0] + 1]
    lo = hi - (grid[1] - grid[0])
    while hi - lo > _THRESHOLD_TOL:
        # bracket k splits at its midpoint into 2k + 1 (upper half, kept
        # when the rate there is > 0) and 2k + 2 (lower half)
        brackets = [(lo, hi)]
        for k in range(2 ** (_BISECT_DEPTH - 1) - 1):
            a, b = brackets[k]
            mid = 0.5 * (a + b)
            brackets += [(mid, b), (a, mid)]
        positive = rate([0.5 * (a + b) for a, b in brackets]) > 0.0
        k = 0
        while k < len(brackets) and hi - lo > _THRESHOLD_TOL:
            mid = 0.5 * (lo + hi)  # the midpoint of bracket k = [lo, hi]
            lo, hi, k = (mid, hi, 2 * k + 1) if positive[k] else (lo, mid, 2 * k + 2)
    return 0.5 * (lo + hi)


def lemma1_check(blocks: list) -> tuple[float, float]:
    """Entropy of a classically labelled mixture, two ways.

    blocks is a list of (weight, density matrix).  Returns (lhs, rhs) with
    lhs the entropy of the block-diagonal operator of the weighted blocks
    and rhs the label entropy plus the average block entropy; the two
    agree for exact inputs.  lhs is taken from the stack of weighted
    blocks, each zero-padded to the largest one (padding only adds zero
    rows, which von_neumann_entropy3 drops), with the bits it has on the
    assembled operator.
    """
    weights = [w for w, _ in blocks]
    # written so that a NaN weight, which fails every comparison, is refused
    if not (all(w >= 0 for w in weights) and abs(sum(weights) - 1.0) <= 1e-10):
        raise ValueError("weights must be nonnegative and sum to 1")
    dim = max(len(b) for _, b in blocks)
    stack = np.zeros((len(blocks), dim, dim), dtype=complex)
    for (w, b), padded in zip(blocks, stack):
        padded[:len(b), :len(b)] = w * np.asarray(b)
    lhs = von_neumann_entropy3(stack)
    rhs = shannon_entropy3(weights) + sum(
        w * (von_neumann_entropy3(b) if w > 0 else 0.0) for w, b in blocks)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Explicit conditioned states for entropy-inequality verification
# ---------------------------------------------------------------------------

def _support_rows(support: np.ndarray, width: int) -> np.ndarray:
    """Rows (..., width) of the True entries of each support mask (..., D),
    in increasing order, then the padding index D."""
    *lead, r = np.nonzero(support)
    rows = np.full(support.shape[:-1] + (width,), support.shape[-1])
    rows[(*lead, np.cumsum(support, axis=-1)[(*lead, r)] - 1)] = r
    return rows


def _labelled_blocks(fams: AttackModel) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal blocks [j, c] of rho_bec, with c the error-pattern register
    ERROR_PATTERN[i, j, k], on the rows that their records touch; every
    other conditioned state of the raw-key rounds is a sum of these blocks.

    Returns (support, blocks): support (3, 4, D) marks the nonzero rows of
    the records of each block, and blocks (3, 4, m, m) holds each block on
    its support rows in increasing order, then zero rows up to m, the
    largest support.  Each record adds its outer product / 3 on its
    block's support rows, in (j, i, k) order.
    """
    recs = _one_attack(fams).records
    # in_block[i, j, k, c]: record [i, j, k] is one of block [j, c]
    in_block = ERROR_PATTERN[..., None] == np.arange(4)
    support = ((recs != 0)[..., None, :] & in_block[..., None]).any(axis=(0, 2))
    width = support.sum(axis=-1).max()
    # each record on its block's rows; the padding index D reads a zero
    padded = np.concatenate((recs, np.zeros(recs.shape[:-1] + (1,))), axis=-1)
    recs = np.take_along_axis(
        padded, _support_rows(support, width)[_J, ERROR_PATTERN], axis=-1)
    outer = recs[..., :, None] * recs.conj()[..., None, :]
    # Scale the real and imaginary parts by 1/3, at half the cost of the
    # complex x / 3: numpy computes that as (re + im * 0) * (1/3), so the
    # two differ only in the sign of a zero, and adding onto the +0.0 of a
    # fresh block turns either zero into +0.0.
    parts = outer.view(float)
    parts *= 1.0 / 3.0
    blocks = np.zeros((3, 4, width, width), dtype=complex)
    for j, i, k in itertools.product(range(3), repeat=3):
        blocks[j, ERROR_PATTERN[i, j, k]] += outer[i, j, k]
    return support, blocks


def _summed(support: np.ndarray, blocks: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Sums over the leading axis of blocks (t, n, m, m) on support masks
    (t, n, D), adding the t terms in order: (support, blocks) of the n
    sums.

    Terms that all lie on one support are summed as they lie.  Other sums
    are taken on all D rows, and their support is all D rows: each term is
    written by row index.  No entry of a block is -0.0, so a term that is
    zero at an entry leaves the sum there as it is: each entry has the bits
    of the sum of the full-size blocks.
    """
    union = support.any(axis=0)
    # the twirl's rho_EC and rho_E terms share their sums' rows, where the
    # in-order sum takes about a tenth of the time of the scatter below
    if (support == union).all():
        return union, sequential_sum(blocks)
    dim, width = support.shape[-1], blocks.shape[-1]
    rows = _support_rows(support, width)
    # the flat index in the sums, on D + 1 rows, of each entry of each term
    at = ((np.arange(rows.shape[1])[:, None, None] * (dim + 1)
           + rows[..., :, None]) * (dim + 1) + rows[..., None, :])
    total = np.zeros((rows.shape[1], dim + 1, dim + 1), dtype=complex)
    flat = total.reshape(-1)
    # Within one term only padding slots repeat an index (row or column D),
    # and they carry exact zeros, so each buffered += is exact; row D is
    # then cut off.
    for index, block in zip(at, blocks):
        flat[index] += block
    # a contiguous copy: conditional_entropies on the strided view read
    # 10-17 % slower in perfbench's analytic workload
    return np.ones_like(union), np.ascontiguousarray(total[:, :dim, :dim])


def rho_bec(fams: AttackModel) -> np.ndarray:
    """Receiver/eavesdropper state of the raw-key rounds with the
    four-level error-pattern register, index order (j, e, c): record
    [i, j, k] adds its outer product / 3 at (j, c = ERROR_PATTERN[i, j, k]),
    in (j, i, k) order."""
    recs = _one_attack(fams).records
    dim_e = recs.shape[-1]
    rho = np.zeros((3, dim_e, 4, 3, dim_e, 4), dtype=complex)
    for j, i, k in itertools.product(range(3), repeat=3):
        c = ERROR_PATTERN[i, j, k]
        rho[j, :, c, j, :, c] += np.outer(recs[i, j, k], recs[i, j, k].conj()) / 3.0
    return rho.reshape(12 * dim_e, 12 * dim_e)


def rho_be(fams: AttackModel) -> np.ndarray:
    """Receiver/eavesdropper state of the raw-key rounds: rho_bec traced
    over the register c, adding c = 0, 1, 2, 3 in that order."""
    bec = rho_bec(fams)
    dim = len(bec) // 4
    blocks = bec.reshape(dim, 4, dim, 4)
    return sum(blocks[:, c, :, c] for c in range(4))


def trace_out_receiver(rho: np.ndarray, dim_rest: int) -> np.ndarray:
    """Partial trace over the leading qutrit factor."""
    r = rho.reshape(3, dim_rest, 3, dim_rest)
    return np.einsum("jajb->ab", r)


def conditional_entropies(fams: AttackModel) -> dict:
    """S(B|E) and S(B|EC) of the raw-key rounds, and S(EC).

    The states are taken as their diagonal blocks, never assembled, and all
    come from one set of rho_bec blocks [j, c]: rho_be's blocks are their
    sums over the error-pattern register c, and tracing out the receiver
    sums the blocks over j.  Each block is built on the rows its records
    touch.  The values equal those of von_neumann_entropy3 on rho_be,
    rho_bec and their trace_out_receiver, bit for bit.
    """
    support, bec = _labelled_blocks(fams)
    be_support, be = _summed(support.swapaxes(0, 1), bec.swapaxes(0, 1))
    s_e = von_neumann_entropy3(_summed(be_support[:, None], be[:, None])[1])
    s_ec = von_neumann_entropy3(_summed(support, bec)[1])
    return {
        "S_B_given_E": von_neumann_entropy3(be) - s_e,
        "S_B_given_EC": von_neumann_entropy3(bec) - s_ec,
        "S_EC_exact": s_ec,
    }
