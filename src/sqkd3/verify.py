"""Self-check groups behind the `verify` CLI command.

Each group returns (ok, detail), and every group decides the exit code.
The entropy-inequalities group gates on strong sub-additivity and on the
certified bound s_ec_bound >= S(EC); it also prints the slack of the
paper's printed expression s_ec_upper, which is negative (a known formula
defect, see the README) and does not gate.
"""
from __future__ import annotations

import numpy as np

from . import term_tables as tables
from .attack import (CONVENTIONS, pauli_twirl_attack, random_attack_stacks,
                     ternary_channel_apply)
from .keyrate import (Sigma1Decomposition, _no_error_diagonal,
                      conditional_entropies, lemma1_check, no_error_overlap,
                      s_ec_bound, s_ec_upper, sigma1_eigenvalues)
from .linalg import (basis_vectors, gaussian_matrix, haar_isometry,
                     isometries_from_gaussian, sq_norms)
from .stats import (basis_error_direct, basis_error_expanded, f_gram,
                    p_table_from_attack, t_values)

_DIMS = (1, 3, 9)


def check_mub() -> tuple[bool, str]:
    worst = 0.0
    a = basis_vectors("A")
    for bid in ("A", "T", "K"):
        v = basis_vectors(bid)
        worst = max(worst, float(np.max(np.abs(v.conj().T @ v - np.eye(3)))))
    for bid in ("T", "K"):
        v = basis_vectors(bid)
        overlaps = np.abs(a.conj().T @ v) ** 2
        worst = max(worst, float(np.max(np.abs(overlaps - 1.0 / 3.0))))
    return worst < 1e-12, f"max deviation {worst:.3e}"


def _random_families(n_attacks: int, seed: int):
    """Seeded random attacks: attack t has seed seed + 1 + t and (d_f, d_r)
    drawn from _DIMS.  They come one shape at a time, as one AttackModel
    stack per stacked QR call; the groups take maxima over them, which do
    not depend on the order."""
    rng = np.random.default_rng(seed)
    plan = {}   # (d_f, d_r) -> attack seeds, shapes in order of first draw
    # the values and generator state of 2 n_attacks rng.choice(_DIMS) calls
    picks = rng.integers(0, 3, size=(n_attacks, 2)).tolist()
    for trial, (i, j) in enumerate(picks):
        plan.setdefault((_DIMS[i], _DIMS[j]), []).append(seed + 1 + trial)
    for (d_f, d_r), seeds in plan.items():
        yield from random_attack_stacks(d_f, d_r, seeds)


def check_sum_rules() -> tuple[bool, str]:
    n_attacks = 200
    worst = 0.0
    eye = np.eye(3)
    for fams in _random_families(n_attacks, 1000):
        for vecs in (fams.e, fams.f):
            # row i holds the records 3i+j end to end: the Gram sums over j
            rows = vecs.reshape(*vecs.shape[:-2], 3, -1)
            gram = rows.conj() @ rows.swapaxes(-1, -2)
            worst = max(worst, float(np.max(np.abs(gram - eye))))
        # reverse stage preserves each forward record's norm; the norms are
        # taken one output k at a time to bound the copies of ekij
        kept = sq_norms(fams.ekij[..., 0, :, :, :])
        for k in (1, 2):
            kept += sq_norms(fams.ekij[..., k, :, :, :])
        kept -= sq_norms(fams.e)[..., None, :]
        worst = max(worst, float(np.max(np.abs(kept))))
    return worst < 1e-10, f"{n_attacks} attacks, max violation {worst:.3e}"


def check_channel_dilation() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    # covariance: the induced channel in the T and K bases is identical, so
    # their basis states map by the same formula as the random states
    basis_states = [np.outer(b, b.conj()) for bid in ("T", "K")
                    for b in basis_vectors(bid).T]
    worst = 0.0
    for q in (0.0, 0.05, 0.1, 0.3):
        fw = pauli_twirl_attack(q, q).forward
        states = []
        for _ in range(4):
            u = haar_isometry(3, 3, rng)
            states.append(u @ np.diag(rng.dirichlet(np.ones(3))).astype(complex)
                          @ u.conj().T)
        for rho in states + basis_states:
            big = fw @ rho @ fw.conj().T
            reduced = np.einsum("aibi->ab", big.reshape(3, 9, 3, 9))
            worst = max(worst, float(np.max(np.abs(
                reduced - ternary_channel_apply(rho, q)))))
    return worst < 1e-12, f"max deviation {worst:.3e}"


def check_lemma1() -> tuple[bool, str]:
    n_cases, seed = 50, 2000
    rng = np.random.default_rng(seed)
    # draws in the order of a haar_isometry call per block; the blocks'
    # Gaussian matrices are then factored in one stacked call
    cases, gaussians = [], []
    for _ in range(n_cases):
        weights = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
        spectra = []
        for _ in weights:
            gaussians.append(gaussian_matrix(3, 3, rng))
            spectra.append(rng.dirichlet(np.ones(3)))
        cases.append((weights, spectra))
    unitaries = iter(isometries_from_gaussian(np.array(gaussians)))
    worst = 0.0
    for weights, spectra in cases:
        blocks = []
        for w, spectrum in zip(weights, spectra):
            u = next(unitaries)
            rho = u @ np.diag(spectrum).astype(complex) @ u.conj().T
            blocks.append((float(w), rho))
        lhs, rhs = lemma1_check(blocks)
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-10, f"{n_cases} cases, max |lhs-rhs| {worst:.3e}"


def check_expansion_equivalence() -> tuple[bool, str]:
    n_attacks = 100
    worst = 0.0
    for fams in _random_families(n_attacks, 3000):
        gram = f_gram(fams)
        for variant in CONVENTIONS["variant"]:
            direct = basis_error_direct(fams, variant)
            expanded = basis_error_expanded(gram, variant)
            worst = max(worst, float(np.max(np.abs(direct - expanded))))
    return worst < 1e-10, f"{n_attacks} attacks, max |direct-expanded| {worst:.3e}"


def check_eigenvalue_oracle() -> tuple[bool, str]:
    n_cases, seed = 100, 4000
    rng = np.random.default_rng(seed)
    closed, matrices = [], []
    for _ in range(n_cases):
        chi, sg, rh = (rng.normal() + 1j * rng.normal() for _ in range(3))
        dec = Sigma1Decomposition(chi, sg, rh,
                                  p111=float(rng.uniform(0.05, 1.0)),
                                  p222=float(rng.uniform(0.05, 1.0)))
        closed.append(sigma1_eigenvalues(dec.p000, dec.p111, dec.p222,
                                         dec.p_value))
        matrices.append(dec.matrix())
    # one stacked call factors each matrix as a call on it alone does
    evals = np.sort(np.linalg.eigvalsh(np.array(matrices)), axis=-1)
    # the two largest eigenvalues against lam1, lam2; the least against 0
    gaps = np.concatenate((evals[:, :0:-1] - np.array(closed), evals[:, :1]),
                          axis=-1)
    worst = float(np.max(np.abs(gaps)))
    return worst < 1e-10, f"{n_cases} cases, max |closed-form - eig| {worst:.3e}"


def check_entropy_inequalities() -> tuple[bool, str]:
    """Gates on strong sub-additivity and on s_ec_bound >= S(EC); reports
    the printed expression's slack."""
    notes = []
    ok = True
    for q in (0.02, 0.05):
        attack = pauli_twirl_attack(q, q)
        ents = conditional_entropies(attack)
        gap = ents["S_B_given_E"] - ents["S_B_given_EC"]
        p_tab = p_table_from_attack(attack)
        p_exact = no_error_overlap(attack)
        slack = s_ec_bound(p_tab, p_exact) - ents["S_EC_exact"]
        ok = ok and gap >= -1e-9 and slack >= -1e-9
        lam1, lam2 = sigma1_eigenvalues(*_no_error_diagonal(p_tab), p_exact)
        printed = s_ec_upper(t_values(p_tab), lam1, lam2) - ents["S_EC_exact"]
        notes.append(f"Q={q}: S(B|E)-S(B|EC)={gap:+.3e}; "
                     f"bound slack {slack:+.3e}; printed-expression slack "
                     f"{printed:+.3e} (known formula defect)")
    return ok, "; ".join(notes)


GROUPS = [
    ("mub", check_mub),
    ("unitarity-sum-rules", check_sum_rules),
    ("channel-dilation", check_channel_dilation),
    ("lemma1", check_lemma1),
    ("expansion-equivalence", check_expansion_equivalence),
    ("eigenvalue-oracle", check_eigenvalue_oracle),
    ("entropy-inequalities", check_entropy_inequalities),
]


def run_all(report=print) -> bool:
    all_ok = True
    for name, fn in GROUPS:
        ok, detail = fn()
        all_ok = all_ok and ok
        report(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
