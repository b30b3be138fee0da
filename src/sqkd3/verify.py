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
from .attack import (pauli_twirl_attack, random_attack, ternary_channel_apply,
                     vector_families)
from .keyrate import (Sigma1Decomposition, _no_error_diagonal,
                      conditional_entropies, lemma1_check, no_error_overlap,
                      s_ec_bound, s_ec_upper, sigma1_eigenvalues)
from .linalg import basis_vectors, haar_isometry, sq_norms
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
    """Record families of seeded random attacks, (d_f, d_r) drawn from _DIMS."""
    rng = np.random.default_rng(seed)
    for trial in range(n_attacks):
        att = random_attack(int(rng.choice(_DIMS)), int(rng.choice(_DIMS)),
                            seed + 1 + trial)
        yield vector_families(att)


def check_sum_rules() -> tuple[bool, str]:
    n_attacks = 200
    worst = 0.0
    for fams in _random_families(n_attacks, 1000):
        for vecs in (fams.e, fams.f):
            # row i holds the records 3i+j end to end: the Gram sums over j
            rows = vecs.reshape(3, -1)
            gram = rows.conj() @ rows.T
            worst = max(worst, float(np.max(np.abs(gram - np.eye(3)))))
        # reverse stage preserves each forward record's norm
        kept = sq_norms(fams.ekij).sum(axis=0) - sq_norms(fams.e)
        worst = max(worst, float(np.max(np.abs(kept))))
    return worst < 1e-10, f"{n_attacks} attacks, max violation {worst:.3e}"


def check_channel_dilation() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for q in (0.0, 0.05, 0.1, 0.3):
        att = pauli_twirl_attack(q, q)
        fw = att.forward
        for _ in range(4):
            u = haar_isometry(3, 3, rng)
            rho = u @ np.diag(rng.dirichlet(np.ones(3))).astype(complex) @ u.conj().T
            big = fw @ rho @ fw.conj().T
            reduced = np.einsum("aibi->ab", big.reshape(3, 9, 3, 9))
            worst = max(worst, float(np.max(np.abs(
                reduced - ternary_channel_apply(rho, q)))))
        # covariance: the induced channel in the T and K bases is identical
        for bid in ("T", "K"):
            b = basis_vectors(bid)
            for col in range(3):
                rho = np.outer(b[:, col], b[:, col].conj())
                big = fw @ rho @ fw.conj().T
                reduced = np.einsum("aibi->ab", big.reshape(3, 9, 3, 9))
                expected = b @ np.diag(
                    [1 - 2 * q if i == col else q for i in range(3)]
                ).astype(complex) @ b.conj().T
                worst = max(worst, float(np.max(np.abs(reduced - expected))))
    return worst < 1e-12, f"max deviation {worst:.3e}"


def check_lemma1() -> tuple[bool, str]:
    n_cases, seed = 50, 2000
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        n_blocks = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(n_blocks))
        blocks = []
        for w in weights:
            u = haar_isometry(3, 3, rng)
            rho = u @ np.diag(rng.dirichlet(np.ones(3))).astype(complex) @ u.conj().T
            blocks.append((float(w), rho))
        lhs, rhs = lemma1_check(blocks)
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-10, f"{n_cases} cases, max |lhs-rhs| {worst:.3e}"


def check_expansion_equivalence() -> tuple[bool, str]:
    n_attacks = 100
    worst = 0.0
    for fams in _random_families(n_attacks, 3000):
        gram = f_gram(fams)
        for variant in ("phi1", "phi2"):
            direct = basis_error_direct(fams, variant)
            expanded = basis_error_expanded(gram, variant)
            worst = max(worst, float(np.max(np.abs(direct - expanded))))
    return worst < 1e-10, f"{n_attacks} attacks, max |direct-expanded| {worst:.3e}"


def check_eigenvalue_oracle() -> tuple[bool, str]:
    n_cases, seed = 100, 4000
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        chi, sg, rh = (rng.normal() + 1j * rng.normal() for _ in range(3))
        dec = Sigma1Decomposition(chi, sg, rh,
                                  p111=float(rng.uniform(0.05, 1.0)),
                                  p222=float(rng.uniform(0.05, 1.0)))
        lam1, lam2 = sigma1_eigenvalues(dec.p000, dec.p111, dec.p222,
                                        dec.p_value)
        evals = np.sort(np.linalg.eigvalsh(dec.matrix()))
        worst = max(worst, abs(evals[-1] - lam1), abs(evals[-2] - lam2),
                    abs(evals[0]))
    return worst < 1e-10, f"{n_cases} cases, max |closed-form - eig| {worst:.3e}"


def check_entropy_inequalities() -> tuple[bool, str]:
    """Gates on strong sub-additivity and on s_ec_bound >= S(EC); reports
    the printed expression's slack."""
    notes = []
    ok = True
    for q in (0.02, 0.05):
        fams = vector_families(pauli_twirl_attack(q, q))
        ents = conditional_entropies(fams)
        gap = ents["S_B_given_E"] - ents["S_B_given_EC"]
        p_tab = p_table_from_attack(fams)
        p_exact = no_error_overlap(fams)
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
