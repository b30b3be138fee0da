"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criterion 8 checks the certified bound s_ec_bound against the exact S(EC)
of the symmetric twirl.  The paper's printed expression s_ec_upper is not
an upper bound there (the single-trit charge for the error blocks and the
rank-2 ansatz for the no-error block both fail); test_keyrate asserts that
defect as it stands, and the README documents it.
"""
import time

import numpy as np
import pytest

from sqkd3.attack import (ChannelScenario, pauli_twirl_attack, random_attack,
                          ternary_channel_apply, vector_families)
from sqkd3.keyrate import (Sigma1Decomposition, conditional_entropies,
                           find_threshold, key_rate, lemma1_check, s_ec_bound,
                           sigma1_eigenvalues)
from sqkd3.linalg import haar_isometry
from sqkd3.sim import run_protocol
from sqkd3.stats import (basis_error_direct, basis_error_expanded, f_gram,
                         p_table_from_attack, stat_table_from_attack)

REFERENCE_THRESHOLDS = {("phi1", "dependent"): 0.191,
                    ("phi1", "independent"): 0.061,
                    ("phi2", "dependent"): 0.042,
                    ("phi2", "independent"): 0.030}

_found_thresholds = {}


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_noiseless_rate():
    start = time.perf_counter()
    worst = 0.0
    for variant in ("phi1", "phi2"):
        for model in ("dependent", "independent"):
            rep = key_rate(ChannelScenario(q=0.0, model=model, variant=variant,
                                           p_mode="corrected"))
            worst = max(worst, abs(rep.r - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    assert report(1, "noiseless sanity", ok,
                  f"max |r(0)-1| = {worst:.2e}, {elapsed:.2f}s"), worst


def test_criterion_2_reference_thresholds():
    start = time.perf_counter()
    details = []
    ok = True
    for (variant, model), target in REFERENCE_THRESHOLDS.items():
        thr = find_threshold(variant, model)
        _found_thresholds[(variant, model)] = thr
        good = thr is not None and abs(thr - target) <= 0.005
        ok = ok and good
        details.append(f"{variant}/{model}: {thr:.4f} (target {target})")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert report(2, "reference noise tolerances", ok,
                  "; ".join(details) + f", {elapsed:.1f}s"), details


def test_criterion_3_qubit_comparison():
    thr = _found_thresholds.get(("phi1", "dependent")) or \
        find_threshold("phi1", "dependent")
    ok = thr > 0.0534 and thr > 0.15
    assert report(3, "dimension advantage ordering", ok,
                  f"phi1/dependent threshold {thr:.4f} > 0.0534 and > 0.15"), thr


def test_criterion_4_expansion_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20_240)
    worst = 0.0
    for trial in range(100):
        attack = random_attack(int(rng.choice([1, 3, 9])),
                               int(rng.choice([1, 3, 9])), 50_000 + trial)
        fams = vector_families(attack)
        gram = f_gram(fams)
        for variant in ("phi1", "phi2"):
            delta = np.max(np.abs(basis_error_direct(fams, variant)
                                  - basis_error_expanded(gram, variant)))
            worst = max(worst, float(delta))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    assert report(4, "error-expansion term-table oracle", ok,
                  f"100 attacks, max |direct-expanded| = {worst:.2e}, "
                  f"{elapsed:.1f}s"), worst


def test_criterion_5_eigenvalue_oracle():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        dec = Sigma1Decomposition(
            chi=complex(rng.normal(), rng.normal()),
            sigma=complex(rng.normal(), rng.normal()),
            rho_c=complex(rng.normal(), rng.normal()),
            p111=float(rng.uniform(0.05, 1.5)),
            p222=float(rng.uniform(0.05, 1.5)))
        lam1, lam2 = sigma1_eigenvalues(dec.p000, dec.p111, dec.p222,
                                        dec.p_value)
        evals = np.sort(np.linalg.eigvalsh(dec.matrix()))
        worst = max(worst, abs(lam1 - evals[-1]), abs(lam2 - evals[-2]))
    ok = worst < 1e-10
    assert report(5, "eigenvalue closed forms", ok,
                  f"100 cases, max |closed form - eigensolver| = {worst:.2e}"), \
        worst


def test_criterion_6_lemma1_oracle():
    rng = np.random.default_rng(888)
    worst = 0.0
    for _ in range(50):
        n_blocks = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(n_blocks))
        blocks = []
        for w in weights:
            u = haar_isometry(3, 3, rng)
            rho = u @ np.diag(rng.dirichlet(np.ones(3))).astype(complex) \
                @ u.conj().T
            blocks.append((float(w), rho))
        lhs, rhs = lemma1_check(blocks)
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-10
    assert report(6, "block-decomposition entropy identity", ok,
                  f"50 cases, max |lhs-rhs| = {worst:.2e}"), worst


def test_criterion_7_channel_dilation():
    rng = np.random.default_rng(99)
    worst = 0.0
    for q in (0.0, 0.05, 0.1, 0.3):
        fw = pauli_twirl_attack(q, q).forward
        for _ in range(5):
            u = haar_isometry(3, 3, rng)
            rho = u @ np.diag(rng.dirichlet(np.ones(3))).astype(complex) \
                @ u.conj().T
            big = fw @ rho @ fw.conj().T
            reduced = np.einsum("aibi->ab", big.reshape(3, 9, 3, 9))
            worst = max(worst, float(np.max(np.abs(
                reduced - ternary_channel_apply(rho, q)))))
    ok = worst < 1e-12
    assert report(7, "channel dilation", ok,
                  f"Q in {{0, 0.05, 0.1, 0.3}}, max deviation = {worst:.2e}"), \
        worst


def test_criterion_8_entropy_inequalities():
    details = []
    ok = True
    for q in (0.02, 0.05):
        fams = vector_families(pauli_twirl_attack(q, q))
        ents = conditional_entropies(fams)
        ssa_slack = ents["S_B_given_E"] - ents["S_B_given_EC"]
        ok = ok and ssa_slack >= -1e-9
        p = p_table_from_attack(fams)
        pairs = [(fams.ekij[(0, 0, 0)], fams.ekij[(1, 1, 4)]),
                 (fams.ekij[(0, 0, 0)], fams.ekij[(2, 2, 8)]),
                 (fams.ekij[(1, 1, 4)], fams.ekij[(2, 2, 8)])]
        p_exact = sum(abs(np.vdot(a, b)) ** 2 for a, b in pairs)
        bound_slack = s_ec_bound(p, p_exact) - ents["S_EC_exact"]
        ok = ok and bound_slack >= -1e-9
        details.append(f"Q={q}: subadditivity slack {ssa_slack:+.2e}, "
                       f"upper-bound slack {bound_slack:+.2e}")
    assert report(8, "entropy inequality spot checks", ok,
                  "; ".join(details)), details


def test_criterion_9_monte_carlo_convergence():
    start = time.perf_counter()
    q, seed, n = 0.1, 0, 1_000_000
    attack = pauli_twirl_attack(q, q)
    res = run_protocol(n, attack, "phi1", seed=seed)
    table = stat_table_from_attack(attack, "phi1")
    per_sent = res.counts_p.sum(axis=(1, 2))
    worst = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                p = table.p[i, j, k]
                sd = np.sqrt(p * (1 - p) / per_sent[i])
                worst = max(worst, abs(res.empirical_p[i, j, k] - p) / sd)
    elapsed = time.perf_counter() - start
    ok = worst < 3.0 and elapsed < 60.0
    assert report(9, "Monte Carlo convergence", ok,
                  f"n=1e6, seed={seed}, max deviation {worst:.2f} sigma, "
                  f"{elapsed:.1f}s"), worst


def test_criterion_10_monotonicity():
    worst = -np.inf
    details = []
    for (variant, model), _target in REFERENCE_THRESHOLDS.items():
        thr = _found_thresholds.get((variant, model)) or \
            find_threshold(variant, model)
        grid = np.linspace(0.0, min(thr + 0.05, 0.375), 200)
        rates = [key_rate(ChannelScenario(q=float(q), model=model,
                                          variant=variant)).r for q in grid]
        increase = max(rates[i + 1] - rates[i] for i in range(len(rates) - 1))
        worst = max(worst, increase)
        details.append(f"{variant}/{model}: max step {increase:+.2e}")
    ok = worst <= 1e-9
    assert report(10, "monotonicity in noise", ok, "; ".join(details)), worst
