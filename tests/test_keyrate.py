import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqkd3.keyrate as keyrate
from sqkd3.attack import ChannelScenario, pauli_twirl_attack, random_attack, \
    vector_families
from sqkd3.keyrate import (Q_MAX, Sigma1Decomposition, conditional_entropies,
                           find_threshold, h_b_given_a,
                           key_rate, key_rate_curve, key_rate_from_table,
                           lemma1_check, no_error_overlap, p_lower_bound,
                           rho_be, rho_bec, s_bec, s_ec_bound, s_ec_upper,
                           sigma1_eigenvalues, sigma1_entropy_terms,
                           trace_out_receiver, x_bound)
from sqkd3.linalg import haar_isometry, shannon_entropy3, von_neumann_entropy3
from sqkd3.stats import (StatTable, joint_and_marginal, p_table_from_attack,
                         p_table_symmetric, stat_table_for_scenario,
                         stat_table_from_attack, t_values)

LOG3_2 = 0.6309297535714574
S_BEC_Q005 = 1.7179924992930606  # frozen 40-digit oracle, symmetric q=0.05


def noiseless_table(variant="phi1", basis_err=0.0):
    return StatTable(p_table_symmetric(0.0, 0.0), np.full(6, basis_err), variant)


# ---------------------------------------------------------------------------
# X statistic
# ---------------------------------------------------------------------------

def _sqrt_sums_independent(p):
    """Group-product evaluation of the two square-root sums.

    Independent of the literal term lists: the 54 positive terms are six
    products of cell triples {p[i, :, k]}, the 24 negative ones are the
    three diagonal-group products without their all-match cross terms.
    """
    pos_pairs = [((0, 1), (1, 2)), ((0, 1), (2, 0)), ((0, 2), (1, 0)),
                 ((0, 2), (2, 1)), ((1, 0), (2, 1)), ((1, 2), (2, 0))]
    s54 = sum(math.sqrt(p[i1, j1, k1] * p[i2, j2, k2])
              for (i1, k1), (i2, k2) in pos_pairs
              for j1 in range(3) for j2 in range(3))
    neg_pairs = [((0, 0), (1, 1)), ((0, 0), (2, 2)), ((1, 1), (2, 2))]
    s24 = sum(math.sqrt(p[i1, j1, k1] * p[i2, j2, k2])
              for (i1, k1), (i2, k2) in neg_pairs
              for j1 in range(3) for j2 in range(3)
              if not (j1 == i1 and j2 == i2))
    return s54, s24


@pytest.mark.parametrize("variant", ["phi1", "phi2"])
def test_x_bound_noiseless(variant):
    assert x_bound(noiseless_table(variant)) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("variant", ["phi1", "phi2"])
def test_x_bound_pure_basis_error(variant):
    q = 0.04
    assert x_bound(noiseless_table(variant, q)) == pytest.approx(3 - 9 * q,
                                                                 abs=1e-12)


@pytest.mark.parametrize("variant,c54", [("phi1", 0.5), ("phi2", -1.0)])
def test_x_bound_against_group_product_oracle(variant, c54):
    scenario = ChannelScenario(q=0.05, model="dependent", variant=variant)
    table = stat_table_for_scenario(scenario)
    s54, s24 = _sqrt_sums_independent(table.p)
    expected = 3 - 1.5 * table.basis_err.sum() + c54 * s54 - s24
    assert x_bound(table) == pytest.approx(expected, abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_x_bound_oracle_on_random_attacks(seed):
    table = stat_table_from_attack(random_attack(3, 3, seed), "phi1")
    s54, s24 = _sqrt_sums_independent(table.p)
    expected = 3 - 1.5 * table.basis_err.sum() + 0.5 * s54 - s24
    assert x_bound(table) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# p lower bound and eigenvalue forms
# ---------------------------------------------------------------------------

def test_p_lower_bound_modes():
    table = noiseless_table()
    assert p_lower_bound(3.0, table, "corrected") == pytest.approx(3.0)
    # 3.3^2 / 3 = 3.63 is capped at the feasibility ceiling 3
    assert p_lower_bound(3.3, table, "corrected") == pytest.approx(3.0)
    assert p_lower_bound(-0.7, table, "corrected") == 0.0
    assert p_lower_bound(-0.7, table, "as-printed") == 0.0
    # as-printed is the uncapped square, as key_rate reports it
    assert p_lower_bound(3.0, table, "as-printed") == pytest.approx(9.0)
    with pytest.raises(ValueError):
        p_lower_bound(1.0, table, "bogus")


def test_p_lower_bound_is_the_reported_p_lower():
    attacks = [pauli_twirl_attack(q, q) for q in (0.0, 0.02, 0.05, 0.1, 0.3)]
    attacks += [random_attack(d_f, d_r, seed=50 + 10 * d_f + d_r)
                for d_f, d_r in itertools.product((1, 3, 9), repeat=2)]
    for attack in attacks:
        for variant in ("phi1", "phi2"):
            table = stat_table_from_attack(attack, variant)
            for mode in ("as-printed", "corrected"):
                assert p_lower_bound(x_bound(table), table, mode) == \
                    key_rate_from_table(table, "as-printed", mode).p_lower


@pytest.mark.parametrize("q,p_low,overlap", [(0.02, 2.548, 2.342),
                                              (0.05, 1.968, 1.566)])
def test_corrected_p_lower_exceeds_twirl_overlap(q, p_low, overlap):
    # the corrected p_lower is not a lower bound on the no-error overlap
    # sum: on the twirl's own statistics it lies above the exact value
    table = stat_table_for_scenario(ChannelScenario(q=q, p_mode="corrected"))
    value = p_lower_bound(x_bound(table), table, "corrected")
    exact = no_error_overlap(vector_families(pauli_twirl_attack(q, q)))
    assert value == pytest.approx(p_low, abs=1e-3)
    assert exact == pytest.approx(overlap, abs=1e-3)
    assert value > exact


def test_sigma1_eigenvalue_closed_forms():
    assert sigma1_eigenvalues(1, 1, 1, 3.0) == pytest.approx((1.0, 0.0))
    assert sigma1_eigenvalues(1, 1, 1, 0.0) == pytest.approx((0.5, 0.5))
    with pytest.raises(ValueError):
        sigma1_eigenvalues(0, 0, 0, 0)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=50, deadline=None)
def test_sigma1_closed_forms_match_eigensolver(seed):
    rng = np.random.default_rng(seed)
    dec = Sigma1Decomposition(
        chi=complex(rng.normal(), rng.normal()),
        sigma=complex(rng.normal(), rng.normal()),
        rho_c=complex(rng.normal(), rng.normal()),
        p111=float(rng.uniform(0.05, 1.5)), p222=float(rng.uniform(0.05, 1.5)))
    assert dec.p000 == pytest.approx(abs(dec.chi) ** 2 + abs(dec.sigma) ** 2
                                     + abs(dec.rho_c) ** 2)
    lam1, lam2 = sigma1_eigenvalues(dec.p000, dec.p111, dec.p222, dec.p_value)
    evals = np.sort(np.linalg.eigvalsh(dec.matrix()))
    assert abs(evals[0]) < 1e-10  # rank <= 2
    assert lam1 == pytest.approx(evals[-1], abs=1e-10)
    assert lam2 == pytest.approx(evals[-2], abs=1e-10)


# ---------------------------------------------------------------------------
# entropy pieces
# ---------------------------------------------------------------------------

def test_s_bec_values():
    assert s_bec(noiseless_table()) == pytest.approx(1.0, abs=1e-12)
    uniform = StatTable(p_table_symmetric(1 / 3, 1 / 3), np.zeros(6), "phi1")
    assert s_bec(uniform) == pytest.approx(3.0, abs=1e-12)
    q005 = StatTable(p_table_symmetric(0.05, 0.05), np.zeros(6), "phi1")
    assert s_bec(q005) == pytest.approx(S_BEC_Q005, abs=1e-12)


def test_s_ec_upper_values():
    assert s_ec_upper((3, 0, 0, 0), 1.0, 0.0) == 0.0
    assert s_ec_upper((3, 0, 0, 0), 0.5, 0.5) == pytest.approx(LOG3_2, abs=1e-12)
    assert s_ec_upper((0, 1, 1, 1), 1.0, 0.0) == pytest.approx(2.0, abs=1e-12)


def test_h_b_given_a_values():
    assert h_b_given_a(joint_and_marginal(p_table_symmetric(0, 0))) == \
        pytest.approx(0.0, abs=1e-12)

    from sqkd3.stats import JointDistribution
    uniform = JointDistribution(np.full((3, 3), 1 / 9), np.full(3, 1 / 3),
                                "as-printed")
    assert h_b_given_a(uniform) == pytest.approx(1.0, abs=1e-12)


def test_h_b_given_a_against_direct_summation():
    q = 0.1
    p = p_table_symmetric(q, q)
    jd = joint_and_marginal(p, "as-printed")

    def h3(vals):
        return -sum(v * math.log(v, 3) for v in vals if v > 0)

    joint = []
    for b in range(3):
        for a in range(3):
            w = 1 / 3 if b == a else 2 / 3
            joint.append(w * sum(p[i, b, a] for i in range(3)))
    marg = [sum(joint[b * 3 + a] for b in range(3)) for a in range(3)]
    assert h_b_given_a(jd) == pytest.approx(h3(joint) - h3(marg), abs=1e-12)


# ---------------------------------------------------------------------------
# full evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["phi1", "phi2"])
@pytest.mark.parametrize("model", ["dependent", "independent"])
def test_noiseless_rate_is_one_in_corrected_mode(variant, model):
    rep = key_rate(ChannelScenario(q=0.0, model=model, variant=variant,
                                   p_mode="corrected"))
    assert rep.r == pytest.approx(1.0, abs=1e-9)
    assert rep.S_EC_upper == pytest.approx(0.0, abs=1e-12)
    assert rep.lambda1 == pytest.approx(1.0) and rep.lambda2 == pytest.approx(0.0)


def test_report_invariants_and_flags():
    rep = key_rate(ChannelScenario(q=0.08, model="independent",
                                   variant="phi2", p_mode="as-printed"))
    assert rep.lambda1 + rep.lambda2 == pytest.approx(1.0, abs=1e-9)
    assert sum(rep.t) == pytest.approx(3.0, abs=1e-9)
    assert rep.convention_flags["variant"] == "phi2"
    assert rep.convention_flags["p_mode"] == "as-printed"
    doc = rep.to_json()
    assert '"S_EC_upper"' in doc and '"convention_flags"' in doc


def test_corrected_mode_entropy_terms_nonnegative():
    for q in (0.0, 0.03, 0.08, 0.2):
        rep = key_rate(ChannelScenario(q=q, p_mode="corrected"))
        assert rep.S_EC_upper >= -1e-12
        assert rep.S_BEC >= 0 and rep.H_B_given_A >= -1e-12
        assert 0 <= rep.lambda2 <= rep.lambda1 <= 1


def test_find_threshold_reports_absence(monkeypatch):
    monkeypatch.setattr(keyrate, "key_rate_curve",
                        lambda q, *conventions: {"r": np.ones(len(q))})
    assert find_threshold("phi1", "dependent") is None


def test_find_threshold_reports_absence_unpatched():
    # phi1 under the normalized weighting with halved basis noise stays
    # positive on the whole of [0, 3/8]
    assert find_threshold("phi1", "dependent", "total", "normalized") is None


# ---------------------------------------------------------------------------
# batched kernel against the scalar stage functions
# ---------------------------------------------------------------------------

CONVENTIONS = list(itertools.product(
    ("phi1", "phi2"), ("dependent", "independent"), ("per-pair", "total"),
    ("as-printed", "normalized"), ("as-printed", "corrected")))

#: Scalar `x ** 2` is libm pow, an array `x ** 2` an exact product; at this
#: point they differ, and phi1/dependent/corrected prints lambda2 = 2**-54
#: where an exact square gives 0.
POW_TRAP_Q = float(np.linspace(0.0, 1 / 3, 5001)[335])


def scalar_recomposition(scn: ChannelScenario) -> dict:
    """key_rate(scn) rebuilt from the public stage functions, one call each."""
    table = stat_table_for_scenario(scn)
    t = t_values(table.p)
    x = x_bound(table)
    p_low = p_lower_bound(x, table, scn.p_mode)
    p = table.p
    lam1, lam2, ent = sigma1_entropy_terms(p[0, 0, 0], p[1, 1, 1], p[2, 2, 2],
                                           p_low, scn.p_mode)
    bec = s_bec(table)
    if scn.p_mode == "corrected":
        ec_upper = s_ec_upper(t, lam1, lam2)
    else:
        ec_upper = (shannon_entropy3([t[0] / 3, t[1] / 3, t[2] / 3, t[3] / 3])
                    + (t[1] + t[2] + t[3]) / 3.0 + t[0] / 3.0 * ent)
    hba = h_b_given_a(joint_and_marginal(p, scn.joint_weighting))
    return {"t1": t[0], "t2": t[1], "t3": t[2], "t4": t[3], "X": x,
            "S_clamped": max(x, 0.0) ** 2, "p_lower": p_low, "lambda1": lam1,
            "lambda2": lam2, "S_BEC": bec, "S_EC_upper": ec_upper,
            "H_B_given_A": hba, "r": bec - ec_upper - hba}


@given(st.lists(st.floats(min_value=0.0, max_value=Q_MAX), min_size=1,
                max_size=12),
       st.sampled_from(CONVENTIONS))
@example([POW_TRAP_Q], ("phi1", "dependent", "per-pair", "as-printed", "corrected"))
@example([0.0, 1 / 3, Q_MAX], ("phi2", "independent", "total", "normalized",
                                "as-printed"))
@settings(max_examples=80, deadline=None)
def test_kernel_rows_equal_scalar_recomposition(qs, conv):
    variant, model, basis, weighting, p_mode = conv
    cols = key_rate_curve(np.array(qs), model, variant, basis, weighting, p_mode)
    for i, q in enumerate(qs):
        scn = ChannelScenario(q=q, model=model, variant=variant,
                              basis_noise_convention=basis,
                              joint_weighting=weighting, p_mode=p_mode)
        for name, value in scalar_recomposition(scn).items():
            assert float(cols[name][i]).hex() == float(value).hex(), (name, q)
        assert float(cols["r"][i]).hex() == float(key_rate(scn).r).hex()


def test_kernel_keeps_scalar_pow_rounding():
    cols = key_rate_curve(np.linspace(0.0, 1 / 3, 5001), p_mode="corrected")
    assert cols["Q"][335] == POW_TRAP_Q
    assert f"{cols['lambda2'][335]:.9g}" == "5.55111512e-17"
    assert cols["lambda2"][335] == 2.0 ** -54


def test_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        key_rate_curve(np.array([0.1, 0.4]))
    with pytest.raises(ValueError):
        key_rate_curve(np.array([0.1, np.nan]))
    with pytest.raises(ValueError):
        key_rate_curve(np.array([0.1]), model="bogus")


def test_lemma1_check_examples():
    rng = np.random.default_rng(3)
    u = haar_isometry(3, 3, rng)
    rho = u @ np.diag(rng.dirichlet(np.ones(3))).astype(complex) @ u.conj().T
    lhs, rhs = lemma1_check([(1.0, rho)])
    assert lhs == pytest.approx(rhs, abs=1e-12)

    pure0 = np.zeros((3, 3), dtype=complex)
    pure0[0, 0] = 1.0
    lhs, rhs = lemma1_check([(0.5, pure0), (0.5, pure0.copy())])
    assert lhs == pytest.approx(LOG3_2, abs=1e-12)
    assert rhs == pytest.approx(LOG3_2, abs=1e-12)
    with pytest.raises(ValueError):
        lemma1_check([(0.7, pure0)])


def test_strong_subadditivity_random_attack():
    fams = vector_families(random_attack(3, 3, seed=99))
    ents = conditional_entropies(fams)
    assert ents["S_B_given_E"] >= ents["S_B_given_EC"] - 1e-9


def test_twirl_exact_conditioned_entropy_pieces():
    # for the symmetric twirl the error pattern is recorded in the ancilla,
    # so conditioning adds nothing and the two conditional entropies agree
    fams = vector_families(pauli_twirl_attack(0.05, 0.05))
    ents = conditional_entropies(fams)
    assert ents["S_B_given_E"] == pytest.approx(ents["S_B_given_EC"], abs=1e-9)
    assert ents["S_EC_exact"] > 0


def _rho_bec_outer_products(fams):
    """rho_bec as a sum of 27 outer products of full-length vectors."""
    dim_e = fams.ekij[(0, 0, 0)].shape[0]
    dim = 3 * dim_e * 4
    rho = np.zeros((dim, dim), dtype=complex)
    for j, i, k in itertools.product(range(3), repeat=3):
        flips = int(i != j) + int(j != k)
        c = (0 if flips == 0 else 1) if j == k else (2 if flips == 1 else 3)
        big = np.zeros(dim, dtype=complex)
        big[j * dim_e * 4 + c::4][:dim_e] = fams.ekij[(k, j, 3 * i + j)]
        rho += np.outer(big, big.conj()) / 3.0
    return rho


@pytest.mark.parametrize("attack", [pauli_twirl_attack(0.05, 0.05),
                                    random_attack(3, 9, seed=17)],
                         ids=["twirl", "random"])
def test_rho_bec_bit_equal_to_outer_products(attack):
    fams = vector_families(attack)
    assert rho_bec(fams).tobytes() == _rho_bec_outer_products(fams).tobytes()


def _trace_out_register(bec):
    dim = bec.shape[0] // 4
    return np.einsum("acbd->ab", bec.reshape(dim, 4, dim, 4))


@pytest.mark.parametrize("q", [0.02, 0.1, 0.3])
def test_rho_be_is_rho_bec_without_register_on_twirl(q):
    fams = vector_families(pauli_twirl_attack(q, q))
    assert rho_be(fams).tobytes() == _trace_out_register(rho_bec(fams)).tobytes()


@pytest.mark.parametrize("d_f,d_r", itertools.product((1, 3, 9), repeat=2))
def test_rho_be_is_rho_bec_without_register_on_random_attacks(d_f, d_r):
    # summed per register level and then over levels, the records of one
    # receiver symbol add in another order, so bits may differ
    fams = vector_families(random_attack(d_f, d_r, seed=10 * d_f + d_r))
    gap = np.abs(rho_be(fams) - _trace_out_register(rho_bec(fams)))
    assert gap.max() <= 1e-15


def _full_spectrum_entropy(rho):
    return shannon_entropy3(np.clip(np.linalg.eigvalsh(rho), 0.0, None))


@pytest.mark.parametrize("attack", [
    pauli_twirl_attack(0.02, 0.02), pauli_twirl_attack(0.05, 0.05),
    random_attack(3, 3, seed=41), random_attack(9, 9, seed=42)],
    ids=["twirl-0.02", "twirl-0.05", "random-3-3", "random-9-9"])
def test_conditional_entropies_match_full_spectra(attack):
    fams = vector_families(attack)
    be, bec = rho_be(fams), rho_bec(fams)
    dim_e = be.shape[0] // 3
    s_e = _full_spectrum_entropy(trace_out_receiver(be, dim_e))
    s_ec = _full_spectrum_entropy(trace_out_receiver(bec, dim_e * 4))
    ref = {"S_B_given_E": _full_spectrum_entropy(be) - s_e,
           "S_B_given_EC": _full_spectrum_entropy(bec) - s_ec,
           "S_EC_exact": s_ec}
    ents = conditional_entropies(fams)
    for key, value in ref.items():
        assert abs(ents[key] - value) < 1e-12, key


def _dense_conditional_entropies(fams):
    """conditional_entropies recomposed from the assembled states, as the
    benchmark's traced replay does."""
    be, bec = rho_be(fams), rho_bec(fams)
    dim_e = be.shape[0] // 3
    s_ec = von_neumann_entropy3(trace_out_receiver(bec, dim_e * 4))
    return {"S_B_given_E": (von_neumann_entropy3(be)
                            - von_neumann_entropy3(trace_out_receiver(be, dim_e))),
            "S_B_given_EC": von_neumann_entropy3(bec) - s_ec,
            "S_EC_exact": s_ec}


@given(st.floats(min_value=0.0, max_value=Q_MAX))
@example(0.01)
@example(0.3)
@settings(max_examples=10, deadline=None)
def test_conditional_entropies_equal_dense_states_on_twirl(q):
    fams = vector_families(pauli_twirl_attack(q, q))
    assert conditional_entropies(fams) == _dense_conditional_entropies(fams)


@pytest.mark.parametrize("d_f,d_r", itertools.product((1, 3, 9), repeat=2))
def test_conditional_entropies_equal_dense_states_on_random_attacks(d_f, d_r):
    fams = vector_families(random_attack(d_f, d_r, seed=70 + 10 * d_f + d_r))
    assert conditional_entropies(fams) == _dense_conditional_entropies(fams)


def test_conditional_entropies_assemble_no_dense_state(monkeypatch):
    fams = vector_families(pauli_twirl_attack(0.05, 0.05))
    expected = conditional_entropies(fams)

    def refuse(blocks):
        raise AssertionError("dense state assembled")
    monkeypatch.setattr(keyrate, "_block_diagonal", refuse)
    assert conditional_entropies(fams) == expected


# ---------------------------------------------------------------------------
# Certified S(EC) bound against the exact conditioned states
# ---------------------------------------------------------------------------

def _s_ec_pieces(attack):
    """(exact S(EC), table p, no-error overlap sum) of an attack."""
    fams = vector_families(attack)
    return (conditional_entropies(fams)["S_EC_exact"], p_table_from_attack(fams),
            no_error_overlap(fams))


@functools.cache
def _twirl_s_ec_pieces(q):
    return _s_ec_pieces(pauli_twirl_attack(q, q))


@pytest.mark.parametrize("d_f,d_r", itertools.product((1, 3, 9), repeat=2))
def test_s_ec_bound_holds_on_random_attacks(d_f, d_r):
    s_ec, p, overlap = _s_ec_pieces(random_attack(d_f, d_r, seed=10 * d_f + d_r))
    bound = s_ec_bound(p, overlap)
    assert bound >= s_ec - 1e-9
    # any smaller overlap is also admissible and gives a looser bound
    assert s_ec_bound(p, 0.0) >= bound - 1e-12


@pytest.mark.parametrize("q", [0.0, 0.02, 0.05, Q_MAX])
def test_s_ec_bound_is_tight_on_twirl(q):
    # the twirl's error blocks are maximally mixed over their records and
    # its no-error spectrum has the (a, b, b) form, so the bound is exact
    s_ec, p, overlap = _twirl_s_ec_pieces(q)
    assert s_ec_bound(p, overlap) == pytest.approx(s_ec, abs=1e-9)


def test_s_ec_bound_edge_tables():
    assert s_ec_bound(p_table_symmetric(0.0, 0.0), 3.0) == 0.0
    # no no-error mass: every round has an outbound error only, spread
    # evenly over three cells of that pattern, so the bound is one trit
    p = np.zeros((3, 3, 3))
    for i in range(3):
        p[i, (i + 1) % 3, (i + 1) % 3] = 1.0
    assert s_ec_bound(p, 0.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("q,shortfall", [(0.02, -0.066), (0.05, -0.160)])
def test_s_ec_upper_falls_short_on_twirl(q, shortfall):
    # known formula defect (README): the printed expression, with the
    # eigenvalues of the exact overlap sum, is below the exact S(EC)
    s_ec, p, overlap = _twirl_s_ec_pieces(q)
    lam1, lam2 = sigma1_eigenvalues(p[0, 0, 0], p[1, 1, 1], p[2, 2, 2], overlap)
    assert s_ec_upper(t_values(p), lam1, lam2) - s_ec == pytest.approx(
        shortfall, abs=1e-3)


def test_key_rate_from_attack_table_matches_scenario():
    # the twirl's exact statistics coincide with the analytic scenario table
    q = 0.06
    att_table = stat_table_from_attack(pauli_twirl_attack(q, q), "phi1")
    scen_table = stat_table_for_scenario(
        ChannelScenario(q=q, model="independent", variant="phi1"))
    assert np.max(np.abs(att_table.p - scen_table.p)) < 1e-12
    rep1 = key_rate_from_table(att_table)
    rep2 = key_rate_from_table(scen_table)
    assert rep1.S_BEC == pytest.approx(rep2.S_BEC, abs=1e-12)
    assert rep1.H_B_given_A == pytest.approx(rep2.H_B_given_A, abs=1e-12)
