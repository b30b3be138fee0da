import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqkd3.keyrate as keyrate
import sqkd3.linalg as linalg
from sqkd3.attack import ChannelScenario, VectorFamilies, \
    alternative_basis_error, pauli_twirl_attack, random_attack, \
    random_attack_stacks, vector_families
from sqkd3.keyrate import (Q_MAX, Sigma1Decomposition, conditional_entropies,
                           find_threshold, h_b_given_a,
                           key_rate, key_rate_curve, key_rate_from_table,
                           lemma1_check, no_error_overlap, p_lower_bound,
                           rho_be, rho_bec, s_bec, s_ec_bound, s_ec_upper,
                           sigma1_eigenvalues, sigma1_entropy_terms,
                           trace_out_receiver, x_bound)
from sqkd3.linalg import (LN3, entropy3, haar_isometry, shannon_entropy3,
                          von_neumann_entropy3)
from sqkd3.stats import (StatTable, check_p_tables, joint_and_marginal,
                         measure_records, p_table_from_attack, p_table_symmetric,
                         stat_table_for_scenario, stat_table_from_attack,
                         t_values)

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


def sigma1_terms_reference(p000, p111, p222, p, mode: str):
    """The two-branch code that _sigma1_terms replaced, statement for statement."""
    def _square(x):
        return np.float_power(x, 2)

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

    def _eigenvalue_entropy(lam) -> np.ndarray:
        return entropy3(np.asarray(lam)[..., None])

    def _entropy_term_analytic(lam: np.ndarray) -> np.ndarray:
        zero = lam == 0
        return np.where(zero, 0.0, (-lam * np.log(np.where(zero, 1.0, lam))).real / LN3)

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


def assert_sigma1_terms_equal_reference(p000, p111, p222, p, mode):
    lam1, lam2, ent = sigma1_entropy_terms(p000, p111, p222, p, mode)
    ref1, ref2, ref_ent = sigma1_terms_reference(p000, p111, p222, p, mode)
    assert lam1.hex() == float(ref1).hex()
    assert lam2.hex() == float(ref2).hex()
    # == rather than hex: where both terms vanish the parent's sum was -0.0
    assert ent == float(ref_ent)


@pytest.mark.parametrize("mode", ["as-printed", "corrected"])
@pytest.mark.parametrize("model", ["dependent", "independent"])
@pytest.mark.parametrize("variant", ["phi1", "phi2"])
def test_sigma1_terms_equal_two_branch_reference_on_q_grid(variant, model, mode):
    # the grid reaches X < 0, where as-printed p = 0 and disc < 0; q = 0 is
    # lambda2 = 0 in the corrected mode
    for q in [*np.linspace(0.0, Q_MAX, 61), POW_TRAP_Q]:
        table = stat_table_for_scenario(ChannelScenario(
            q=q, model=model, variant=variant, p_mode=mode))
        p_low = p_lower_bound(x_bound(table), table, mode)
        assert_sigma1_terms_equal_reference(*table.p[[0, 1, 2], [0, 1, 2], [0, 1, 2]],
                                            p_low, mode)


@pytest.mark.parametrize("mode", ["as-printed", "corrected"])
@pytest.mark.parametrize("p000,p111,p222,p", [
    (1.0, 1.0, 1.0, 0.0),    # disc = -3
    (1.0, 1.0, 1.0, 0.75),   # disc = 0
    (1.0, 1.0, 1.0, 3.0),    # lambda = (1, 0)
    (0.9, 0.6, 0.3, 5.0),    # lambda1 > 1 before the clamp
])
def test_sigma1_terms_equal_two_branch_reference_on_edges(mode, p000, p111, p222, p):
    assert_sigma1_terms_equal_reference(p000, p111, p222, p, mode)


@given(st.tuples(*[st.floats(min_value=1e-3, max_value=1.5)] * 3),
       st.floats(min_value=0.0, max_value=9.0),
       st.sampled_from(["as-printed", "corrected"]))
@settings(max_examples=200, deadline=None)
def test_sigma1_terms_equal_two_branch_reference(diag, p, mode):
    assert_sigma1_terms_equal_reference(*diag, p, mode)


def test_sigma1_terms_reject_unknown_mode():
    with pytest.raises(ValueError, match="bogus"):
        sigma1_entropy_terms(1.0, 1.0, 1.0, 0.0, "bogus")


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
    for lam1, lam2 in [(1.2, -0.2), (1.2, 0.0), (np.nan, 0.5)]:
        with pytest.raises(ValueError, match="must lie in"):
            s_ec_upper((3, 0, 0, 0), lam1, lam2)


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


def test_report_from_table_names_the_variant():
    # the rate depends on the variant through X's coefficient
    table = stat_table_from_attack(pauli_twirl_attack(0.05, 0.05), "phi2")
    assert key_rate_from_table(table).convention_flags == {
        "joint_weighting": "as-printed", "p_mode": "as-printed",
        "variant": "phi2"}


@pytest.mark.parametrize("flags,name", [
    ({"p_mode": "corrected", "variant": "phi2"}, "p_mode"),
    ({"variant": "phi2"}, "variant"),
    ({"joint_weighting": "normalized"}, "joint_weighting"),
])
def test_report_from_table_rejects_flags_that_contradict_its_conventions(
        flags, name):
    # the as-printed rate of a phi1 table must not be labelled otherwise
    table = stat_table_for_scenario(ChannelScenario(q=0.05))
    with pytest.raises(ValueError, match=f"^convention flag {name}="):
        key_rate_from_table(table, p_mode="as-printed", convention_flags=flags)


def test_report_from_table_keeps_consistent_and_other_flags():
    scenario = ChannelScenario(q=0.05, model="independent",
                               p_mode="corrected")
    report = key_rate_from_table(stat_table_for_scenario(scenario),
                                 scenario.joint_weighting, scenario.p_mode,
                                 scenario.flags())
    assert report.convention_flags == scenario.flags()
    assert report == key_rate(scenario)


@pytest.mark.parametrize("flags,message", [
    ({"model": "bogus"},
     "unknown model 'bogus', expected one of dependent, independent"),
    ({"foo": 1}, "unknown convention flag 'foo', expected one of variant, "
                 "model, basis_noise_convention, joint_weighting, p_mode"),
], ids=["unknown-value", "unknown-name"])
def test_report_from_table_rejects_unknown_flags(flags, message):
    # both were stamped on the report as given
    table = stat_table_for_scenario(ChannelScenario(q=0.05))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        key_rate_from_table(table, convention_flags=flags)


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
                max_size=40),
       st.sampled_from(CONVENTIONS))
@example([POW_TRAP_Q], ("phi1", "dependent", "per-pair", "as-printed", "corrected"))
@example([0.0, 1 / 3, Q_MAX], ("phi2", "independent", "total", "normalized",
                                "as-printed"))
# Q = 0 rows, where entropy3 meets zero entries, in both weightings and
# both p-modes
@example([0.0], ("phi1", "dependent", "per-pair", "as-printed", "as-printed"))
@example([0.0, 0.1], ("phi2", "dependent", "per-pair", "as-printed",
                      "corrected"))
@example([0.05, 0.0], ("phi1", "independent", "total", "normalized",
                       "as-printed"))
@example([0.0], ("phi2", "independent", "per-pair", "normalized", "corrected"))
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


#: The two conventions whose rate stays positive on all of [0, 3/8]
NO_THRESHOLD = {("phi1", "dependent", "total", "normalized", "as-printed"),
                ("phi1", "independent", "total", "normalized", "as-printed")}


def test_rate_is_non_increasing_up_to_its_threshold():
    # find_threshold reports the first zero: past it the rate can rise
    # again, and under normalized weighting it is positive again at 3/8
    for conv in CONVENTIONS:
        variant, model, basis, weighting, p_mode = conv
        thr = find_threshold(variant, model, basis, weighting, p_mode)
        grid = np.linspace(0.0, Q_MAX if thr is None else thr, 2001)
        r = key_rate_curve(grid, model, variant, basis, weighting, p_mode)["r"]
        if thr is None:
            assert conv in NO_THRESHOLD and r.min() > 0.0
            continue
        assert np.all(np.diff(r) <= 0.0), conv
        r_max = key_rate_curve(np.array([Q_MAX]), model, variant, basis,
                               weighting, p_mode)["r"][0]
        assert (r_max > 0.0) == (weighting == "normalized"), conv


def test_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        key_rate_curve(np.array([0.1, 0.4]))
    with pytest.raises(ValueError):
        key_rate_curve(np.array([0.1, np.nan]))
    with pytest.raises(ValueError):
        key_rate_curve(np.array([0.1]), model="bogus")


@pytest.mark.parametrize("q", [0.1, np.array(0.1), np.full((2, 3), 0.1)],
                         ids=["scalar", "0-d", "2-d"])
def test_kernel_rejects_q_that_is_not_1d(q):
    with pytest.raises(ValueError, match="q must be a 1-d array"):
        key_rate_curve(q)


def whole_grid_curve(q, model, variant, basis, weighting, p_mode) -> dict:
    """key_rate_curve as one _evaluate pass over the whole grid."""
    p = p_table_symmetric(q, q)
    check_p_tables(p)
    err = alternative_basis_error(q, model, basis)
    return {"Q": q, **keyrate._evaluate(p, np.repeat(err[:, None], 6, axis=1),
                                        variant, weighting, p_mode)}


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1025, 5001])
def test_chunked_kernel_equals_whole_grid_pass(n):
    q = np.linspace(0.0, Q_MAX, n)
    for variant, model, basis, weighting, p_mode in CONVENTIONS:
        cols = key_rate_curve(q, model, variant, basis, weighting, p_mode)
        ref = whole_grid_curve(q, model, variant, basis, weighting, p_mode)
        assert list(cols) == list(ref)
        for name, col in cols.items():
            assert col.dtype == np.float64 and col.shape == (n,)
            assert col.tobytes() == ref[name].tobytes(), (name, n, p_mode)


@pytest.mark.parametrize("n, passes", [(512, [512]), (513, [512, 1]),
                                       (1025, [512, 512, 1])])
def test_kernel_passes_are_512_rows_and_one_pass_is_not_copied(
        monkeypatch, n, passes):
    calls, evaluate = [], keyrate._evaluate

    def recording(*args):
        calls.append(evaluate(*args))
        return calls[-1]

    monkeypatch.setattr(keyrate, "_evaluate", recording)
    cols = key_rate_curve(np.linspace(0.0, 0.3, n))
    assert [len(call["r"]) for call in calls] == passes
    if len(passes) == 1:
        assert all(cols[name] is col for name, col in calls[0].items())


def test_empty_grid_gives_empty_float_columns():
    cols = key_rate_curve(np.array([]))
    assert len(cols) == 14
    assert all(col.dtype == np.float64 and col.shape == (0,)
               for col in cols.values())


@pytest.mark.parametrize("bad", [0.4, np.nan])
def test_bad_q_in_a_late_chunk_raises_its_message(bad):
    q = np.linspace(0.0, 0.3, 1100)
    q[1050] = bad
    q[1080] = -0.5
    with pytest.raises(ValueError) as late:
        key_rate_curve(q)
    assert str(late.value) == f"per-pair flip probability {bad} outside [0, 3/8]"


def test_kernel_memory_is_bounded_by_its_outputs():
    q = np.linspace(0.0, 0.3, 100_001)
    tracemalloc.start()
    try:
        cols = key_rate_curve(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cols) == 14
    assert peak < 2.5 * sum(col.nbytes for col in cols.values())


def test_unknown_p_mode_has_one_message():
    with pytest.raises(ValueError) as curve:
        key_rate_curve(np.array([0.1]), p_mode="bogus")
    with pytest.raises(ValueError) as terms:
        sigma1_entropy_terms(1.0, 1.0, 1.0, 0.0, "bogus")
    assert str(curve.value) == str(terms.value)
    assert "'bogus'" in str(curve.value)


# ---------------------------------------------------------------------------
# threshold search against the bisection with one kernel call per midpoint
# ---------------------------------------------------------------------------

def find_threshold_reference(variant: str, model: str,
                             basis_noise_convention: str = "per-pair",
                             joint_weighting: str = "as-printed",
                             p_mode: str = "as-printed") -> float | None:
    """The sequential bisection that find_threshold batches, statement for
    statement; it looks the kernel up on the module, so a monkeypatch of
    keyrate.key_rate_curve reaches it."""
    def rate(q):
        return keyrate.key_rate_curve(q, model, variant, basis_noise_convention,
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


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of points of each key_rate_curve call, in call order."""
    calls = []
    kernel = keyrate.key_rate_curve

    def counted(q, *conventions):
        calls.append(len(q))
        return kernel(q, *conventions)

    monkeypatch.setattr(keyrate, "key_rate_curve", counted)
    return calls


THRESHOLD_GRID = np.linspace(0.0, Q_MAX, 400)


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_find_threshold_equals_one_call_per_midpoint(conv, kernel_calls):
    thr = find_threshold(*conv)
    calls = list(kernel_calls)
    assert thr == find_threshold_reference(*conv)
    # the grid passes are a prefix of the pass sizes and stop at the pass
    # that holds the grid's first sign change; then at most two batches of
    # at most 31 midpoints follow
    variant, model, *flags = conv
    r = key_rate_curve(THRESHOLD_GRID, model, variant, *flags)["r"]
    down = np.flatnonzero((r[:-1] > 0.0) & (r[1:] <= 0.0))
    if down.size == 0:
        assert calls == [64, 128, 208]
    else:
        passes = 1 + int(np.searchsorted([64, 192], down[0] + 1, "right"))
        assert calls[:passes] == [64, 128, 208][:passes]
        assert len(calls) <= passes + 2
        assert all(n <= 31 for n in calls[passes:])


def bisection_midpoint(interval: int, path: tuple) -> float:
    """The midpoint that bisection of grid interval [q_i, q_i+1] tests after
    the steps in path (True keeps the upper half)."""
    hi = THRESHOLD_GRID[interval + 1]
    lo = hi - (THRESHOLD_GRID[1] - THRESHOLD_GRID[0])
    for upper in path:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if upper else (lo, mid)
    return 0.5 * (lo + hi)


def assert_threshold_equals_reference(monkeypatch, rate):
    """Both searches on the key rate replaced by rate(q)."""
    monkeypatch.setattr(keyrate, "key_rate_curve", lambda q, *conventions: {
        "r": rate(np.asarray(q, dtype=float))})
    thr = find_threshold("phi1", "dependent")
    assert thr == find_threshold_reference("phi1", "dependent")
    return thr


# Ten steps halve a grid interval to <= 1e-6: midpoints 1-5 are the first
# batch, 6-10 the second.
@pytest.mark.parametrize("path", [(), (True, False, True, True),
                                  (False,) * 5, (True, False) * 3,
                                  (False, True) * 4 + (True,)])
@pytest.mark.parametrize("interval", [0, 62, 63, 64, 137, 190, 191, 192, 398])
@pytest.mark.parametrize("shape", ["linear", "step"])
def test_find_threshold_rate_exactly_zero_at_a_midpoint(monkeypatch, path,
                                                        interval, shape):
    # the rate is exactly 0.0 at the midpoint, which counts as not positive
    m = bisection_midpoint(interval, path)
    rate = ((lambda q: m - q) if shape == "linear"
            else (lambda q: np.where(q < m, 1.0, 0.0)))
    thr = assert_threshold_equals_reference(monkeypatch, rate)
    assert rate(np.array([m]))[0] == 0.0
    assert abs(thr - m) < 1e-6


@pytest.mark.parametrize("rate", [lambda q: Q_MAX - q,
                                  lambda q: THRESHOLD_GRID[-2] + 1e-7 - q])
def test_find_threshold_sign_change_in_last_grid_interval(monkeypatch, rate):
    thr = assert_threshold_equals_reference(monkeypatch, rate)
    assert THRESHOLD_GRID[-2] < thr <= Q_MAX


@pytest.mark.parametrize("first, second", [(40, 300), (70, 250)])
def test_find_threshold_takes_the_first_of_two_crossings(monkeypatch, first,
                                                        second):
    # down at the centre of grid interval first, up again between the two,
    # and down at the centre of interval second, a later pass
    down1, down2 = (bisection_midpoint(i, ()) for i in (first, second))
    up = bisection_midpoint((first + second) // 2, ())
    thr = assert_threshold_equals_reference(monkeypatch, lambda q: np.where(
        (q < down1) | ((q >= up) & (q < down2)), 1.0, -1.0))
    assert abs(thr - down1) < 1e-6


@pytest.mark.parametrize("rate", [np.ones_like, lambda q: -np.ones_like(q),
                                  lambda q: q - 0.1])
def test_find_threshold_without_a_downward_sign_change(monkeypatch, rate):
    assert assert_threshold_equals_reference(monkeypatch, rate) is None


@given(st.floats(min_value=1e-9, max_value=Q_MAX),
       st.sampled_from(["linear", "step"]))
@settings(max_examples=200, deadline=None)
def test_find_threshold_equals_reference_on_crossings(m, shape):
    rate = ((lambda q: m - q) if shape == "linear"
            else (lambda q: np.where(q < m, 1.0, -1.0)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert assert_threshold_equals_reference(monkeypatch, rate) is not None


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


@pytest.mark.parametrize("weights", [(np.nan, 1.0), (1.0, np.nan)])
def test_lemma1_check_rejects_a_nan_weight(weights):
    rho = np.eye(3, dtype=complex) / 3
    with pytest.raises(ValueError, match="weights must be nonnegative and sum to 1"):
        lemma1_check([(w, rho) for w in weights])


@pytest.mark.parametrize("sizes", [(1, 3, 2), (2, 1, 3, 1)])
def test_lemma1_check_of_mixed_block_sizes_equals_assembled_operator(sizes):
    rng = np.random.default_rng(sum(sizes))
    weights = rng.dirichlet(np.ones(len(sizes)))
    blocks = []
    for w, d in zip(weights, sizes):
        u = haar_isometry(d, d, rng)
        rho = u @ np.diag(rng.dirichlet(np.ones(d))).astype(complex) @ u.conj().T
        blocks.append((float(w), rho))
    full = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    offset = 0
    for (w, b), d in zip(blocks, sizes):
        full[offset:offset + d, offset:offset + d] = w * b
        offset += d
    lhs, rhs = lemma1_check(blocks)
    assert lhs.hex() == von_neumann_entropy3(full).hex()
    assert lhs == pytest.approx(rhs, abs=1e-12)


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


_REGISTER_CASES = {
    **{f"twirl-{q}": functools.partial(pauli_twirl_attack, q, q)
       for q in (0.02, 0.1, 0.3)},
    **{f"{d_f}-{d_r}": functools.partial(random_attack, d_f, d_r,
                                         seed=10 * d_f + d_r)
       for d_f, d_r in itertools.product((1, 3, 9), repeat=2)}}


@pytest.mark.parametrize("make_attack", _REGISTER_CASES.values(),
                         ids=_REGISTER_CASES.keys())
def test_rho_be_is_rho_bec_without_register_on_random_attacks(make_attack):
    # three twirls beside the nine random shapes, whose case names the test
    # keeps: rho_be sums each receiver symbol's records per register level
    # and then over levels, as the register trace of rho_bec does, so the
    # bits agree
    fams = vector_families(make_attack())
    assert rho_be(fams).tobytes() == _trace_out_register(rho_bec(fams)).tobytes()


def test_conditional_entropies_build_the_blocks_once(monkeypatch):
    calls = []
    build = keyrate._labelled_blocks

    def counting(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(keyrate, "_labelled_blocks", counting)
    conditional_entropies(vector_families(pauli_twirl_attack(0.05, 0.05)))
    assert len(calls) == 1


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


@pytest.mark.parametrize("q", [0.0, Q_MAX])
def test_conditional_entropies_equal_dense_states_at_the_ends_of_the_twirl(q):
    # at q = 0 eight of the twelve blocks [j, c] have no record row, and at
    # q = 3/8 the blocks span 4, 12, 12 and 36 of the 81 rows
    fams = vector_families(pauli_twirl_attack(q, q))
    support, _ = keyrate._labelled_blocks(fams)
    assert support.sum(axis=-1).tolist() == 3 * [[1, 0, 0, 0] if q == 0.0
                                                  else [4, 12, 12, 36]]
    assert conditional_entropies(fams) == _dense_conditional_entropies(fams)


def _families_with_records(records: dict, dim: int) -> VectorFamilies:
    """Families whose measure records e^k_{j, 3i+j} are records[(i, j, k)],
    and zero for the cells not named; only the records are read.

    Forward record 3i+j is the unit vector 3i+j (d_f = 9), and the reverse
    stage maps |j> x e_{3i+j} onto the records [i, j, :] and every other
    input onto zero."""
    forward = np.zeros((3, 9, 3), dtype=complex)      # [j, a, i]
    reverse = np.zeros((3, dim, 3, 9), dtype=complex)  # [k, row, j, a]
    for i, j in itertools.product(range(3), repeat=2):
        forward[j, 3 * i + j, i] = 1.0
    for (i, j, k), vec in records.items():
        reverse[k, :, j, 3 * i + j] = vec
    return VectorFamilies(forward.reshape(27, 3), reverse.reshape(3 * dim, 27))


def test_families_with_records_hold_the_named_records():
    rng = np.random.default_rng(8)
    vecs = rng.normal(size=(27, 5)) + 1j * rng.normal(size=(27, 5))
    named = dict(zip(itertools.product(range(3), repeat=3), vecs))
    del named[(2, 1, 0)]
    recs = measure_records(_families_with_records(named, 5))
    vecs[2 * 9 + 1 * 3 + 0] = 0.0
    assert np.array_equal(recs.reshape(27, 5), vecs)


def test_conditional_entropies_equal_dense_states_where_records_cancel():
    # the records (i, j, k) = (1, 0, 0) and (2, 0, 0), both of block
    # [j, c] = [0, 1], are (x, x) and (x, -x) on rows 0 and 1: their outer
    # products cancel at entry (0, 1), so the block's pattern splits inside
    # its support, and so does rho_be's block 0
    fams = _families_with_records({
        (1, 0, 0): [0.5, 0.5, 0, 0], (2, 0, 0): [0.5, -0.5, 0, 0],
        (0, 0, 0): [0, 0, 1, 0], (1, 1, 1): [0, 0, 0.5, 0.5],
        (2, 2, 2): [0.5, 0, 0, 0.5j]}, 4)
    support, blocks = keyrate._labelled_blocks(fams)
    assert support[0, 1].tolist() == [True, True, False, False]
    assert blocks[0, 1, 0, 1] == 0.0 and blocks[0, 1, 0, 0] != 0.0
    assert rho_be(fams)[0, 1] == 0.0
    assert conditional_entropies(fams) == _dense_conditional_entropies(fams)


@given(st.integers(min_value=0, max_value=10_000))
@example(0)
@settings(max_examples=30, deadline=None)
def test_states_equal_dense_sums_where_record_rows_overlap(seed):
    # each record is nonzero on its own random rows, so the blocks summed
    # into one state overlap in part and each sum is taken on its union
    rng = np.random.default_rng(seed)
    dim = 6
    vecs = rng.normal(size=(27, dim)) + 1j * rng.normal(size=(27, dim))
    vecs *= rng.random((27, dim)) < 0.5
    vecs *= math.sqrt(3.0 / np.sum(np.abs(vecs) ** 2))
    fams = _families_with_records(dict(zip(itertools.product(range(3), repeat=3),
                                           vecs)), dim)
    bec = rho_bec(fams)
    assert bec.tobytes() == _rho_bec_outer_products(fams).tobytes()
    assert rho_be(fams).tobytes() == _trace_out_register(bec).tobytes()
    assert conditional_entropies(fams) == _dense_conditional_entropies(fams)


def test_states_equal_dense_sums_where_no_block_uses_a_row():
    # rows 2 and 5 carry no record, so every sum taken on all rows holds
    # them as zero rows, beside the padding row cut off after the scatter
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(27, 6)) + 1j * rng.normal(size=(27, 6))
    vecs *= rng.random((27, 6)) < 0.5
    vecs[:, [2, 5]] = 0.0
    vecs *= math.sqrt(3.0 / np.sum(np.abs(vecs) ** 2))
    fams = _families_with_records(dict(zip(itertools.product(range(3), repeat=3),
                                           vecs)), 6)
    support, _ = keyrate._labelled_blocks(fams)
    assert not support[..., [2, 5]].any()
    # the blocks summed into rho_be lie on different rows
    assert not (support == support.any(axis=1, keepdims=True)).all()
    bec = rho_bec(fams)
    assert bec.tobytes() == _rho_bec_outer_products(fams).tobytes()
    assert rho_be(fams).tobytes() == _trace_out_register(bec).tobytes()
    assert conditional_entropies(fams) == _dense_conditional_entropies(fams)


@pytest.mark.parametrize("q,width", [(0.1, 36), (0.0, 1)])
def test_labelled_blocks_are_as_wide_as_the_largest_support(q, width):
    support, blocks = keyrate._labelled_blocks(
        vector_families(pauli_twirl_attack(q, q)))
    assert support.sum(axis=-1).max() == width
    assert blocks.shape == (3, 4, width, width)


@pytest.mark.parametrize("d_f,d_r", itertools.product((1, 3, 9), repeat=2))
def test_conditional_entropies_of_random_attacks_label_no_components(
        d_f, d_r, monkeypatch):
    # every block of a Haar-random attack is dense, and so is every sum of
    # them, so each stack is one fully linked component
    def refuse(linked):
        raise AssertionError("components labelled")
    monkeypatch.setattr(linalg, "_component_labels", refuse)
    conditional_entropies(vector_families(random_attack(d_f, d_r, seed=d_f + d_r)))


def test_conditional_entropies_traced_peak_on_the_twirl():
    # the blocks are built on the rows their records touch: full-size
    # 81 x 81 outer products of the 27 records alone would take 2.8 MB
    fams = vector_families(pauli_twirl_attack(0.1, 0.1))
    conditional_entropies(fams)
    tracemalloc.start()
    try:
        conditional_entropies(fams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


@pytest.mark.parametrize("fn", [no_error_overlap, conditional_entropies,
                                rho_be, rho_bec])
def test_functions_of_one_attack_refuse_a_stack(fn):
    fams = vector_families(*next(random_attack_stacks(3, 3, [1, 2, 3, 4])))
    with pytest.raises(ValueError, match=r"one attack, got a stack of shape \(4,\)$"):
        fn(fams)


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


@pytest.mark.parametrize("overlap", [np.nan, np.inf, -np.inf])
def test_s_ec_bound_rejects_non_finite_overlap(overlap):
    # a NaN dropped the no-error block's term and inf was clipped to the
    # ceiling: either way the value fell below the exact S(EC)
    _, p, _ = _twirl_s_ec_pieces(0.05)
    with pytest.raises(ValueError, match="finite"):
        s_ec_bound(p, overlap)


@pytest.mark.parametrize("p,message", [
    (np.full((3, 3, 3), 0.5), "differ from 1"),
    (np.full((3, 3, 3), -0.1), "outside"),
    (np.full((3, 3, 3), np.nan), "outside"),
    (np.full((2, 2, 2), 0.25), "3x3x3"),
    (np.full(27, 1 / 9), "3x3x3"),
], ids=["rows-sum-4.5", "negative", "nan", "2x2x2", "flat"])
def test_s_ec_bound_rejects_tables_that_are_not_3x3x3_probabilities(p, message):
    # rows summing to 4.5 gave a "certified" 7.28 trits; a 2x2x2 table
    # ended in a reshape error
    with pytest.raises(ValueError, match=message):
        s_ec_bound(p, 0.1)


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
