import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqkd3.attack import (identity_attack, pauli_twirl_attack, random_attack,
                          vector_families)
from sqkd3.stats import (StatTable, basis_error_direct, basis_error_expanded,
                         f_gram, joint_and_marginal, p_table_from_attack,
                         p_table_symmetric, stat_table_for_scenario,
                         stat_table_from_attack, t_values)
from sqkd3.attack import ChannelScenario


def test_identity_attack_table():
    p = p_table_from_attack(vector_families(identity_attack()))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expected = 1.0 if i == j == k else 0.0
                assert p[i, j, k] == pytest.approx(expected, abs=1e-14)


def test_twirl_table_values():
    p = p_table_from_attack(vector_families(pauli_twirl_attack(0.1, 0.1)))
    assert p[0, 0, 1] == pytest.approx(0.08, abs=1e-12)
    assert p[0, 0, 0] == pytest.approx(0.64, abs=1e-12)


def test_symmetric_table_values():
    p = p_table_symmetric(0.0, 0.0)
    assert p[0, 0, 0] == 1.0 and p.sum() == pytest.approx(3.0)
    p = p_table_symmetric(0.1, 0.1)
    assert p[0, 1, 0] == pytest.approx(0.01, abs=1e-15)
    with pytest.raises(ValueError):
        p_table_symmetric(0.4, 0.1)


@pytest.mark.parametrize("qf,qr", [(0.0, 0.0), (0.05, 0.05), (0.1, 0.2),
                                   (0.3, 0.05), (0.34, 0.34), (0.375, 0.375)])
def test_twirl_matches_symmetric_table(qf, qr):
    analytic = p_table_symmetric(qf, qr)
    from_attack = p_table_from_attack(vector_families(pauli_twirl_attack(qf, qr)))
    assert np.max(np.abs(analytic - from_attack)) < 1e-12


def test_twirl_table_orbit_symmetry():
    p = p_table_from_attack(vector_families(pauli_twirl_attack(0.07, 0.07)))
    by_pattern = {}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                by_pattern.setdefault((i == j, j == k), []).append(p[i, j, k])
    for values in by_pattern.values():
        assert np.max(np.abs(np.array(values) - values[0])) < 1e-12


@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([1, 3, 9]), st.sampled_from([1, 3, 9]))
@settings(max_examples=25, deadline=None)
def test_table_rows_sum_to_one(seed, d_f, d_r):
    p = p_table_from_attack(vector_families(random_attack(d_f, d_r, seed)))
    assert np.max(np.abs(p.sum(axis=(1, 2)) - 1.0)) < 1e-9


def test_basis_errors_identity_and_twirl():
    fams = vector_families(identity_attack())
    assert np.max(np.abs(basis_error_direct(fams, "phi1"))) < 1e-14
    assert np.max(np.abs(basis_error_direct(fams, "phi2"))) < 1e-14
    fams = vector_families(pauli_twirl_attack(0.1, 0.1))
    for variant in ("phi1", "phi2"):
        err = basis_error_direct(fams, variant)
        assert np.max(np.abs(err - err[0])) < 1e-12  # symmetric attack
        # two-pass composition of the per-pair flip probability
        assert err[0] == pytest.approx(0.1 * (2 - 3 * 0.1), abs=1e-12)


def test_expanded_errors_identity_attack():
    fams = vector_families(identity_attack())
    gram = f_gram(fams)
    for variant in ("phi1", "phi2"):
        assert np.max(np.abs(basis_error_expanded(gram, variant))) < 1e-14


@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([1, 3, 9]), st.sampled_from([1, 3, 9]))
@settings(max_examples=40, deadline=None)
def test_expanded_errors_match_direct(seed, d_f, d_r):
    fams = vector_families(random_attack(d_f, d_r, seed))
    gram = f_gram(fams)
    for variant in ("phi1", "phi2"):
        direct = basis_error_direct(fams, variant)
        assert np.all(direct > -1e-12) and np.all(direct < 1 + 1e-12)
        expanded = basis_error_expanded(gram, variant)
        assert np.max(np.abs(direct - expanded)) < 1e-10


def test_t_values_noiseless_and_symmetric():
    assert t_values(p_table_symmetric(0.0, 0.0)) == pytest.approx((3, 0, 0, 0))
    q = 0.1
    t = t_values(p_table_symmetric(q, q))
    assert t[0] == pytest.approx(3 * (1 - 2 * q) ** 2, abs=1e-12)
    assert t[1] == pytest.approx(6 * q * (1 - 2 * q), abs=1e-12)
    assert t[2] == pytest.approx(6 * q * (1 - 2 * q), abs=1e-12)
    assert t[3] == pytest.approx(12 * q * q, abs=1e-12)
    assert sum(t) == pytest.approx(3.0, abs=1e-9)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_t_values_total_mass(seed):
    p = p_table_from_attack(vector_families(random_attack(3, 3, seed)))
    assert sum(t_values(p)) == pytest.approx(3.0, abs=1e-9)


def test_joint_distribution_noiseless():
    jd = joint_and_marginal(p_table_symmetric(0.0, 0.0))
    assert np.allclose(jd.joint, np.eye(3) / 3)
    assert jd.joint.sum() == pytest.approx(1.0)


def test_joint_distribution_mass_anomaly():
    # as-printed weights: matching cells 1/3, mismatched 2/3
    q = 0.1
    p = p_table_symmetric(q, q)
    jd = joint_and_marginal(p, "as-printed")
    brute = 0.0
    for b in range(3):
        for a in range(3):
            w = 1 / 3 if b == a else 2 / 3
            brute += w * sum(p[i, b, a] for i in range(3))
    assert jd.joint.sum() == pytest.approx(brute, abs=1e-15)
    assert jd.joint.sum() == pytest.approx(1 + 2 * q, abs=1e-12)
    normalized = joint_and_marginal(p, "normalized")
    assert normalized.joint.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(normalized.marginal_a, normalized.joint.sum(axis=0))


def test_stat_table_validation_and_json():
    table = stat_table_from_attack(pauli_twirl_attack(0.1, 0.1), "phi1")
    clone = StatTable.from_json(table.to_json())
    assert np.allclose(clone.p, table.p)
    assert np.allclose(clone.basis_err, table.basis_err)
    assert clone.variant == "phi1"
    assert '"Phi1"' in table.to_json()
    bad = table.p.copy()
    bad[0, 0, 0] += 0.5
    with pytest.raises(ValueError):
        StatTable(bad, table.basis_err, "phi1")


@pytest.mark.parametrize("field,value", [
    ("variant", "phi3"),
    ("basis_err", np.nan),
    ("basis_err", np.inf),
    ("p", np.nan),
])
def test_stat_table_rejects_unknown_variant_and_non_finite_entries(field, value):
    table = stat_table_from_attack(pauli_twirl_attack(0.1, 0.1), "phi1")
    args = {"p": table.p.copy(), "basis_err": table.basis_err.copy(),
            "variant": table.variant}
    if field == "variant":
        args[field] = value
    else:
        args[field].flat[0] = value
    with pytest.raises(ValueError):
        StatTable(**args)


def test_scenario_table_uses_convention():
    s = ChannelScenario(q=0.05, model="independent", variant="phi2")
    table = stat_table_for_scenario(s)
    assert table.variant == "phi2"
    assert np.allclose(table.basis_err, 2 * 0.05 * (2 - 0.15))
    assert np.allclose(table.p, p_table_symmetric(0.05, 0.05))
