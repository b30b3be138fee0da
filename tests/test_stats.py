import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqkd3.term_tables as tables
from sqkd3 import verify
from sqkd3.attack import (AttackModel, identity_attack, pauli_twirl_attack,
                          random_attack, vector_families)
from sqkd3.stats import (ERROR_PATTERN, StatTable, _T_CELLS,
                         basis_error_direct, check_p_tables, basis_error_expanded, f_gram,
                         joint_and_marginal, p_table_from_attack,
                         p_table_symmetric, stat_table_for_scenario,
                         stat_table_from_attack, t_values)
from sqkd3.attack import ChannelScenario
from sqkd3.keyrate import find_threshold, key_rate, key_rate_from_table
from sqkd3.linalg import OMEGA


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


def expanded_reference(gram, variant):
    """The scalar term loop that basis_error_expanded replaced, verbatim."""
    term_sets = tables.ERROR_TERMS[variant]
    out = np.empty(6)
    for idx, key in enumerate(tables.BASIS_ERROR_ORDER):
        acc = 1.0 / 3.0
        for phase, m, n in term_sets[key]:
            acc += (OMEGA**phase * gram[m, n]).real / 9.0
        out[idx] = acc
    return out


def assert_expanded_bit_equal_to_scalar_loop(attack):
    gram = f_gram(vector_families(attack))
    for variant in ("phi1", "phi2"):
        assert (basis_error_expanded(gram, variant).tobytes()
                == expanded_reference(gram, variant).tobytes())


@pytest.mark.parametrize("d_f,d_r", list(itertools.product([1, 3, 9], repeat=2)))
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_expanded_errors_bit_equal_to_scalar_loop(d_f, d_r, seed):
    assert_expanded_bit_equal_to_scalar_loop(random_attack(d_f, d_r, seed))


@pytest.mark.parametrize("q", [0.0, 0.02, 0.1, 0.375])
def test_twirl_expanded_errors_bit_equal_to_scalar_loop(q):
    # the twirl's Gram matrix has exact zeros, where a sign of zero shows
    assert_expanded_bit_equal_to_scalar_loop(pauli_twirl_attack(q, q))


def test_expanded_errors_padding_reads_no_gram_entry():
    # no term reads the diagonal, and the padding of the shorter phi1 rows
    # must not read it either
    gram = f_gram(vector_families(random_attack(3, 3, 5)))
    gram[0, 0] = np.nan
    for variant in ("phi1", "phi2"):
        expanded = basis_error_expanded(gram, variant)
        assert np.isfinite(expanded).all()
        assert expanded.tobytes() == expanded_reference(gram, variant).tobytes()


def test_t_values_noiseless_and_symmetric():
    assert t_values(p_table_symmetric(0.0, 0.0)) == pytest.approx((3, 0, 0, 0))
    q = 0.1
    t = t_values(p_table_symmetric(q, q))
    assert t[0] == pytest.approx(3 * (1 - 2 * q) ** 2, abs=1e-12)
    assert t[1] == pytest.approx(6 * q * (1 - 2 * q), abs=1e-12)
    assert t[2] == pytest.approx(6 * q * (1 - 2 * q), abs=1e-12)
    assert t[3] == pytest.approx(12 * q * q, abs=1e-12)
    assert sum(t) == pytest.approx(3.0, abs=1e-9)


def test_t_cells_from_error_pattern():
    # the literal cell lists t_values used to add, in their order: the
    # order fixes the bits of each t sum
    literal = [
        [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
        [(1, 0, 0), (2, 0, 0), (0, 1, 1), (2, 1, 1), (0, 2, 2), (1, 2, 2)],
        [(0, 0, 1), (0, 0, 2), (1, 1, 0), (1, 1, 2), (2, 2, 0), (2, 2, 1)]]
    for cells, ref in zip(_T_CELLS, literal):
        assert cells.tolist() == np.ravel_multi_index(
            np.transpose(ref), (3, 3, 3)).tolist()
    assert np.bincount(ERROR_PATTERN.ravel()).tolist() == [3, 6, 6, 12]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_t_values_total_mass(seed):
    p = p_table_from_attack(vector_families(random_attack(3, 3, seed)))
    assert sum(t_values(p)) == pytest.approx(3.0, abs=1e-9)


def test_joint_distribution_noiseless():
    joint, _ = joint_and_marginal(p_table_symmetric(0.0, 0.0))
    assert np.allclose(joint, np.eye(3) / 3)
    assert joint.sum() == pytest.approx(1.0)


def test_joint_distribution_mass_anomaly():
    # as-printed weights: matching cells 1/3, mismatched 2/3
    q = 0.1
    p = p_table_symmetric(q, q)
    joint, _ = joint_and_marginal(p, "as-printed")
    brute = 0.0
    for b in range(3):
        for a in range(3):
            w = 1 / 3 if b == a else 2 / 3
            brute += w * sum(p[i, b, a] for i in range(3))
    assert joint.sum() == pytest.approx(brute, abs=1e-15)
    assert joint.sum() == pytest.approx(1 + 2 * q, abs=1e-12)
    joint, marginal = joint_and_marginal(p, "normalized")
    assert joint.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(marginal, joint.sum(axis=0))


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
    # a basis error of -5 gave a rate of 3.27 trits, above the 1-trit maximum
    ("basis_err", -5.0),
    ("basis_err", -1e-9),
    ("basis_err", 1 + 1e-9),
    ("basis_err", 7.0),
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


@pytest.mark.parametrize("cells,error", [
    ({}, None),
    ({(0, 0, 0): 1 + 1e-12, (0, 1, 1): -1e-12}, None),
    ({(0, 0, 0): 1 + 2e-12, (0, 1, 1): -2e-12}, "outside"),
    ({(0, 1, 1): -2e-12}, "outside"),
    ({(0, 1, 1): 2e-9}, "differ"),
    ({(2, 1, 1): np.nan}, "outside"),
    ({(2, 1, 1): np.inf}, "outside"),
])
def test_check_p_tables_verdicts(cells, error):
    p = np.zeros((2, 3, 3, 3))
    p[:, [0, 1, 2], [0, 1, 2], [0, 1, 2]] = 1.0
    for cell, value in cells.items():
        p[(1, *cell)] = value
    for tables in (p[1], p):
        if error is None:
            check_p_tables(tables)
        else:
            with pytest.raises(ValueError, match=error):
                check_p_tables(tables)


def test_check_p_tables_rejects_nan_table():
    with pytest.raises(ValueError, match="outside"):
        check_p_tables(np.full((3, 3, 3), np.nan))


def test_stat_table_keeps_read_only_copies():
    # the table once stored the caller's arrays, so a write made after the
    # checks reached the key rate: these two writes made r = nan
    p = p_table_symmetric(0.1, 0.1)
    err = np.full(6, 0.1)
    table = StatTable(p, err, "phi1")
    r = key_rate_from_table(table).r
    p[0, 0, 0] = 5.0
    err[0] = np.nan
    assert key_rate_from_table(table).r == r
    for kept in (table.p, table.basis_err):
        with pytest.raises(ValueError, match="read-only"):
            kept.flat[1] = 0.0
    with pytest.raises(ValueError, match="outside"):
        StatTable(p, err, "phi1")


@pytest.mark.parametrize("p_mode", ["as-printed", "corrected"])
@pytest.mark.parametrize("weighting", ["as-printed", "normalized"])
@pytest.mark.parametrize("variant", ["phi1", "phi2"])
def test_independent_per_pair_basis_errors_leave_the_simplex_above_one_sixth(
        variant, weighting, p_mode):
    # Known defect, pinned as it stands.  Each per-pair error is 2Q(2 - 3Q),
    # so the two error cells of one sent value hold 4Q(2 - 3Q), which
    # passes 1 at Q = 1/6; StatTable checks each entry alone and accepts the
    # table, and the rate is printed for statistics no attack realises.
    # The threshold lies below 1/6, so it does not move.
    def scenario(q):
        return ChannelScenario(q, "independent", variant, "per-pair",
                               weighting, p_mode)

    def error_mass(q):  # per sent value, in basis_err's order
        return stat_table_for_scenario(scenario(q)).basis_err.reshape(3, 2).sum(axis=1)

    assert (error_mass(0.16) <= 1.0).all()
    assert error_mass(0.2) == pytest.approx([1.12] * 3, abs=1e-12)
    assert np.isfinite(key_rate(scenario(0.2)).r)
    assert find_threshold(variant, "independent", "per-pair", weighting,
                          p_mode) < 1 / 6


def test_scenario_table_uses_convention():
    s = ChannelScenario(q=0.05, model="independent", variant="phi2")
    table = stat_table_for_scenario(s)
    assert table.variant == "phi2"
    assert np.allclose(table.basis_err, 2 * 0.05 * (2 - 0.15))
    assert np.allclose(table.p, p_table_symmetric(0.05, 0.05))


def test_stat_table_accepts_basis_errors_at_rounding_distance_of_the_ends():
    err = np.array([-1e-13, 0.0, 0.5, 1.0, 1 + 1e-13, 0.25])
    StatTable(p_table_symmetric(0.05, 0.05), err, "phi1")


@pytest.mark.parametrize("basis_err", [[0.05] * 6, (0.05,) * 6, np.full(5, 0.05),
                                       np.full((6, 1), 0.05)],
                         ids=["list", "tuple", "five", "column"])
def test_stat_table_basis_err_must_be_an_array_of_six(basis_err):
    with pytest.raises(ValueError, match="six entries"):
        StatTable(p_table_symmetric(0.05, 0.05), basis_err, "phi1")


def test_stat_table_p_must_be_an_array():
    with pytest.raises(ValueError, match="3x3x3"):
        StatTable(p_table_symmetric(0.05, 0.05).tolist(), np.full(6, 0.05),
                  "phi1")


@pytest.mark.parametrize("n_attacks,seed", [(200, 1000), (100, 3000)])
def test_p_table_from_attack_of_verify_stacks_keeps_each_attacks_bits(n_attacks,
                                                                      seed):
    # attack t of a stack has the table of its own families, with the bits
    # of an AttackModel of that attack alone
    for fams in verify._random_families(n_attacks, seed):
        p = p_table_from_attack(fams)
        assert p.shape == (len(fams.e), 3, 3, 3)
        assert fams.records.shape == p.shape + fams.ekij.shape[-1:]
        for t, table in enumerate(p):
            one = AttackModel(fams.forward[t], fams.reverse[t])
            assert table.tobytes() == p_table_from_attack(one).tobytes()
