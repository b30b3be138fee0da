import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqkd3 import attack as attack_module
from sqkd3 import linalg, verify
from sqkd3.attack import (CONVENTIONS, AttackModel, ChannelScenario,
                          identity_attack, pauli_twirl_attack, pauli_twirl_isometry,
                          random_attack, random_attack_stacks,
                          ternary_channel_apply, vector_families)
from sqkd3.keyrate import (conditional_entropies, find_threshold, h_b_given_a,
                           key_rate_curve, key_rate_from_table, lemma1_check,
                           p_lower_bound, s_bec, sigma1_entropy_terms, x_bound)
from sqkd3.linalg import basis_vectors, haar_isometry, sq_norms
from sqkd3.sim import run_protocol
from sqkd3.stats import (StatTable, _scenario_table, alt_basis_table,
                         basis_error_direct, basis_error_expanded, f_gram,
                         joint_and_marginal, p_table_from_attack,
                         p_table_symmetric, stat_table_from_attack, t_values)
from sqkd3.term_tables import BASIS_ERROR_ORDER

DIMS = st.sampled_from([1, 3, 9])


def norm2(v):
    return np.vdot(v, v).real


def test_identity_attack_forward_records():
    e = vector_families(identity_attack()).e
    for idx in range(9):
        expected = 1.0 if idx in (0, 4, 8) else 0.0
        assert norm2(e[idx]) == pytest.approx(expected, abs=1e-14)


def test_twirl_forward_record_norm():
    q = 0.12
    e = vector_families(pauli_twirl_attack(q, q)).e
    assert norm2(e[0]) == pytest.approx(1 - 2 * q, abs=1e-12)


def test_identity_attack_reverse_records():
    ek = vector_families(identity_attack()).ekij
    assert norm2(ek[(0, 0, 0)]) == pytest.approx(1.0, abs=1e-14)
    assert norm2(ek[(1, 1, 4)]) == pytest.approx(1.0, abs=1e-14)


def test_twirl_reverse_record_norm():
    ek = vector_families(pauli_twirl_attack(0.1, 0.1)).ekij
    assert norm2(ek[(0, 0, 0)]) == pytest.approx(0.64, abs=1e-12)


def test_identity_attack_round_trip_records():
    f = vector_families(identity_attack()).f
    for idx in range(9):
        expected = 1.0 if idx in (0, 4, 8) else 0.0
        assert norm2(f[idx]) == pytest.approx(expected, abs=1e-14)


def test_identity_attack_alternative_basis_records():
    fams = vector_families(identity_attack())
    assert norm2(fams.g[1]) == pytest.approx(0.0, abs=1e-14)
    assert norm2(fams.g[0]) == pytest.approx(1.0, abs=1e-12)
    assert norm2(fams.h[1]) == pytest.approx(0.0, abs=1e-14)


@given(st.integers(min_value=0, max_value=10_000), DIMS, DIMS)
@settings(max_examples=40, deadline=None)
def test_record_sum_rules(seed, d_f, d_r):
    fams = vector_families(random_attack(d_f, d_r, seed))
    for vecs in (fams.e, fams.f):
        for row in range(3):
            total = sum(norm2(vecs[3 * row + j]) for j in range(3))
            assert total == pytest.approx(1.0, abs=1e-10)
        for r1, r2 in ((0, 1), (1, 2), (0, 2)):
            cross = sum(np.vdot(vecs[3 * r1 + j], vecs[3 * r2 + j])
                        for j in range(3))
            assert abs(cross) < 1e-10


@given(st.integers(min_value=0, max_value=10_000), DIMS, DIMS)
@settings(max_examples=20, deadline=None)
def test_reverse_stage_preserves_record_norms(seed, d_f, d_r):
    fams = vector_families(random_attack(d_f, d_r, seed))
    e, ek = fams.e, fams.ekij
    for i in range(3):
        for j in range(9):
            total = sum(norm2(ek[(k, i, j)]) for k in range(3))
            assert total == pytest.approx(norm2(e[j]), abs=1e-10)


@given(st.integers(min_value=0, max_value=10_000), DIMS, DIMS)
@settings(max_examples=20, deadline=None)
def test_round_trip_records_two_paths_agree(seed, d_f, d_r):
    fams = vector_families(random_attack(d_f, d_r, seed))
    f, ek = fams.f, fams.ekij
    for i in range(3):
        for j in range(3):
            alt = ek[(j, 0, 3 * i)] + ek[(j, 1, 3 * i + 1)] + ek[(j, 2, 3 * i + 2)]
            assert np.max(np.abs(f[3 * i + j] - alt)) < 1e-12


@given(st.integers(min_value=0, max_value=10_000), DIMS, DIMS)
@settings(max_examples=20, deadline=None)
def test_alternative_basis_records_total_mass(seed, d_f, d_r):
    fams = vector_families(random_attack(d_f, d_r, seed))
    for family in (fams.g, fams.h):
        total = sum(norm2(v) for v in family)
        assert total == pytest.approx(3.0, abs=1e-10)


def reference_records(attack):
    """Record families built one vector at a time, with np.vdot norms."""
    d_f, dim = attack.d_f, attack.d_f * attack.d_r
    e = [attack.forward[:, i].reshape(3, d_f)[j]
         for i in range(3) for j in range(3)]
    ek = np.empty((3, 3, 9, dim), dtype=complex)
    for i in range(3):
        for j in range(9):
            vin = np.zeros(3 * d_f, dtype=complex)
            vin[i * d_f:(i + 1) * d_f] = e[j]
            ek[:, i, j] = (attack.reverse @ vin).reshape(3, dim)
    v = attack.reverse @ attack.forward
    f = [v[:, i].reshape(3, dim)[j] for i in range(3) for j in range(3)]

    def on_basis(b):
        out = []
        for i in range(3):
            for j in range(3):
                vec = np.zeros(dim, dtype=complex)
                for a in range(3):
                    for c in range(3):
                        vec = vec + b[a, i] * np.conj(b[c, j]) * f[3 * a + c]
                out.append(vec)
        return np.array(out)

    g = on_basis(basis_vectors("T"))
    h = on_basis(basis_vectors("K"))
    p = np.array([[[norm2(ek[k, j, 3 * i + j]) for k in range(3)]
                   for j in range(3)] for i in range(3)])
    return e, ek, f, g, h, p


ATTACKS = st.one_of(
    st.builds(random_attack, DIMS, DIMS, st.integers(0, 10_000)),
    st.builds(lambda q: pauli_twirl_attack(q, q),
              st.sampled_from([0.02, 0.1, 0.3])))


@given(ATTACKS)
@settings(max_examples=30, deadline=None)
def test_record_arrays_bit_equal_to_per_vector_reference(attack):
    e, ek, f, g, h, p = reference_records(attack)
    fams = vector_families(attack)
    for got, ref in ((fams.e, e), (fams.ekij, ek), (fams.f, f),
                     (fams.g, g), (fams.h, h)):
        assert np.array_equal(got, np.array(ref))
    # run_protocol samples its counted rounds from the canonical table and
    # the alternative-basis table, so their bits fix its seeded output
    assert np.array_equal(p_table_from_attack(fams), p)
    assert np.max(np.abs(p.sum(axis=(1, 2)) - 1.0)) < 1e-12
    for variant, family in (("phi1", g), ("phi2", h)):
        ref = [norm2(family[3 * i + j]) for i, j in BASIS_ERROR_ORDER]
        assert np.array_equal(basis_error_direct(fams, variant), ref)
        alt_r = alt_basis_table(fams, variant)
        assert np.array_equal(alt_r, [[norm2(family[3 * i + k])
                                       for k in range(3)] for i in range(3)])
        assert np.max(np.abs(alt_r.sum(axis=1) - 1.0)) < 1e-12


def reference_haar_isometry(rows, cols, rng):
    """One Haar isometry from one QR call, as random attacks were built
    before their QR calls were stacked."""
    if rows < cols:
        raise ValueError("isometry needs rows >= cols")
    z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q[:, :cols] * (d / np.abs(d))


def reference_random_attack(d_f, d_r, seed):
    rng = np.random.default_rng(seed)
    fw = reference_haar_isometry(3 * d_f, 3, rng)
    return AttackModel(fw, reference_haar_isometry(3 * d_f * d_r, 3 * d_f, rng))


@pytest.mark.parametrize("d_f", [1, 3, 9])
@pytest.mark.parametrize("d_r", [1, 3, 9])
def test_random_attacks_bit_equal_to_per_matrix_reference(d_f, d_r, monkeypatch):
    qr, qr_inputs = np.linalg.qr, []

    def counting_qr(z, *args, **kwargs):
        qr_inputs.append(z.shape)
        return qr(z, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    budget = attack_module._QR_STACK_BYTES
    per_call = budget // (16 * 9 * d_f**2 * d_r)
    seeds = range(500, 500 + per_call + 2)   # one full stack and a partial one
    stacks = list(random_attack_stacks(d_f, d_r, iter(seeds)))
    # one call per stage and stack, each within the budget
    assert len(qr_inputs) == 2 * math.ceil(len(seeds) / per_call)
    assert max(16 * math.prod(shape) for shape in qr_inputs) <= budget
    stages = [stage for stack in stacks
              for stage in zip(stack.forward, stack.reverse)]
    assert len(stages) == len(seeds)
    for seed, (forward, reverse) in zip(seeds, stages):
        ref = reference_random_attack(d_f, d_r, seed)
        assert forward.shape == (3 * d_f, 3)
        assert reverse.shape == (3 * d_f * d_r, 3 * d_f)
        assert forward.tobytes() == ref.forward.tobytes()
        assert reverse.tobytes() == ref.reverse.tobytes()
        one = random_attack(d_f, d_r, seed)
        assert (one.d_f, one.d_r) == (d_f, d_r)
        assert one.forward.tobytes() == forward.tobytes()
        assert one.reverse.tobytes() == reverse.tobytes()


def corrupting(build, stage, corrupt, index):
    """build, with its result for one stage corrupted at index; at
    d_f = d_r = 3 a forward stage has 3 columns and a reverse stage 9."""
    def corrupted(z):
        q = build(z)
        if (q.shape[-1] == 3) == (stage == "forward"):
            if corrupt == "scaled":
                q[index] *= 1 + 1e-9
            else:
                q[index][0, 0] = np.nan
        return q
    return corrupted


@pytest.mark.parametrize("corrupt", ["scaled", "nan"])
@pytest.mark.parametrize("stage", ["forward", "reverse"])
def test_random_attacks_rejects_a_bad_matrix_in_a_stack(stage, corrupt,
                                                       monkeypatch):
    # at d_f = d_r = 3 a forward stack is (n, 9, 3), a reverse (n, 27, 9)
    monkeypatch.setattr(attack_module, "isometries_from_gaussian", corrupting(
        attack_module.isometries_from_gaussian, stage, corrupt, 3))
    with pytest.raises(ValueError, match=f"^{stage} stage is not an isometry$"):
        list(random_attack_stacks(3, 3, range(5)))


@pytest.mark.parametrize("corrupt", ["scaled", "nan"])
@pytest.mark.parametrize("stage", ["forward", "reverse"])
def test_random_attack_rejects_a_bad_stage(stage, corrupt, monkeypatch):
    # haar_isometry factors one (9, 3) or (27, 9) matrix per call
    monkeypatch.setattr(linalg, "isometries_from_gaussian", corrupting(
        linalg.isometries_from_gaussian, stage, corrupt, ...))
    with pytest.raises(ValueError, match=f"^{stage} stage is not an isometry$"):
        random_attack(3, 3, 5)


def assert_statistics_equal_per_table_calls(table):
    """t_values, joint_and_marginal, h_b_given_a, sigma1_entropy_terms,
    x_bound, s_bec and p_lower_bound of a stack table against their calls
    on each table alone, bit for bit; on one table the last three return
    floats.  The overlap quantities run from 0 to twice each table's
    feasibility ceiling, so both signs of the discriminant and the clamp of
    lambda1 are reached."""
    p = table.p
    t = t_values(p)
    joints = {w: joint_and_marginal(p, w) for w in CONVENTIONS["joint_weighting"]}
    h = {w: h_b_given_a(jd) for w, jd in joints.items()}
    p000, p111, p222 = p[..., 0, 0, 0], p[..., 1, 1, 1], p[..., 2, 2, 2]
    ceiling = p000 * p111 + p000 * p222 + p111 * p222
    overlap = 2.0 * ceiling * np.linspace(0.0, 1.0, ceiling.size).reshape(ceiling.shape)
    terms = {mode: sigma1_entropy_terms(p000, p111, p222, overlap, mode)
             for mode in CONVENTIONS["p_mode"]}
    x, bec = x_bound(table), s_bec(table)
    p_low = {mode: p_lower_bound(x, table, mode) for mode in CONVENTIONS["p_mode"]}
    for idx in np.ndindex(p.shape[:-3]):
        one = p[idx]
        single = StatTable(one, table.basis_err[idx], table.variant)
        one_x = x_bound(single)
        pairs = [(x, one_x), (bec, s_bec(single))] + [
            (p_low[mode], p_lower_bound(one_x, single, mode)) for mode in p_low]
        for stacked, alone in pairs:
            assert type(alone) is float
            assert stacked[idx].tobytes() == np.float64(alone).tobytes()
        assert t[idx].tobytes() == t_values(one).tobytes()
        for w, jd in joints.items():
            one_jd = joint_and_marginal(one, w)
            for stacked, single in zip(jd, one_jd):
                assert stacked[idx].tobytes() == single.tobytes()
            assert h[w][idx].tobytes() == h_b_given_a(one_jd).tobytes()
        for mode, stacked in terms.items():
            single = sigma1_entropy_terms(one[0, 0, 0], one[1, 1, 1], one[2, 2, 2],
                                          overlap[idx], mode)
            for a, b in zip(stacked, single):
                assert a[idx].tobytes() == b.tobytes()


@pytest.mark.parametrize("d_f", [1, 3, 9])
@pytest.mark.parametrize("d_r", [1, 3, 9])
def test_stacked_families_and_statistics_equal_per_attack_calls(d_f, d_r):
    per_call = attack_module._QR_STACK_BYTES // (16 * 9 * d_f**2 * d_r)
    seeds = range(700, 700 + per_call + 2)   # one full stack and a partial one
    stacks = list(random_attack_stacks(d_f, d_r, seeds))
    assert [len(stack.forward) for stack in stacks] == [per_call, 2]
    names = ("forward", "reverse", "e", "ekij", "f", "g", "h")
    seed = iter(seeds)
    for fams in stacks:
        assert (fams.d_f, fams.d_r) == (d_f, d_r)
        gram = f_gram(fams)
        errors = {variant: (basis_error_direct(fams, variant),
                            basis_error_expanded(gram, variant))
                  for variant in ("phi1", "phi2")}
        tables = {variant: stat_table_from_attack(fams, variant)
                  for variant in ("phi1", "phi2")}
        for t in range(len(fams.forward)):
            one = random_attack(d_f, d_r, next(seed))
            for name in names:
                assert (getattr(fams, name)[t].tobytes()
                        == getattr(one, name).tobytes())
            one_gram = f_gram(one)
            assert gram[t].tobytes() == one_gram.tobytes()
            for variant, (direct, expanded) in errors.items():
                assert (direct[t].tobytes()
                        == basis_error_direct(one, variant).tobytes())
                assert (expanded[t].tobytes()
                        == basis_error_expanded(one_gram, variant).tobytes())
                one_table = stat_table_from_attack(one, variant)
                assert tables[variant].p[t].tobytes() == one_table.p.tobytes()
                assert (tables[variant].basis_err[t].tobytes()
                        == one_table.basis_err.tobytes())
        for table in tables.values():
            assert_statistics_equal_per_table_calls(table)
    # two leading axes: the first stack's attacks as a (2, m) grid
    fw, rv = stacks[0].forward, stacks[0].reverse
    m = per_call // 2
    flat = AttackModel(fw[:2 * m], rv[:2 * m])
    grid = AttackModel(fw[:2 * m].reshape(2, m, *fw.shape[1:]),
                       rv[:2 * m].reshape(2, m, *rv.shape[1:]))
    assert (grid.d_f, grid.d_r) == (d_f, d_r)
    assert type(grid.d_f) is int and type(grid.d_r) is int
    for name in names:
        want = getattr(flat, name)
        assert (getattr(grid, name).tobytes()
                == want.reshape(2, m, *want.shape[1:]).tobytes())
    gram = f_gram(grid)
    assert gram.tobytes() == f_gram(flat).reshape(2, m, 9, 9).tobytes()
    for variant in ("phi1", "phi2"):
        assert (basis_error_direct(grid, variant).tobytes()
                == basis_error_direct(flat, variant).tobytes())
        assert (basis_error_expanded(gram, variant).tobytes()
                == basis_error_expanded(f_gram(flat), variant).tobytes())
        table, flat_table = (stat_table_from_attack(fams, variant)
                             for fams in (grid, flat))
        assert table.p.tobytes() == flat_table.p.tobytes()
        assert table.p.shape == (2, m, 3, 3, 3)
        assert table.basis_err.tobytes() == flat_table.basis_err.tobytes()
        assert table.basis_err.shape == (2, m, 6)
        assert_statistics_equal_per_table_calls(table)


def test_statistics_of_a_symmetric_table_grid_equal_per_table_calls():
    # a (7, 5) grid of forward and reverse flip probabilities over [0, 3/8]
    q_forward, q_reverse = np.linspace(0.0, 0.375, 7), np.linspace(0.0, 0.375, 5)
    p = p_table_symmetric(q_forward[:, None], q_reverse[None, :])
    basis_err = np.linspace(0.0, 1.0, 7 * 5 * 6).reshape(7, 5, 6)
    for variant in ("phi1", "phi2"):
        assert_statistics_equal_per_table_calls(StatTable(p, basis_err, variant))


def test_attack_keeps_its_families():
    attack = random_attack(3, 9, seed=12)
    assert vector_families(attack) is attack


def test_statistics_and_run_build_the_families_once(monkeypatch):
    # the measured records are the one family built from reverse-stage
    # products that the statistics passes and the run read
    calls = []
    images = AttackModel._reverse_images

    def counting(self, vin):
        calls.append(self)
        return images(self, vin)

    monkeypatch.setattr(AttackModel, "_reverse_images", counting)
    attack = random_attack(3, 9, seed=12)
    for variant in ("phi1", "phi2"):
        stat_table_from_attack(attack, variant)
    run_protocol(100, attack, "phi1", seed=1)
    assert len(calls) == 1 and calls[0] is attack


#: ekij's index [k, j, 3i+j] of the measured record at [i, j, k]
_I, _J, _K = np.indices((3, 3, 3))


def _records_of_ekij(fams):
    return fams.ekij[..., _K, _J, 3 * _I + _J, :]


@pytest.mark.parametrize("d_f", [1, 3, 9])
@pytest.mark.parametrize("d_r", [1, 3, 9])
def test_records_are_the_measured_cells_of_ekij(d_f, d_r):
    fams = vector_families(random_attack(d_f, d_r, seed=10 * d_f + d_r))
    assert fams.records.shape == (3, 3, 3, d_f * d_r)
    assert fams.records.tobytes() == _records_of_ekij(fams).tobytes()


@pytest.mark.parametrize("n_attacks,seed", [(200, 1000), (100, 3000)])
def test_records_of_verify_stacks_are_the_measured_cells_of_ekij(n_attacks,
                                                                  seed):
    for fams in verify._random_families(n_attacks, seed):
        assert fams.records.tobytes() == _records_of_ekij(fams).tobytes()


def test_statistics_and_entropies_build_only_the_families_they_read():
    attack = random_attack(3, 3, seed=5)
    for variant in ("phi1", "phi2"):
        stat_table_from_attack(attack, variant)
    conditional_entropies(attack)
    assert {"e", "records", "g", "h"} <= vars(attack).keys()
    assert "ekij" not in vars(attack)
    twirl = pauli_twirl_attack(0.1, 0.1)
    run_protocol(100, twirl, "phi2", seed=1)
    assert {"records", "h"} <= vars(twirl).keys()
    assert not {"ekij", "g"} & vars(twirl).keys()


def test_families_keep_a_read_only_copy_of_a_writeable_stage():
    given = random_attack(3, 3, seed=11)
    fw, rv = given.forward.copy(), given.reverse.copy()
    fams = AttackModel(fw, rv)
    rv[:] = 0.0   # after the families were made, before a family is read
    assert fams.records.tobytes() == given.records.tobytes()
    assert not (fams.forward.flags.writeable or fams.reverse.flags.writeable)
    with pytest.raises(ValueError, match="read-only"):
        fams.records[..., 0] = 0.0
    # a read-only view is copied too: it was once kept as it was, so a
    # write to its base changed forward under families already built
    view = fw[None]
    view.flags.writeable = False
    stack = AttackModel(view, given.reverse[None])
    e = stack.e.tobytes()
    fw *= 1j
    assert stack.forward[0].tobytes() == given.forward.tobytes()
    assert stack.e.tobytes() == e == given.e.tobytes()


@pytest.mark.parametrize("stage", ["forward", "reverse"])
def test_attack_stages_are_read_only_copies(stage):
    given = random_attack(3, 3, seed=11)
    stages = {"forward": given.forward.copy(), "reverse": given.reverse.copy()}
    attack = AttackModel(stages["forward"], stages["reverse"])
    kept = getattr(attack, stage)
    assert kept.tobytes() == stages[stage].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        kept[0, 0] = 0.0
    # the caller's array stays writable, and writing it leaves the model
    stages[stage][0, 0] = 0.0
    assert kept[0, 0] == getattr(given, stage)[0, 0] != 0.0


def _stages(d_f, d_r, seeds):
    stack = next(random_attack_stacks(d_f, d_r, seeds))
    return stack.forward.copy(), stack.reverse.copy()


def _non_isometric_member(stages):
    fw, rv = stages
    rv[1, 0, 0] += 1e-9
    return fw, rv


_BAD_SHAPES = {
    "leading-axes": (lambda: (_stages(1, 3, [1, 2])[0],
                              _stages(1, 3, [1, 2, 3])[1]),
                     r"^reverse shape \(3, 9, 3\) is not .* with forward "
                     r"shape \(2, 3, 3\)$"),
    "stack-depth": (lambda: (_stages(1, 3, [1])[0], random_attack(1, 3, 1).reverse),
                    r"^reverse shape \(9, 3\) is not "),
    "forward-rows": (lambda: (np.eye(4, 3, dtype=complex), np.eye(8, 4)),
                     r"^forward shape \(4, 3\) is not \(\.\.\., 3\*d_f, 3\)$"),
    "forward-columns": (lambda: (np.eye(6, 2, dtype=complex), np.eye(6)),
                        r"^forward shape \(6, 2\) is not "),
    "reverse-rows": (lambda: (np.eye(6, 3, dtype=complex), np.eye(9, 6)),
                     r"^reverse shape \(9, 6\) is not \(\.\.\., 3\*d_f\*d_r, "
                     r"3\*d_f\) with forward shape \(6, 3\)$"),
    "reverse-columns": (lambda: (np.eye(6, 3, dtype=complex), np.eye(12, 3)),
                        r"^reverse shape \(12, 3\) is not "),
    "non-isometric-member": (lambda: _non_isometric_member(_stages(1, 3, [1, 2, 3])),
                             r"^reverse stage is not an isometry$"),
}


@pytest.mark.parametrize("stages,message", _BAD_SHAPES.values(),
                         ids=_BAD_SHAPES.keys())
def test_attack_model_rejects_stages_with_one_line(stages, message):
    with pytest.raises(ValueError, match=message) as err:
        AttackModel(*stages())
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("name", ["e", "ekij", "f", "g", "h"])
def test_family_arrays_are_read_only(name):
    for fams in (random_attack(3, 3, seed=11),
                 next(random_attack_stacks(3, 3, [11, 12]))):
        with pytest.raises(ValueError, match="read-only"):
            getattr(fams, name)[..., 0] = 0.0


def test_random_attacks_of_no_seeds_is_empty():
    assert list(random_attack_stacks(3, 3, [])) == []


_SEED_DRAWS = {
    "random_attack": lambda seed: random_attack(1, 1, seed),
    "random_attack_stacks": lambda seed: next(random_attack_stacks(1, 1, [seed])),
}


@pytest.mark.parametrize("draw", _SEED_DRAWS.values(), ids=_SEED_DRAWS.keys())
@pytest.mark.parametrize("seed", [None, True, -1, 1.5])
def test_random_attack_seed_must_be_a_nonnegative_integer(draw, seed):
    # None drew from fresh OS entropy, True ran as seed 1, and -1 and 1.5
    # got numpy's own errors
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, "
                                         rf"got {re.escape(repr(seed))}$"):
        draw(seed)


def test_random_attack_takes_a_numpy_integer_seed():
    one = random_attack(3, 3, np.int64(4))
    assert one.forward.tobytes() == random_attack(3, 3, 4).forward.tobytes()
    assert one.reverse.tobytes() == random_attack(3, 3, 4).reverse.tobytes()
    stack = next(random_attack_stacks(3, 3, [np.int64(4)]))
    assert stack.forward[0].tobytes() == one.forward.tobytes()
    assert stack.reverse[0].tobytes() == one.reverse.tobytes()


def test_random_attack_takes_numpy_integer_dimensions():
    one = random_attack(np.int64(3), np.int32(9), 4)
    assert type(one.d_f) is int and type(one.d_r) is int
    assert one.forward.tobytes() == random_attack(3, 9, 4).forward.tobytes()
    assert one.reverse.tobytes() == random_attack(3, 9, 4).reverse.tobytes()
    stack = next(random_attack_stacks(np.int64(3), np.uint8(9), [4]))
    assert stack.forward[0].tobytes() == one.forward.tobytes()
    assert stack.reverse[0].tobytes() == one.reverse.tobytes()


def reference_plan(n_attacks, seed):
    """verify's seeded random attacks in draw order, one QR call each."""
    rng = np.random.default_rng(seed)
    for trial in range(n_attacks):
        d_f, d_r = int(rng.choice([1, 3, 9])), int(rng.choice([1, 3, 9]))
        yield reference_random_attack(d_f, d_r, seed + 1 + trial)


@pytest.mark.parametrize("n_attacks,seed", [(200, 1000), (100, 3000)])
def test_verify_builds_each_planned_attack_once(n_attacks, seed):
    # verify groups the plan by shape and yields one stack of record
    # families per QR call; as a multiset the slices of its stacks are the
    # record families of the plan built one attack at a time
    def record_bytes(fams, t=()):
        return b"".join(getattr(fams, name)[t].tobytes()
                        for name in ("e", "ekij", "f", "g", "h"))
    got = sorted(record_bytes(fams, t)
                 for fams in verify._random_families(n_attacks, seed)
                 for t in range(len(fams.e)))
    ref = sorted(record_bytes(vector_families(attack))
                 for attack in reference_plan(n_attacks, seed))
    assert got == ref


def test_sum_rules_group_equals_per_attack_loop():
    worst = 0.0
    for attack in reference_plan(200, 1000):
        fams = vector_families(attack)
        for vecs in (fams.e, fams.f):
            rows = vecs.reshape(3, -1)
            gram = rows.conj() @ rows.T
            worst = max(worst, float(np.max(np.abs(gram - np.eye(3)))))
        kept = sq_norms(fams.ekij).sum(axis=0) - sq_norms(fams.e)
        worst = max(worst, float(np.max(np.abs(kept))))
    assert verify.check_sum_rules() == (
        worst < 1e-10, f"200 attacks, max violation {worst:.3e}")


def test_expansion_group_equals_per_attack_loop():
    worst = 0.0
    for attack in reference_plan(100, 3000):
        fams = vector_families(attack)
        gram = f_gram(fams)
        for variant in ("phi1", "phi2"):
            diff = (basis_error_direct(fams, variant)
                    - basis_error_expanded(gram, variant))
            worst = max(worst, float(np.max(np.abs(diff))))
    assert verify.check_expansion_equivalence() == (
        worst < 1e-10, f"100 attacks, max |direct-expanded| {worst:.3e}")


def test_lemma1_group_equals_per_case_loop(monkeypatch):
    # one haar_isometry call per block, drawn as the group drew them before
    # its QR calls were stacked; the group must pass lemma1_check the same
    # blocks, bit for bit
    rng = np.random.default_rng(2000)
    worst, ref_blocks = 0.0, []
    for _ in range(50):
        n_blocks = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(n_blocks))
        blocks = []
        for w in weights:
            u = haar_isometry(3, 3, rng)
            rho = u @ np.diag(rng.dirichlet(np.ones(3))).astype(complex) @ u.conj().T
            blocks.append((float(w), rho))
        ref_blocks.append([(w, rho.tobytes()) for w, rho in blocks])
        lhs, rhs = lemma1_check(blocks)
        worst = max(worst, abs(lhs - rhs))
    seen = []

    def recording(blocks):
        seen.append([(w, rho.tobytes()) for w, rho in blocks])
        return lemma1_check(blocks)

    monkeypatch.setattr(verify, "lemma1_check", recording)
    assert verify.check_lemma1() == (
        worst < 1e-10, f"50 cases, max |lhs-rhs| {worst:.3e}")
    assert seen == ref_blocks


def test_sum_rules_group_memory_is_bounded():
    # the attacks of one shape are stacked only up to the QR byte budget
    tracemalloc.start()
    try:
        verify.check_sum_rules()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_isometry_deviation_is_the_stack_maximum_and_nan_on_non_finite():
    stack = np.array([np.eye(6, 3), 1.5 * np.eye(6, 3)], dtype=complex)
    assert attack_module._isometry_deviation(stack) == pytest.approx(1.25)
    assert attack_module._isometry_deviation(stack[:1]) == 0.0
    for value in (np.nan, np.inf, complex(0, -np.inf)):
        stack[0, 4, 1] = value
        assert math.isnan(attack_module._isometry_deviation(stack))


def test_unitarity_and_dilation_groups_build_no_attack_model(monkeypatch):
    # the dilation group once built a whole twirl attack to read its
    # forward stage
    def refused(self):
        raise AssertionError("built an AttackModel")
    monkeypatch.setattr(AttackModel, "__post_init__", refused)
    assert verify.check_mub()[0] and verify.check_channel_dilation()[0]


def test_ternary_channel_basics():
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    q = 0.07
    assert np.allclose(ternary_channel_apply(rho0, q),
                       np.diag([1 - 2 * q, q, q]))
    rng = np.random.default_rng(5)
    u = haar_isometry(3, 3, rng)
    rho = u @ np.diag(rng.dirichlet(np.ones(3))).astype(complex) @ u.conj().T
    assert np.allclose(ternary_channel_apply(rho, 0.0), rho)
    assert np.allclose(ternary_channel_apply(rho, 1 / 3), np.eye(3) / 3)
    assert np.trace(ternary_channel_apply(rho, 0.2)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ternary_channel_apply(rho, 0.5)


def test_twirl_isometry_properties():
    v0 = pauli_twirl_isometry(0.0)
    # noiseless dilation embeds the state with the ancilla cleared
    expected = np.zeros((27, 3), dtype=complex)
    for i in range(3):
        expected[i * 9, i] = 1.0
    assert np.allclose(v0, expected)
    for q in (0.05, 0.2, 0.375):
        v = pauli_twirl_isometry(q)
        assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-12
    with pytest.raises(ValueError):
        pauli_twirl_isometry(0.4)


def test_twirl_dilation_reduces_to_channel():
    v = pauli_twirl_isometry(0.1)
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    big = v @ rho0 @ v.conj().T
    reduced = np.einsum("aibi->ab", big.reshape(3, 9, 3, 9))
    assert np.allclose(reduced, np.diag([0.8, 0.1, 0.1]), atol=1e-12)


@pytest.mark.parametrize("q", [0.34, 0.36, 0.375])
def test_twirl_dilation_matches_channel_above_one_third(q):
    # the twirl realises the channel up to 3/8, so the channel takes q there
    v = pauli_twirl_isometry(q)
    rng = np.random.default_rng(8)
    u = haar_isometry(3, 3, rng)
    rho = u @ np.diag(rng.dirichlet(np.ones(3))).astype(complex) @ u.conj().T
    big = v @ rho @ v.conj().T
    reduced = np.einsum("aibi->ab", big.reshape(3, 9, 3, 9))
    assert np.max(np.abs(reduced - ternary_channel_apply(rho, q))) < 1e-14
    with pytest.raises(ValueError, match=r"outside \[0, 3/8\]"):
        ternary_channel_apply(rho, 0.4)


@pytest.mark.parametrize("q", [0.0, 0.02, 1 / 3, 0.375])
def test_twirl_reverse_is_dilation_on_qutrit(q):
    # reverse[qout, af, ab, qin, af'] is the dilation's [qout, ab, qin] when
    # af == af' and +0.0 everywhere else; tobytes tells signed zeros apart
    rv = pauli_twirl_attack(0.1, q).reverse.reshape(3, 9, 9, 3, 9)
    iso = pauli_twirl_isometry(q).reshape(3, 9, 3)
    for af in range(9):
        assert rv[:, af, :, :, af].tobytes() == iso.tobytes()
    off = rv.copy()
    off[:, range(9), :, :, range(9)] = 0.0
    assert off.tobytes() == np.zeros_like(off).tobytes()


def test_attack_model_validation():
    with pytest.raises(ValueError):
        AttackModel(np.zeros((9, 3), dtype=complex), np.eye(9, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("stage", ["forward", "reverse"])
def test_attack_model_rejects_non_finite_stage(stage, bad):
    attack = random_attack(3, 3, seed=11)
    stages = {"forward": attack.forward.copy(), "reverse": attack.reverse.copy()}
    stages[stage][0, 0] = bad
    with pytest.raises(ValueError, match=f"{stage} stage is not an isometry"):
        AttackModel(stages["forward"], stages["reverse"])
    doc = json.loads(attack.to_json())
    doc[stage][0] = [bad, 0.0]
    with pytest.raises(ValueError, match=f"{stage} stage is not an isometry"):
        AttackModel.from_json(json.dumps(doc))


def test_attack_json_round_trip():
    attack = random_attack(3, 3, seed=11)
    clone = AttackModel.from_json(attack.to_json())
    assert clone.d_f == attack.d_f and clone.d_r == attack.d_r
    assert np.allclose(clone.forward, attack.forward)
    assert np.allclose(clone.reverse, attack.reverse)


_DIMENSION_CASES = {
    "identity": (identity_attack, (1, 1)),
    "twirl": (lambda: pauli_twirl_attack(0.1, 0.2), (9, 9)),
    "random-3-9": (lambda: random_attack(3, 9, seed=1), (3, 9)),
    "json-9-1": (lambda: AttackModel.from_json(random_attack(9, 1, 2).to_json()),
                 (9, 1)),
}


@pytest.mark.parametrize("make,dims", _DIMENSION_CASES.values(),
                         ids=_DIMENSION_CASES.keys())
def test_dimensions_are_read_off_the_stage_shapes(make, dims):
    attack = make()
    assert (attack.d_f, attack.d_r) == dims
    assert type(attack.d_f) is int and type(attack.d_r) is int
    doc = json.loads(attack.to_json())
    assert (doc["d_f"], doc["d_r"]) == dims


@pytest.mark.parametrize("field", ["d_f", "d_r"])
@pytest.mark.parametrize("value", [1.7, 1.0, "1", True, 0, -1])
def test_attack_json_rejects_a_dimension_that_is_not_an_integer(field, value):
    doc = json.loads(random_attack(1, 1, seed=11).to_json())
    doc[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be a JSON integer"):
        AttackModel.from_json(json.dumps(doc))


@pytest.mark.parametrize("d_f,d_r", [(np.int64(1), 1), (1, np.int32(1)),
                                     (np.uint8(1), np.int64(1))],
                         ids=["int64-int", "int-int32", "uint8-int64"])
def test_attack_json_round_trip_of_numpy_dimensions(d_f, d_r):
    attack = random_attack(1, 1, seed=11)
    model = random_attack(d_f, d_r, seed=11)
    text = model.to_json()
    assert type(model.d_f) is int and type(model.d_r) is int
    doc = json.loads(text)
    assert type(doc["d_f"]) is int and type(doc["d_r"]) is int
    clone = AttackModel.from_json(text)
    assert clone.to_json() == text
    assert clone.forward.tobytes() == attack.forward.tobytes()
    assert clone.reverse.tobytes() == attack.reverse.tobytes()


#: The builders of an attack from its dimensions.  A case's id is
#: value-field-builder.
_DIMENSION_BUILDS = {
    "random_attack": lambda dims: random_attack(**dims, seed=1),
    "random_attack_stacks":
        lambda dims: next(random_attack_stacks(**dims, seeds=[1])),
}
_BAD_DIMENSIONS = {"True": True, "bool_": np.bool_(True), "1.0": 1.0,
                   "1.5": 1.5, "str": "1", "0": 0, "-1": -1,
                   "int64-0": np.int64(0)}


@pytest.mark.parametrize("build,field,value", [
    pytest.param(build, field, value, id=f"{name}-{field}-{builder}")
    for builder, build in _DIMENSION_BUILDS.items()
    for field in ("d_f", "d_r") for name, value in _BAD_DIMENSIONS.items()])
def test_attack_model_rejects_a_dimension_that_is_not_a_positive_integer(
        build, field, value, monkeypatch):
    # the other dimension is 3, so (0, 3), (3, 0) and (-1, 3) are among the
    # cases; each builder checks both dimensions before any draw
    def no_draws(*args):
        raise AssertionError("drew before checking the dimensions")
    monkeypatch.setattr(attack_module, "haar_isometry", no_draws)
    monkeypatch.setattr(attack_module, "gaussian_matrix", no_draws)
    dims = {"d_f": 3, "d_r": 3, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, "
                                         rf"got {re.escape(repr(value))}$"):
        build(dims)


def _edited_json(make, field, value):
    """make().to_json() with field set to value, or removed if value is None."""
    doc = json.loads(make().to_json())
    if value is None:
        del doc[field]
    else:
        doc[field] = value(doc[field]) if callable(value) else value
    return json.dumps(doc)


def _twirl_table():
    return stat_table_from_attack(pauli_twirl_attack(0.1, 0.1), "phi1")


def _small_attack():
    return random_attack(1, 1, seed=11)


@pytest.mark.parametrize("cls,make,field,value", [
    pytest.param(StatTable, _twirl_table, "variant", 1, id="variant-int"),
    pytest.param(StatTable, _twirl_table, "variant", None, id="variant-missing"),
    pytest.param(StatTable, _twirl_table, "p", None, id="p-missing"),
    pytest.param(StatTable, _twirl_table, "p", lambda p: p[:-1], id="p-short"),
    pytest.param(StatTable, _twirl_table, "basis_err", lambda e: e[:-1] + ["0"],
                 id="basis_err-string"),
    pytest.param(AttackModel, _small_attack, "reverse", None, id="reverse-missing"),
    pytest.param(AttackModel, _small_attack, "forward",
                 lambda f: [z + [0.0] for z in f], id="forward-triples"),
    pytest.param(AttackModel, _small_attack, "reverse",
                 lambda r: [re for re, _ in r], id="reverse-scalars"),
])
def test_malformed_json_documents_raise_one_line_value_errors(cls, make, field,
                                                               value):
    with pytest.raises(ValueError, match=f"^{field} |'{field}'") as err:
        cls.from_json(_edited_json(make, field, value))
    assert "\n" not in str(err.value)


def test_scenario_validation_and_noise_values():
    with pytest.raises(ValueError):
        ChannelScenario(q=0.5)
    with pytest.raises(ValueError):
        ChannelScenario(q=0.1, model="both")
    for model, basis, err in [("dependent", "per-pair", 0.1),
                              ("independent", "per-pair", 2 * 0.1 * 1.7),
                              ("dependent", "total", 0.05)]:
        table = _scenario_table(0.1, model, basis, "phi1")
        assert table.basis_err == pytest.approx([err] * 6)


# ---------------------------------------------------------------------------
# convention flags: one table, one checker, one message
# ---------------------------------------------------------------------------

def _convention_sites():
    """(id, convention name, call with the bad value) for every public entry
    point that takes a convention."""
    attack = pauli_twirl_attack(0.1, 0.1)
    table = stat_table_from_attack(attack, "phi1")
    fams = vector_families(attack)
    sites = []
    for name in CONVENTIONS:
        sites += [
            (f"ChannelScenario.{name}", name,
             lambda bad, name=name: ChannelScenario(0.1, **{name: bad})),
            (f"key_rate_curve.{name}", name,
             lambda bad, name=name: key_rate_curve(np.array([0.1]),
                                                   **{name: bad})),
            (f"find_threshold.{name}", name,
             lambda bad, name=name: find_threshold(
                 **{"variant": "phi1", "model": "dependent", name: bad})),
        ]
    return sites + [
        ("p_lower_bound", "p_mode",
         lambda bad: p_lower_bound(1.0, table, bad)),
        ("key_rate_from_table.weighting", "joint_weighting",
         lambda bad: key_rate_from_table(table, weighting=bad)),
        ("key_rate_from_table.p_mode", "p_mode",
         lambda bad: key_rate_from_table(table, p_mode=bad)),
        ("sigma1_entropy_terms", "p_mode",
         lambda bad: sigma1_entropy_terms(1.0, 1.0, 1.0, 0.0, bad)),
        ("StatTable", "variant",
         lambda bad: StatTable(table.p, table.basis_err, bad)),
        ("stat_table_from_attack", "variant",
         lambda bad: stat_table_from_attack(identity_attack(), bad)),
        ("basis_error_direct", "variant",
         lambda bad: basis_error_direct(fams, bad)),
        ("basis_error_expanded", "variant",
         lambda bad: basis_error_expanded(f_gram(fams), bad)),
        ("run_protocol", "variant",
         lambda bad: run_protocol(100, identity_attack(), bad)),
        ("joint_and_marginal", "joint_weighting",
         lambda bad: joint_and_marginal(table.p, bad)),
    ]


_SITES = _convention_sites()


@pytest.mark.parametrize("name,call", [site[1:] for site in _SITES],
                         ids=[site[0] for site in _SITES])
def test_every_convention_entry_point_rejects_with_one_message(name, call):
    expected = (f"unknown {name} 'bogus', expected one of "
                + ", ".join(CONVENTIONS[name]))
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        call("bogus")


def test_convention_table_is_in_flag_order():
    # the threshold JSON prints ChannelScenario.flags() in this order
    flags = ChannelScenario(0.1).flags()
    assert list(flags) == list(CONVENTIONS) == [
        "variant", "model", "basis_noise_convention", "joint_weighting",
        "p_mode"]
    assert all(flags[name] == values[0] for name, values in CONVENTIONS.items())
