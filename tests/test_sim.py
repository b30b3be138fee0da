import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import sqkd3.sim as sim
from sqkd3.attack import (identity_attack, pauli_twirl_attack, random_attack,
                          vector_families)
from sqkd3.linalg import basis_vectors, sq_norms
from sqkd3.sim import SimulationResult, max_deviation_sigma, run_protocol
from sqkd3.stats import (alt_basis_table, basis_error_direct,
                         p_table_from_attack, stat_table_from_attack)
from sqkd3.term_tables import BASIS_ERROR_ORDER


def test_identity_attack_statistics():
    res = run_protocol(100_000, identity_attack(), "phi1", seed=1)
    for i in range(3):
        assert res.empirical_p[i, i, i] == pytest.approx(1.0)
    assert np.max(res.empirical_basis_err) == 0.0
    assert res.raw_key_error_rate == 0.0


def test_determinism_byte_for_byte():
    attack = pauli_twirl_attack(0.1, 0.1)
    a = run_protocol(50_000, attack, "phi1", seed=7)
    b = run_protocol(50_000, attack, "phi1", seed=7)
    assert np.array_equal(a.counts_p, b.counts_p)
    assert np.array_equal(a.counts_basis_err, b.counts_basis_err)
    assert a.to_json() == b.to_json()
    c = run_protocol(50_000, attack, "phi1", seed=8)
    assert not np.array_equal(a.counts_p, c.counts_p)


@pytest.mark.parametrize("variant", ["PHI1", "phi3"])
def test_unknown_variant_rejected_before_sampling(variant, monkeypatch):
    attack = pauli_twirl_attack(0.1, 0.1)
    with pytest.raises(ValueError, match="unknown variant"):
        basis_error_direct(vector_families(attack), variant)

    def no_draws(*args):
        raise AssertionError("run_protocol drew rounds")
    monkeypatch.setattr(sim, "_category_sizes", no_draws)
    with pytest.raises(ValueError, match="unknown variant"):
        run_protocol(100, attack, variant, seed=0)


@pytest.mark.parametrize("n", [1, 5, 2**16 + 1])
def test_numpy_integer_round_count_gives_the_int_json(n):
    attack = pauli_twirl_attack(0.1, 0.1)
    for variant in ("phi1", "phi2"):
        assert (run_protocol(np.int64(n), attack, variant, seed=3).to_json()
                == run_protocol(n, attack, variant, seed=3).to_json())


@pytest.mark.parametrize("n", [True, False, np.True_, 1.5, 1e4, np.float64(100),
                               "5", 0, -1, np.int64(0)])
def test_round_count_must_be_a_positive_integer(n):
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
        run_protocol(n, pauli_twirl_attack(0.1, 0.1))


def test_numpy_integer_seed_gives_the_int_json():
    attack = pauli_twirl_attack(0.1, 0.1)
    got = run_protocol(5, attack, "phi1", np.int64(3))
    assert type(got.seed) is int
    assert got.to_json() == run_protocol(5, attack, "phi1", 3).to_json()
    assert json.loads(got.to_json())["seed"] == 3


@pytest.mark.parametrize("seed", [True, False, np.True_, -1, np.int64(-1), 1.5,
                                  np.float64(3), "3"])
def test_seed_must_be_a_nonnegative_integer(seed, monkeypatch):
    def no_draws(*args):
        raise AssertionError("run_protocol drew rounds")
    monkeypatch.setattr(sim, "p_table_from_attack", no_draws)
    monkeypatch.setattr(sim, "_Words", no_draws)
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
        run_protocol(5, pauli_twirl_attack(0.1, 0.1), "phi1", seed)


def test_sifted_fraction_converges():
    res = run_protocol(100_000, identity_attack(), "phi1", seed=3)
    sd = np.sqrt(0.25 * 0.75 / res.n_rounds)
    assert abs(res.sifted_fraction - 0.25) < 3 * sd


def test_raw_key_error_rate_converges():
    q = 0.1
    res = run_protocol(200_000, pauli_twirl_attack(q, q), "phi1", seed=5)
    n = res.n_sifted
    sd = np.sqrt(2 * q * (1 - 2 * q) / n)
    assert abs(res.raw_key_error_rate - 2 * q) < 3 * sd


def test_empirical_matches_analytic_table():
    q = 0.1
    attack = pauli_twirl_attack(q, q)
    res = run_protocol(400_000, attack, "phi1", seed=0)
    table = stat_table_from_attack(attack, "phi1")
    per_sent = res.counts_p.sum(axis=(1, 2))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                p = table.p[i, j, k]
                sd = np.sqrt(p * (1 - p) / per_sent[i])
                assert abs(res.empirical_p[i, j, k] - p) < 3.8 * sd


def test_json_and_csv_exports():
    res = run_protocol(10_000, pauli_twirl_attack(0.1, 0.1), "phi2", seed=9)
    doc = res.to_json()
    assert '"n_rounds": 10000' in doc
    fields = json.loads(doc)
    assert sum(fields["counts_p"]) == fields["n_sifted"] == res.counts_p.sum()


def _reference_tables(attack, variant):
    """Exact outcome distributions of the four round categories:
    ("A","M") -> (3,3,3) P(bob, final | sent); ("A","R") -> (3,3)
    P(final | sent); ("alt","M") and ("alt","R") analogous in the
    alternative basis."""
    fams = vector_families(attack)
    alt = basis_vectors("T" if variant == "phi1" else "K")
    # by linearity, sending alt ket i and measuring alt ket k on the way
    # back leaves sum_ab alt[a,i] conj(alt[b,k]) e^b_{j,3a+j}
    alt_m = sq_norms(np.einsum("ai,bk,ajbd->ijkd", alt, alt.conj(),
                               fams.records))
    return {("A", "M"): p_table_from_attack(fams),
            ("A", "R"): sq_norms(fams.f).reshape(3, 3),
            ("alt", "M"): alt_m, ("alt", "R"): alt_basis_table(fams, variant)}


def _reference_json(n, attack, variant, seed):
    """run_protocol written with one boolean mask per category, drawing
    outcomes of (A,M), (A,R), (alt,M), (alt,R) per sent value with
    rng.choice and skipping empty ones."""
    rng = np.random.default_rng(seed)
    tabs = _reference_tables(attack, variant)
    basis_is_alt = rng.integers(0, 2, size=n).astype(bool)
    op_is_reflect = rng.integers(0, 2, size=n).astype(bool)
    sent = rng.integers(0, 3, size=n)
    counts_p = np.zeros((3, 3, 3), dtype=np.int64)
    alt_reflect = np.zeros((3, 3), dtype=np.int64)
    bob, final = [], []
    for i in range(3):
        for alt, reflect in itertools.product((False, True), repeat=2):
            m = int(((basis_is_alt == alt) & (op_is_reflect == reflect)
                     & (sent == i)).sum())
            if not m:
                continue
            probs = tabs[("alt" if alt else "A", "R" if reflect else "M")][i].ravel()
            draws = rng.choice(len(probs), size=m, p=probs / probs.sum())
            if not alt and not reflect:
                np.add.at(counts_p[i], (draws // 3, draws % 3), 1)
                bob.extend(draws // 3)
                final.extend(draws % 3)
            elif alt and reflect:
                np.add.at(alt_reflect[i], draws, 1)
    empirical_p = np.zeros((3, 3, 3))
    for i in range(3):
        if counts_p[i].sum():
            empirical_p[i] = counts_p[i] / counts_p[i].sum()
    totals = alt_reflect.sum(axis=1)
    counts_err = [int(alt_reflect[i, j]) for i, j in BASIS_ERROR_ORDER]
    emp_err = [alt_reflect[i, j] / totals[i] if totals[i] else 0.0
               for i, j in BASIS_ERROR_ORDER]
    bob, final = np.array(bob), np.array(final)
    return json.dumps({
        "n_rounds": n, "seed": seed,
        "counts_p": counts_p.ravel().tolist(),
        "empirical_p": empirical_p.ravel().tolist(),
        "counts_basis_err": counts_err,
        "empirical_basis_err": [float(x) for x in emp_err],
        "noise_rounds_per_sent": totals.tolist(),
        "sifted_fraction": float(len(bob)) / n,
        "n_sifted": len(bob),
        "raw_key_error_rate": float(np.mean(bob != final)) if len(bob) else 0.0,
    })


@pytest.mark.parametrize("variant", ["phi1", "phi2"])
@pytest.mark.parametrize("d_f,d_r", list(itertools.product((1, 3, 9), repeat=2)))
def test_stream_and_category_order_match_mask_reference(d_f, d_r, variant):
    attack = random_attack(d_f, d_r, seed=100 + 10 * d_f + d_r)
    for n in (1, 2, 7, 3000):
        seed = 1000 * d_f + 10 * d_r + n
        assert run_protocol(n, attack, variant, seed).to_json() == \
            _reference_json(n, attack, variant, seed)


_C = sim._CHUNK


# The zero-cell attacks' tables put all of a row's weight on a few cells,
# so a cdf reaches 1 before its last entry; 63, 64 and 65 rounds, and
# _C - 63, end on and around the 64-round words the category counts pack.
@pytest.mark.parametrize("variant", ["phi1", "phi2"])
@pytest.mark.parametrize("attack", [pauli_twirl_attack(0.1, 0.1),
                                    random_attack(3, 9, seed=39),
                                    identity_attack(), pauli_twirl_attack(0, 0),
                                    pauli_twirl_attack(0.375, 0.375)],
                         ids=["twirl", "random", "identity", "twirl-0",
                              "twirl-3/8"])
@pytest.mark.parametrize("n", [9, 63, 64, 65, _C - 63, _C - 1, _C, _C + 1,
                               2 * _C - 1, 3 * _C + 1])
def test_chunk_boundaries_match_mask_reference(n, attack, variant):
    seed = n + 11
    assert run_protocol(n, attack, variant, seed).to_json() == \
        _reference_json(n, attack, variant, seed)


@pytest.mark.parametrize("variant", ["phi1", "phi2"])
def test_short_run_past_six_sigma_is_the_reference_draw(variant):
    # 27 rounds in a raw-key cell that expects 8.2 of its sent value's 870:
    # a binomial tail of 1.4e-7, drawn as the mask reference draws it
    attack = random_attack(1, 3, 1637110490)
    res = run_protocol(10_000, attack, variant, 1981593359)
    assert res.to_json() == _reference_json(10_000, attack, variant, 1981593359)
    table = stat_table_from_attack(attack, variant)
    assert res.counts_p[2, 1, 2] == 27
    assert res.counts_p[2].sum() * table.p[2, 1, 2] == pytest.approx(8.208, abs=1e-3)
    assert max_deviation_sigma(res, table) == pytest.approx(6.59, abs=5e-3)


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_with_word(k, word):
    """A PCG64 whose output number k (from 0) is `word`.

    PCG64 steps its 128-bit LCG state, then outputs the xor of the new
    state's high and low 64 bits rotated right by the top 6 bits."""
    high = 0x5EED << 40
    rot = high >> 58
    low = high ^ (((word << rot) | (word >> (64 - rot))) & (2**64 - 1))
    state = np.random.PCG64(0).state
    state["state"]["state"] = (((high << 64 | low) - state["state"]["inc"])
                               * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128)
    bitgen = np.random.PCG64(0)
    bitgen.state = state
    bitgen.advance(2**128 - k)
    return bitgen


# Word k of the stream: a zero word rejects two sent halves mid-stream, at
# the stream's end and at the end of the first chunk; the other words put
# halves on the sent value's steps and on the flags' top bit.
@pytest.mark.parametrize("n,k,word", [
    (7, 8, 0), (8, 11, 0), (_C + 1, _C + 1 + _C // 2 - 1, 0),
    (7, 8, 0xAAAAAAAA_55555555), (7, 8, 0xAAAAAAAB_55555556),
    (7, 1, 0x80000000_7FFFFFFF), (7, 4, 0x80000000_7FFFFFFF),
], ids=["rejected", "rejected-last", "rejected-chunk-end", "sent-steps",
        "sent-after-steps", "alt-top-bit", "reflect-top-bit"])
def test_crafted_words_give_the_integers_and_choice_draws(n, k, word):
    assert _pcg64_with_word(k, word).random_raw(k + 1)[k] == word
    rng = np.random.Generator(_pcg64_with_word(k, word))
    key = 2 * rng.integers(0, 2, size=n) + rng.integers(0, 2, size=n)
    key += 4 * rng.integers(0, 3, size=n)
    stream = sim._Words(_pcg64_with_word(k, word))
    sizes = sim._category_sizes(stream, n)
    assert sizes.tolist() == np.bincount(key, minlength=12).tolist()
    probs = np.array([0.2, 0.0, 0.5, 0.3])
    for c in np.flatnonzero(sizes):
        size = int(sizes[c])
        if c % 2:
            rng.random(size)
            stream.seek(stream.word + size)
        else:
            assert sim._outcome_counts(stream, size, probs).tolist() == \
                np.bincount(rng.choice(4, size=size, p=probs),
                            minlength=4).tolist()
    assert stream.words(1).tolist() == rng.bit_generator.random_raw(1).tolist()


@pytest.mark.parametrize("probs", [[1.0, 1.0], [1.0, 2.0], [0.3, 0.7]])
@pytest.mark.parametrize("offset", [-1, 0])
@pytest.mark.parametrize("low_bits", [0, 0x7FF])
def test_outcome_at_a_cdf_step_is_choice_outcome(probs, offset, low_bits):
    # the uniform (w >> 11) / 2**53 one step below or at cdf[0]
    probs = np.array(probs)
    cdf = np.cumsum(probs / probs.sum())
    cdf /= cdf[-1]
    word = (math.ceil(cdf[0] * 2**53) + offset) << 11 | low_bits
    stream = sim._Words(_pcg64_with_word(0, word))
    rng = np.random.Generator(_pcg64_with_word(0, word))
    assert _pcg64_with_word(0, word).random_raw(1)[0] == word
    assert sim._outcome_counts(stream, 1, probs).tolist() == np.bincount(
        rng.choice(2, size=1, p=probs / probs.sum()), minlength=2).tolist()


@pytest.mark.parametrize("probs", [[1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
@pytest.mark.parametrize("word", [0, 2**11 - 1, 2**64 - 2**11, 2**64 - 1])
def test_outcome_of_a_cdf_that_reaches_one_early_is_choice_outcome(probs, word):
    # the bound 2**53 of a cdf entry equal to 1 takes every word, the
    # largest one too
    probs = np.array(probs)
    stream = sim._Words(_pcg64_with_word(0, word))
    rng = np.random.Generator(_pcg64_with_word(0, word))
    assert sim._outcome_counts(stream, 1, probs).tolist() == np.bincount(
        rng.choice(probs.size, size=1, p=probs), minlength=probs.size).tolist()


@pytest.mark.parametrize("probs", [[0.5, np.nan, 0.5], [0.0, 0.0, 0.0],
                                   [0.6, -0.1, 0.5]])
def test_bad_probabilities_rejected_as_choice_rejects_them(probs):
    probs = np.array(probs)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError) as choice:
            np.random.default_rng(0).choice(3, size=5, p=probs / probs.sum())
        with pytest.raises(ValueError) as ours:
            sim._outcome_counts(sim._Words(np.random.PCG64(0)), 5, probs)
    assert str(ours.value) == str(choice.value)


def test_memory_does_not_grow_with_rounds():
    attack = pauli_twirl_attack(0.1, 0.1)
    tracemalloc.start()
    try:
        run_protocol(10**7, attack, "phi1", seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _reference_max_sigma(result, table):
    """The per-cell deviation loop, with Python's max skipping NaN cells."""
    def sigma_dev(freq, p, n_cat):
        if n_cat == 0:
            return 0.0
        sd = np.sqrt(p * (1 - p) / n_cat)
        diff = abs(freq - p)
        if sd == 0:
            return 0.0 if diff == 0 else float("inf")
        return diff / sd

    per_sent = result.counts_p.sum(axis=(1, 2))
    worst = 0.0
    for i, j, k in itertools.product(range(3), repeat=3):
        worst = max(worst, sigma_dev(result.empirical_p[i, j, k],
                                     table.p[i, j, k], per_sent[i]))
    for idx, (i, _j) in enumerate(BASIS_ERROR_ORDER):
        worst = max(worst, sigma_dev(result.empirical_basis_err[idx],
                                     table.basis_err[idx],
                                     result.noise_rounds_per_sent[i]))
    return worst


def test_max_deviation_sigma_matches_per_cell_loop():
    for q, n, seed in [(0.0, 2000, 1), (0.1, 50, 2), (0.3, 20_000, 3)]:
        attack = pauli_twirl_attack(q, q)
        res = run_protocol(n, attack, "phi2", seed)
        table = stat_table_from_attack(attack, "phi2")
        assert max_deviation_sigma(res, table) == _reference_max_sigma(res, table)
    # no rounds for sent value 0, zero-variance cells that match (0) and
    # miss (inf), and a NaN cell from a probability just above 1
    counts_p = np.zeros((3, 3, 3), dtype=np.int64)
    counts_p[1, 1, 1] = counts_p[2, 2, 2] = counts_p[2, 2, 0] = 4
    empirical_p = np.zeros((3, 3, 3))
    empirical_p[1, 1, 1], empirical_p[2, 2, 2] = 1.0, 0.5
    res = SimulationResult(4, counts_p, empirical_p, np.zeros(6, np.int64),
                           np.zeros(6), np.array([0, 3, 5]))
    table = SimpleNamespace(p=np.zeros((3, 3, 3)), basis_err=np.full(6, 0.25))
    table.p[1, 1, 1] = table.p[2, 2, 2] = 1.0
    assert max_deviation_sigma(res, table) == _reference_max_sigma(res, table) \
        == float("inf")
    table.p[2, 2, 2] = 1.0 + 2**-52
    with np.errstate(invalid="ignore"):
        expected = _reference_max_sigma(res, table)
    assert max_deviation_sigma(res, table) == expected == \
        max(0.25 / np.sqrt(0.25 * 0.75 / n) for n in (3, 5))
