"""Known soundness defects, pinned as they stand (ROADMAP F1, F3, F4).

A key-rate lower bound must not exceed the rate that a concrete attack
leaves on the same statistics (Devetak-Winter, Proc. R. Soc. A 461, 207,
2005).  These tests assert where the shipped formulas fail that today; a
change that mends a defect updates its pin.
"""
import itertools

import numpy as np
import pytest

from sqkd3.attack import ChannelScenario, pauli_twirl_attack, random_attack
from sqkd3.keyrate import (conditional_entropies, h_b_given_a,
                           key_rate_from_table, s_bec)
from sqkd3.stats import (joint_and_marginal, stat_table_for_scenario,
                         stat_table_from_attack)


def _distance(a, b):
    return max(np.max(np.abs(a.p - b.p)),
               np.max(np.abs(a.basis_err - b.basis_err)))


@pytest.mark.parametrize("variant", ["phi1", "phi2"])
@pytest.mark.parametrize("q", [0.05, 0.1])
def test_twirl_realises_only_the_independent_total_table(variant, q):
    # F1: the symmetric twirl gives the independent/total scenario table
    # and none of the other three, whose basis errors differ by >= 0.0425
    twirl = stat_table_from_attack(pauli_twirl_attack(q, q), variant)
    for model, basis in itertools.product(("dependent", "independent"),
                                          ("per-pair", "total")):
        scenario = stat_table_for_scenario(
            ChannelScenario(q, model, variant, basis))
        if (model, basis) == ("independent", "total"):
            assert _distance(twirl, scenario) <= 2e-16
        else:
            assert _distance(twirl, scenario) > 0.04


@pytest.mark.parametrize("p_mode,rate", [("as-printed", 0.998),
                                         ("corrected", 0.257)])
def test_phi1_rate_exceeds_the_twirls_own_attack_rate(p_mode, rate):
    # F3: on the twirl's table at Q = 0.05 the phi1 "lower bound" lies far
    # above S(B|EC) - H(B|A) of the twirl itself, normalized weighting
    attack = pauli_twirl_attack(0.05, 0.05)
    table = stat_table_from_attack(attack, "phi1")
    attack_rate = (conditional_entropies(attack)["S_B_given_EC"]
                   - h_b_given_a(joint_and_marginal(table.p, "normalized")))
    assert attack_rate == pytest.approx(0.0361, abs=1e-4)
    r = key_rate_from_table(table, "normalized", p_mode).r
    assert r == pytest.approx(rate, abs=1e-3)
    assert r > attack_rate


@pytest.mark.parametrize("seed", range(20))
def test_s_bec_exceeds_the_exact_record_entropy_of_random_attacks(seed):
    # F4: H3(p/3) bounds S(BEC) from above and is exact only when each
    # (j, c) block's records are orthogonal; on these attacks the smallest
    # excess is 0.047 (seed 5)
    attack = random_attack(3, 9, seed)
    ents = conditional_entropies(attack)
    exact = ents["S_B_given_EC"] + ents["S_EC_exact"]
    assert s_bec(stat_table_from_attack(attack, "phi1")) - exact >= 0.02
