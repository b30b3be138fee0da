"""Security analysis of a 3-dimensional semi-quantum key distribution
protocol: collective-attack model, observed statistics, asymptotic
key-rate lower bound, and a Monte Carlo protocol simulator.
"""

from .attack import (AttackModel, ChannelScenario, identity_attack,
                     pauli_twirl_attack, pauli_twirl_isometry, random_attack,
                     ternary_channel_apply, vector_families)
from .keyrate import (KeyRateReport, Sigma1Decomposition, find_threshold,
                      key_rate, key_rate_curve, key_rate_from_table,
                      lemma1_check, no_error_overlap, p_lower_bound, s_bec,
                      s_ec_bound, s_ec_upper, sigma1_eigenvalues, x_bound)
from .linalg import basis_vectors, shannon_entropy3, von_neumann_entropy3
from .sim import SimulationResult, max_deviation_sigma, run_protocol
from .stats import (StatTable, basis_error_direct, basis_error_expanded,
                    joint_and_marginal, p_table_from_attack,
                    p_table_symmetric, stat_table_for_scenario,
                    stat_table_from_attack, t_values)

__all__ = [
    "AttackModel", "ChannelScenario", "KeyRateReport",
    "Sigma1Decomposition", "SimulationResult", "StatTable",
    "basis_error_direct", "basis_error_expanded", "basis_vectors",
    "find_threshold", "identity_attack", "joint_and_marginal", "key_rate",
    "key_rate_curve", "key_rate_from_table", "lemma1_check",
    "max_deviation_sigma", "no_error_overlap", "p_lower_bound",
    "p_table_from_attack", "p_table_symmetric", "pauli_twirl_attack",
    "pauli_twirl_isometry", "random_attack", "run_protocol", "s_bec",
    "s_ec_bound", "s_ec_upper", "shannon_entropy3", "sigma1_eigenvalues",
    "stat_table_for_scenario", "stat_table_from_attack", "t_values",
    "ternary_channel_apply", "vector_families", "von_neumann_entropy3",
    "x_bound",
]

__version__ = "0.1.0"
