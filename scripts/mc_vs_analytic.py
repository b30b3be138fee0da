#!/usr/bin/env python3
"""Monte Carlo convergence experiment against the analytic statistics.

For a grid of noise levels, runs the protocol simulator under the
symmetric twirl attack and reports the worst deviation of the empirical
raw-key and basis-error tables from the exact ones, in binomial standard
errors (`max_deviation_sigma`, as in `sqkd3 simulate`), plus the raw-key
error rate against its 2Q expectation.
"""
import argparse

from sqkd3 import (max_deviation_sigma, pauli_twirl_attack, run_protocol,
                   stat_table_from_attack)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--q", type=float, nargs="+",
                    default=[0.02, 0.05, 0.1, 0.2])
    args = ap.parse_args()

    print(f"{'Q':>6s} {'sifted':>8s} {'raw err':>9s} {'2Q':>6s} "
          f"{'max dev':>11s}")
    for q in args.q:
        attack = pauli_twirl_attack(q, q)
        res = run_protocol(args.n, attack, "phi1", seed=args.seed)
        worst = max_deviation_sigma(res, stat_table_from_attack(attack, "phi1"))
        print(f"{q:6.3f} {res.sifted_fraction:8.4f} "
              f"{res.raw_key_error_rate:9.4f} {2 * q:6.3f} "
              f"{worst:9.2f}sd")


if __name__ == "__main__":
    main()
