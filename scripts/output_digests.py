#!/usr/bin/env python3
"""Print one sha256 digest per output that a refactor must keep byte-identical.

The outputs are:

* the `sweep` CSV of each of the 32 conventions, 301 steps over [0, 3/8];
* the raw bytes of every `key_rate_curve` column on that grid, for each of
  the 32 conventions, so that a last-bit change the CSV's %.9g hides shows;
* the 8 `threshold` JSONs of the README (both p-modes, default weighting
  and basis convention);
* `repr(find_threshold(...))` for each of the 32 conventions;
* seeded `simulate` JSONs for both variants at three noise levels;
* seeded `run_protocol` JSONs of 1 and 5 rounds, for both variants, where
  most categories are empty;
* the `verify` text;
* the forward and reverse isometries of `pauli_twirl_attack(q, q)` and its
  five record families, at q in {0, 0.1, 3/8}, and apart its measured
  records (the family `records`);
* the bytes of `rho_be` and `rho_bec` and the `conditional_entropies` of
  `pauli_twirl_attack(q, q)`, at q in {0.02, 0.1, 0.3};
* the `conditional_entropies` and measured records, and for both variants
  the `stat_table_from_attack` and a seeded 2000-round `run_protocol` JSON,
  of one seeded random attack per (d_f, d_r) in {1, 3, 9}^2;
* seeded `run_protocol` JSONs for both variants at the round counts around
  the sampler's 2**16-round chunks (2**16 - 1, 2**16, 2**16 + 1,
  3 * 2**16 + 1), on the twirl at q = 0.1 and on a seeded random attack,
  and one (10**6 + 1)-round twirl run per variant;
* for each (d_f, d_r) of `verify`'s two seeded attack plans (seeds
  1001-1200 and 3001-3100), the forward and reverse isometries of that
  shape's attacks, built as `verify` builds them;
* the `--help` text of `sqkd3` and of each subcommand, and the usage error
  of `sweep` and `threshold` for one unknown value of each convention flag
  and of `simulate` for an unknown variant, at 80 columns;
* the `sweep` CSV and the raw `key_rate_curve` columns of each of the 32
  conventions again on 5001 steps over [0, 3/8], a grid that
  `key_rate_curve` evaluates in several chunks;
* the bytes of `rho_be` and `rho_bec` of the nine seeded random attacks
  above, one per (d_f, d_r) in {1, 3, 9}^2;
* the bytes of `rho_be` and `rho_bec` and the `conditional_entropies` of
  `pauli_twirl_attack(q, q)` at the ends q = 0 and q = 3/8 of its range,
  where the states' blocks span the fewest record rows (none, for some
  blocks at q = 0);
* seeded `run_protocol` JSONs for both variants at 2**16 + 65 rounds of
  `identity_attack()`, `pauli_twirl_attack(0, 0)` and
  `pauli_twirl_attack(3/8, 3/8)`, whose tables hold zero cells and rows
  whose cumulative distribution reaches 1 before its last entry;
* the `key_rate_from_table` JSON of the `stat_table_from_attack` of the
  nine seeded random attacks above, for each variant, joint weighting and
  p-mode: tables that no symmetric sweep reaches.

Compare two source trees by running it on each and diffing the outputs:

    PYTHONPATH=<tree>/src python scripts/output_digests.py > <tree>.txt
"""
import contextlib
import hashlib
import io
import itertools
import os

import numpy as np

from sqkd3 import verify
from sqkd3.attack import (identity_attack, pauli_twirl_attack, random_attack,
                          random_attack_stacks)
from sqkd3.cli import main
from sqkd3.keyrate import (Q_MAX, conditional_entropies, find_threshold,
                           key_rate_curve, key_rate_from_table, rho_be,
                           rho_bec)
from sqkd3.sim import run_protocol
from sqkd3.stats import stat_table_from_attack

CONVENTIONS = {"--variant": ("phi1", "phi2"), "--model": ("dep", "indep"),
               "--p-mode": ("printed", "corrected"),
               "--weighting": ("printed", "normalized"),
               "--basis-convention": ("per-pair", "total")}
#: the library's names for the CLI's convention spellings
LIBRARY_NAME = {"dep": "dependent", "indep": "independent",
                "printed": "as-printed"}


def digest(text: str | bytes) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


def cli_output(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def cli_exit(argv: list) -> str:
    """Exit status, stdout and stderr of a command that argparse ends."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\n{out.getvalue()}\nstderr\n{err.getvalue()}"


def sweep_outputs(values: tuple, steps: int, suffix: str = ""):
    """The `sweep` CSV of one convention on `steps` points over [0, 3/8]
    and the raw bytes of every `key_rate_curve` column on that grid."""
    flags = [x for pair in zip(CONVENTIONS, values) for x in pair]
    yield "sweep " + " ".join(flags) + suffix, cli_output(
        ["sweep", *flags, "--q-min", "0", "--q-max", "0.375",
         "--steps", str(steps)])
    variant, model, p_mode, weighting, basis = (LIBRARY_NAME.get(v, v)
                                                for v in values)
    cols = key_rate_curve(np.linspace(0.0, Q_MAX, steps), model, variant,
                          basis, weighting, p_mode)
    for name, col in cols.items():
        yield (f"key_rate_curve {name} " + " ".join(flags) + suffix,
               col.tobytes())


def outputs():
    for values in itertools.product(*CONVENTIONS.values()):
        yield from sweep_outputs(values, 301)
        variant, model, p_mode, weighting, basis = (LIBRARY_NAME.get(v, v)
                                                    for v in values)
        flags = [x for pair in zip(CONVENTIONS, values) for x in pair]
        yield "find_threshold " + " ".join(flags), repr(
            find_threshold(variant, model, basis, weighting, p_mode))
    for variant, model, p_mode in itertools.product(
            *(CONVENTIONS[k] for k in ("--variant", "--model", "--p-mode"))):
        flags = ["--variant", variant, "--model", model, "--p-mode", p_mode]
        yield "threshold " + " ".join(flags), cli_output(["threshold", *flags])
    for variant, q, seed in itertools.product(("phi1", "phi2"),
                                              ("0.02", "0.1", "0.3"), (0, 7)):
        argv = ["simulate", "--n", "200000", "--q", q, "--variant", variant,
                "--seed", str(seed)]
        yield " ".join(argv), cli_output(argv)
    for variant, n in itertools.product(("phi1", "phi2"), (1, 5)):
        yield (f"run_protocol({n}, twirl 0.1) {variant}",
               run_protocol(n, pauli_twirl_attack(0.1, 0.1), variant,
                            seed=3).to_json())
    lines = []
    verify.run_all(report=lines.append)
    yield "verify", "\n".join(lines)
    for q in (0.0, 0.1, 0.375):
        attack = pauli_twirl_attack(q, q)
        yield f"pauli_twirl_attack({q}, {q})", "".join(
            arr.tobytes().hex() for arr in (attack.forward, attack.reverse,
                                            attack.e, attack.ekij, attack.f,
                                            attack.g, attack.h))
        # the labels keep the name of the function that once read them
        yield (f"measure_records pauli_twirl_attack({q}, {q})",
               attack.records.tobytes().hex())
    for q in (0.02, 0.1, 0.3):
        attack = pauli_twirl_attack(q, q)
        # rho_bec is 15 MB: hash its bytes, not their hex
        yield f"rho_be twirl {q}", rho_be(attack).tobytes()
        yield f"rho_bec twirl {q}", rho_bec(attack).tobytes()
        yield (f"conditional_entropies twirl {q}",
               repr(conditional_entropies(attack)))
    for d_f, d_r in itertools.product((1, 3, 9), repeat=2):
        attack = random_attack(d_f, d_r, seed=10 * d_f + d_r)
        yield (f"conditional_entropies random_attack({d_f}, {d_r})",
               repr(conditional_entropies(attack)))
        yield (f"measure_records random_attack({d_f}, {d_r})",
               attack.records.tobytes().hex())
        for variant in ("phi1", "phi2"):
            table = stat_table_from_attack(attack, variant)
            yield (f"stat_table random_attack({d_f}, {d_r}) {variant}",
                   table.p.tobytes().hex() + table.basis_err.tobytes().hex())
            yield (f"run_protocol(2000, random_attack({d_f}, {d_r})) {variant}",
                   run_protocol(2000, attack, variant, seed=d_f * d_r).to_json())
    attacks = {"twirl 0.1": pauli_twirl_attack(0.1, 0.1),
               "random_attack(3, 9)": random_attack(3, 9, seed=39)}
    for (name, attack), variant, n in itertools.product(
            attacks.items(), ("phi1", "phi2"),
            (2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 1)):
        yield (f"run_protocol({n}, {name}) {variant}",
               run_protocol(n, attack, variant, seed=n).to_json())
    for variant in ("phi1", "phi2"):
        yield (f"run_protocol({10**6 + 1}, twirl 0.1) {variant}",
               run_protocol(10**6 + 1, attacks["twirl 0.1"], variant,
                            seed=1).to_json())
    for seed, n_attacks in ((1000, 200), (3000, 100)):
        rng = np.random.default_rng(seed)
        plan = {}
        for trial in range(n_attacks):
            shape = (int(rng.choice((1, 3, 9))), int(rng.choice((1, 3, 9))))
            plan.setdefault(shape, []).append(seed + 1 + trial)
        for shape, seeds in sorted(plan.items()):
            # the label keeps the name of the builder it once hashed
            yield (f"random_attacks{shape} of verify's seeds "
                   f"{seed + 1}-{seed + n_attacks}",
                   b"".join(forward.tobytes() + reverse.tobytes()
                            for stack in random_attack_stacks(*shape, seeds)
                            for forward, reverse in zip(stack.forward,
                                                        stack.reverse)))
    # argparse wraps its text to the terminal width it reads from COLUMNS
    os.environ["COLUMNS"] = "80"
    for argv in ([], ["sweep"], ["threshold"], ["simulate"], ["verify"]):
        argv = [*argv, "--help"]
        yield " ".join(argv), cli_exit(argv)
    bad = [(cmd, flag) for cmd in ("sweep", "threshold") for flag in CONVENTIONS]
    for cmd, flag in bad + [("simulate", "--variant")]:
        argv = [cmd, flag, "bogus"]
        yield " ".join(argv), cli_exit(argv)
    # 5001 steps span ten of key_rate_curve's 512-point kernel passes
    for values in itertools.product(*CONVENTIONS.values()):
        yield from sweep_outputs(values, 5001, " --steps 5001")
    for d_f, d_r in itertools.product((1, 3, 9), repeat=2):
        attack = random_attack(d_f, d_r, seed=10 * d_f + d_r)
        yield f"rho_be random_attack({d_f}, {d_r})", rho_be(attack).tobytes()
        yield f"rho_bec random_attack({d_f}, {d_r})", rho_bec(attack).tobytes()
    for q in (0.0, Q_MAX):
        attack = pauli_twirl_attack(q, q)
        yield f"rho_be twirl {q}", rho_be(attack).tobytes()
        yield f"rho_bec twirl {q}", rho_bec(attack).tobytes()
        yield (f"conditional_entropies twirl {q}",
               repr(conditional_entropies(attack)))
    zero_cells = {"identity": identity_attack(),
                  "twirl 0.0": pauli_twirl_attack(0.0, 0.0),
                  f"twirl {Q_MAX}": pauli_twirl_attack(Q_MAX, Q_MAX)}
    for (name, attack), variant in itertools.product(zero_cells.items(),
                                                     ("phi1", "phi2")):
        n = 2**16 + 65
        yield (f"run_protocol({n}, {name}) {variant}",
               run_protocol(n, attack, variant, seed=n).to_json())
    for d_f, d_r in itertools.product((1, 3, 9), repeat=2):
        attack = random_attack(d_f, d_r, seed=10 * d_f + d_r)
        for variant, weighting, p_mode in itertools.product(
                ("phi1", "phi2"), ("as-printed", "normalized"),
                ("as-printed", "corrected")):
            yield (f"key_rate_from_table random_attack({d_f}, {d_r}) "
                   f"{variant} {weighting} {p_mode}",
                   key_rate_from_table(stat_table_from_attack(attack, variant),
                                       weighting, p_mode).to_json())


if __name__ == "__main__":
    for name, text in outputs():
        print(digest(text), name)
