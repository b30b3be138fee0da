#!/usr/bin/env python3
"""Print one sha256 digest per output that a refactor must keep byte-identical.

The outputs are:

* the `sweep` CSV of each of the 32 conventions, 301 steps over [0, 3/8];
* the 8 `threshold` JSONs of the README (both p-modes, default weighting
  and basis convention);
* seeded `simulate` JSONs for both variants at three noise levels;
* seeded `run_protocol` JSONs of 1 and 5 rounds, for both variants, where
  most categories are empty;
* the `verify` text;
* the forward and reverse isometries of `pauli_twirl_attack(q, q)` and its
  five record families, at q in {0, 0.1, 3/8};
* the bytes of `rho_be` and `rho_bec` and the `conditional_entropies` of
  `pauli_twirl_attack(q, q)`, at q in {0.02, 0.1, 0.3};
* the `conditional_entropies`, and for both variants the
  `stat_table_from_attack` and a seeded 2000-round `run_protocol` JSON, of
  one seeded random attack per (d_f, d_r) in {1, 3, 9}^2.

Compare two source trees by running it on each and diffing the outputs:

    PYTHONPATH=<tree>/src python scripts/output_digests.py > <tree>.txt
"""
import contextlib
import hashlib
import io
import itertools

from sqkd3 import verify
from sqkd3.attack import pauli_twirl_attack, random_attack, vector_families
from sqkd3.cli import main
from sqkd3.keyrate import conditional_entropies, rho_be, rho_bec
from sqkd3.sim import run_protocol
from sqkd3.stats import stat_table_from_attack

CONVENTIONS = {"--variant": ("phi1", "phi2"), "--model": ("dep", "indep"),
               "--p-mode": ("printed", "corrected"),
               "--weighting": ("printed", "normalized"),
               "--basis-convention": ("per-pair", "total")}


def digest(text: str | bytes) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


def cli_output(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def outputs():
    for values in itertools.product(*CONVENTIONS.values()):
        flags = [x for pair in zip(CONVENTIONS, values) for x in pair]
        yield "sweep " + " ".join(flags), cli_output(
            ["sweep", *flags, "--q-min", "0", "--q-max", "0.375",
             "--steps", "301"])
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
        fams = vector_families(attack)
        yield f"pauli_twirl_attack({q}, {q})", "".join(
            arr.tobytes().hex() for arr in (attack.forward, attack.reverse,
                                            fams.e, fams.ekij, fams.f, fams.g,
                                            fams.h))
    for q in (0.02, 0.1, 0.3):
        fams = vector_families(pauli_twirl_attack(q, q))
        # rho_bec is 15 MB: hash its bytes, not their hex
        yield f"rho_be twirl {q}", rho_be(fams).tobytes()
        yield f"rho_bec twirl {q}", rho_bec(fams).tobytes()
        yield (f"conditional_entropies twirl {q}",
               repr(conditional_entropies(fams)))
    for d_f, d_r in itertools.product((1, 3, 9), repeat=2):
        attack = random_attack(d_f, d_r, seed=10 * d_f + d_r)
        yield (f"conditional_entropies random_attack({d_f}, {d_r})",
               repr(conditional_entropies(vector_families(attack))))
        for variant in ("phi1", "phi2"):
            table = stat_table_from_attack(attack, variant)
            yield (f"stat_table random_attack({d_f}, {d_r}) {variant}",
                   table.p.tobytes().hex() + table.basis_err.tobytes().hex())
            yield (f"run_protocol(2000, random_attack({d_f}, {d_r})) {variant}",
                   run_protocol(2000, attack, variant, seed=d_f * d_r).to_json())


if __name__ == "__main__":
    for name, text in outputs():
        print(digest(text), name)
