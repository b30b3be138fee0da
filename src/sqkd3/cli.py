"""Command-line surface: sweep the key rate over noise, locate thresholds,
run the Monte Carlo simulator, and run the self-check suite.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

import numpy as np

from . import verify
from .attack import CONVENTIONS, Q_MAX, ChannelScenario, pauli_twirl_attack
from .keyrate import find_threshold, key_rate, key_rate_curve
from .sim import max_deviation_sigma, run_protocol
from .stats import stat_table_from_attack

#: Library values of the CLI spellings of --model, --p-mode and --weighting.
_MODEL = {"dep": "dependent", "indep": "independent"}
_PMODE = {"printed": "as-printed", "corrected": "corrected"}
_WEIGHT = {"printed": "as-printed", "normalized": "normalized"}

SWEEP_COLUMNS = ["Q", "r", "t1", "t2", "t3", "t4", "X", "p_lower",
                 "lambda1", "lambda2", "S_BEC", "S_EC_upper", "H_B_given_A"]


def _add_convention_flags(p: argparse.ArgumentParser):
    p.add_argument("--variant", choices=CONVENTIONS["variant"], default="phi1")
    p.add_argument("--model", choices=_MODEL, default="dep")
    p.add_argument("--p-mode", choices=_PMODE, default="printed")
    p.add_argument("--weighting", choices=_WEIGHT, default="printed")
    p.add_argument("--basis-convention",
                   choices=CONVENTIONS["basis_noise_convention"],
                   default="per-pair")


def _conventions(args) -> dict:
    return dict(model=_MODEL[args.model], variant=args.variant,
                basis_noise_convention=args.basis_convention,
                joint_weighting=_WEIGHT[args.weighting], p_mode=_PMODE[args.p_mode])


def cmd_sweep(args) -> int:
    if not (0.0 <= args.q_min < args.q_max <= Q_MAX and args.steps >= 2):
        print("sweep needs 0 <= q-min < q-max <= 0.375 and steps >= 2",
              file=sys.stderr)
        return 2
    grid = np.linspace(args.q_min, args.q_max, args.steps)
    cols = key_rate_curve(grid, **_conventions(args))
    flat = np.column_stack([cols[name] for name in SWEEP_COLUMNS]).ravel().tolist()
    row_format = ",".join(["%.9g"] * len(SWEEP_COLUMNS)) + "\n"

    header = (f"# sqkd3 sweep variant={args.variant} model={_MODEL[args.model]}"
              f" p_mode={_PMODE[args.p_mode]} weighting={_WEIGHT[args.weighting]}"
              f" basis_convention={args.basis_convention}")
    # the whole body in one % call, one row_format per grid point
    text = (f"{header}\n{','.join(SWEEP_COLUMNS)}\n"
            + row_format * len(grid) % tuple(flat))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def cmd_threshold(args) -> int:
    thr = find_threshold(**_conventions(args))
    doc = {"variant": args.variant, "model": _MODEL[args.model],
           "convention": {"p_mode": _PMODE[args.p_mode],
                          "weighting": _WEIGHT[args.weighting],
                          "basis_convention": args.basis_convention}}
    if thr is None:
        doc["threshold"] = None
        doc["note"] = "no threshold <= 3/8"
    else:
        doc["threshold"] = thr
        doc["report_at_threshold"] = json.loads(
            key_rate(ChannelScenario(q=thr, **_conventions(args))).to_json())
    print(json.dumps(doc, indent=2))
    return 0


def cmd_simulate(args) -> int:
    if not (0.0 <= args.q <= Q_MAX and args.n >= 1 and args.seed >= 0):
        print("simulate needs 0 <= q <= 0.375, n >= 1 and seed >= 0",
              file=sys.stderr)
        return 2
    attack = pauli_twirl_attack(args.q, args.q)
    result = run_protocol(args.n, attack, args.variant, args.seed)
    table = stat_table_from_attack(attack, args.variant)
    doc = json.loads(result.to_json())
    doc["analytic_p"] = table.p.ravel().tolist()
    doc["analytic_basis_err"] = table.basis_err.tolist()
    doc["max_deviation_sigma"] = max_deviation_sigma(result, table)
    print(json.dumps(doc))
    return 0


def cmd_verify(_args) -> int:
    return 0 if verify.run_all() else 1


# argparse looks sys.stdout and sys.stderr up only when it writes, so one
# parser serves every call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqkd3",
        description="Key-rate analysis of the 3-dimensional semi-quantum "
                    "key distribution protocol")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="key rate over a noise grid, CSV output")
    _add_convention_flags(p)
    p.add_argument("--q-min", type=float, default=0.0)
    p.add_argument("--q-max", type=float, default=0.25)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("threshold", help="smallest noise with zero key rate")
    _add_convention_flags(p)
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("simulate", help="Monte Carlo rounds under the "
                                        "symmetric twirl attack")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--variant", choices=CONVENTIONS["variant"], default="phi1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.set_defaults(fn=cmd_verify)
    return parser


def _flush_stdout():
    # sys.stdout is None when the process was started with stdout closed
    if sys.stdout is not None:
        sys.stdout.flush()


def _report_io_error(command: str, exc: OSError):
    """Best effort: stderr may be the broken stream itself."""
    if sys.stderr is None:
        return
    try:
        print(f"sqkd3 {command}: cannot write output: {exc}", file=sys.stderr)
    except OSError:
        pass


def _discard_pending_stdout():
    """Point stdout at devnull if it still cannot take what it holds, so
    that the interpreter's flush at exit does not fail a second time."""
    try:
        _flush_stdout()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if sys.stdout is None and getattr(args, "out", "-") == "-":
            raise OSError(errno.EBADF, "standard output is closed")
        code = args.fn(args)
        _flush_stdout()
    except OSError as exc:
        _report_io_error(args.command, exc)
        _discard_pending_stdout()
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
