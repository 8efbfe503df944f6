"""Command-line entry point.

Subcommands: simulate, local-error, kernel-error, conservation,
symplectic.  All take --config <path> (key=value file), optional
--out <path> and --seed <u64> (overrides the config seed).

Exit codes: 0 success, 1 usage or configuration error or an output file
that cannot be written, 2 experiment ran but its validity preconditions
failed (e.g. too many rejected steps).
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config
from .experiments import (
    ExperimentInvalidError,
    cmd_conservation,
    cmd_kernel_error,
    cmd_local_error,
    cmd_symplectic,
)
from .integrator import simulate
from .torus import write_snapshot


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snls",
        description="Stochastic cubic Schrödinger simulation and scheme diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "run a trajectory and write per-step diagnostics",
        "local-error": "strong one-step error against refined same-path references",
        "kernel-error": "interpolated-kernel error versus step size",
        "conservation": "mass and energy drift along a trajectory",
        "symplectic": "Jacobian symplecticity defect of one frozen-noise step",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    overrides = {} if args.seed is None else {"seed": args.seed}
    try:
        cfg = parse_config(args.config, overrides)
        out = args.out if args.out is not None else cfg.out
        if args.command == "simulate":
            record = simulate(cfg)
            if out:
                record.write_csv(out)
                write_snapshot(record.final_state, out + ".final")
            last = record.rows[-1]
            print(f"steps={cfg.n_steps} final_mass={last[2]:.12g} "
                  f"final_energy_h0={last[3]:.12g}")
        elif args.command == "local-error":
            table = cmd_local_error(cfg)
            if out:
                table.write_csv(out, header_lines=cfg.echo_lines())
            print(f"slope={table.slope:.4f} rows={len(table.rows)}")
        elif args.command == "kernel-error":
            table = cmd_kernel_error(cfg.kernel_d, seed=cfg.seed)
            if out:
                table.write_csv(out, header_lines=cfg.echo_lines())
            print(f"d={cfg.kernel_d} slope={table.slope:.4f}")
        elif args.command == "conservation":
            record, summary = cmd_conservation(cfg)
            if out:
                record.write_csv(out)
            print(f"mass_drift_rel={summary['mass_drift_rel']:.6e} "
                  f"energy_h0_drift={summary['energy_h0_drift']:.6e}")
        elif args.command == "symplectic":
            result = cmd_symplectic(cfg)
            if out:
                with open(out, "w") as fh:
                    for k, v in result.items():
                        fh.write(f"{k}={v:.17g}\n")
            print(f"defect={result['defect']:.6e} "
                  f"defect_half_h={result['defect_half_h']:.6e}")
    except ExperimentInvalidError as exc:
        print(f"experiment invalid: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
