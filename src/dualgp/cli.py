"""Command line harness: run, slice, sweep, validate.

Exit codes: 0 on success, 1 on a bad config or bad arguments, 2 when an
episode aborts early (plant divergence or a singular GP update). Logs go
to stderr at a level picked by the DUALGP_LOG environment variable
(quiet, info, debug); data goes to CSV files.
"""

import argparse
import json
import logging
import os
import sys

from .config import ConfigError, load_config, resolve_config
from .harness import (
    compute_slice,
    run_scenario,
    run_sweep,
    write_slice_csv,
    write_sweep_csv,
    write_trace_csv,
)

log = logging.getLogger("dualgp")

_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    wanted = os.environ.get("DUALGP_LOG", "info").strip().lower()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(_LEVELS.get(wanted, logging.INFO))
    if wanted not in _LEVELS:
        log.warning("DUALGP_LOG=%r not recognized, using 'info'", wanted)


def _print_summary(summary: dict):
    print(f"final_tracking_error={summary['final_tracking_error']:.6g}")
    print(f"steps_to_within_10pct={summary['steps_to_within_10pct']}")
    print(f"mean_tracking_error_first_half={summary['mean_tracking_error_first_half']:.6g}")
    print(f"mean_tracking_error_second_half={summary['mean_tracking_error_second_half']:.6g}")


def _cmd_run(args, cfg) -> int:
    result = run_scenario(cfg)
    write_trace_csv(args.out, result.records)
    _print_summary(result.summary)
    if result.aborted:
        print(f"aborted: {result.aborted}", file=sys.stderr)
        return 2
    return 0


def _cmd_slice(args, cfg) -> int:
    result, rows = compute_slice(cfg, args.at_u, args.coord, args.min, args.max, args.n)
    if result.aborted:
        print(f"aborted: {result.aborted}", file=sys.stderr)
        return 2
    write_slice_csv(args.out, rows)
    return 0


def _cmd_sweep(args, cfg) -> int:
    rows = run_sweep(cfg, args.seeds)
    write_sweep_csv(args.out, rows)
    fraction = sum(r[3] for r in rows) / len(rows)
    print(f"success_fraction={fraction:.6g} ({sum(r[3] for r in rows)}/{len(rows)})")
    return 0


def _cmd_validate(args, cfg) -> int:
    print(json.dumps(cfg, indent=2, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as a bad config does; exit 2 is kept for an aborted episode."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # sub-parsers are built of the parent's class, so they exit 1 as well
    parser = _Parser(
        prog="dualgp",
        description="GP-based dual control experiments: run episodes, export traces and GP slices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one episode, write the per-step trace CSV")
    p_run.add_argument("config", help="scenario config (JSON)")
    p_run.add_argument("--out", default="trace.csv", help="trace CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_slice = sub.add_parser(
        "slice", help="rerun an episode, export the learned map along one observation axis"
    )
    p_slice.add_argument("config", help="scenario config (JSON)")
    p_slice.add_argument("--at-u", dest="at_u", type=float, required=True,
                         help="control value the slice is taken at")
    p_slice.add_argument("--coord", type=int, default=0,
                         help="observation coordinate to sweep (default 0)")
    p_slice.add_argument("--min", type=float, required=True, help="sweep start")
    p_slice.add_argument("--max", type=float, required=True, help="sweep end")
    p_slice.add_argument("--n", type=int, required=True, help="number of grid points (>= 2)")
    p_slice.add_argument("--out", default="slice.csv", help="slice CSV path")
    p_slice.set_defaults(func=_cmd_slice)

    p_sweep = sub.add_parser("sweep", help="run seeds 0..N-1, write the per-seed summary CSV")
    p_sweep.add_argument("config", help="scenario config (JSON)")
    p_sweep.add_argument("--seeds", type=int, required=True, help="number of seeds (>= 1)")
    p_sweep.add_argument("--out", default="summary.csv", help="summary CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="check a config and print it fully resolved")
    p_val.add_argument("config", help="scenario config (JSON)")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, resolve_config(load_config(args.config)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
