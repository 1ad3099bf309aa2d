"""Command-line experiment runner.

    cavitysim run <config-file> [--workers N] [--output-dir DIR]
    cavitysim validate <config-file>
    cavitysim scenarios

A config file is TOML (see cavitysim.config).  Its errors are all listed,
except that a TOML syntax error stops the parse and is reported alone.

Exit codes: 0 success, 1 configuration or usage error, including a summary
fit that fails (`validate` too propagates the runs the summary fits, and
fits them), 2 runtime/tolerance failure.
The default output root is ./runs, overridable with $CAVITYSIM_OUTPUT_ROOT.
"""

import argparse
import sys

from . import __version__
from .config import SCENARIOS, ConfigError, SummaryFitError, out_of_bounds, parse_config
from .dynamics import IntegrationError
from .runner import ENV_OUTPUT_ROOT, check_fits, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors, such as an unknown option, exit with the configuration
    error code rather than argparse's 2, which here means a failed run."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavitysim",
        description="Cavity QED entanglement scenarios: run, validate, list.",
    )
    parser.add_argument("--version", action="version", version=f"cavitysim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario from a config file")
    run_p.add_argument("config", help="path to the config file")
    run_p.add_argument("--workers", type=int, default=None, help="accepted and ignored")
    run_p.add_argument(
        "--output-dir", default=None,
        help=f"override the output directory (default: ${ENV_OUTPUT_ROOT}/<scenario>)",
    )

    val_p = sub.add_parser("validate", help="parse and validate a config file")
    val_p.add_argument("config", help="path to the config file")

    sub.add_parser("scenarios", help="list scenario presets")
    return parser


def _invalid(path: str, exc: ConfigError) -> int:
    print(f"error: invalid config {path}:", file=sys.stderr)
    for item in exc.errors:
        print(f"  {item}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "scenarios":
        for name, scenario in SCENARIOS.items():
            print(f"{name:20s} {scenario.note}")
        return EXIT_OK

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        return _invalid(args.config, exc)

    if args.command == "run" and args.workers is not None and (
            bound := out_of_bounds(("workers",), args.workers)):
        print(f"error: --workers {bound}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "validate":
            check_fits(cfg)
            print(f"OK: {cfg.scenario} (design {cfg.design})")
            return EXIT_OK
        report = run_scenario(cfg, output_dir=args.output_dir)
    except SummaryFitError as exc:
        return _invalid(args.config, exc.config_error(cfg, text))
    except (IntegrationError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(f"wrote {len(report.trajectory_files)} trajectories to {report.output_dir}")
    for key in sorted(report.summary):
        print(f"  {key} = {report.summary[key]:.6g}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
