"""Command-line interface.

Subcommands mirror the run modes; a config file and a named preset can
be combined, with explicit config keys taking precedence over preset
values and command-line flags over both.

Exit codes: 0 success, 2 configuration error, 4 I/O error.

``main`` also pins glibc's allocator thresholds, once per process (see
``_pin_allocator``).  Importing the package changes nothing.
"""

import argparse
import ctypes
import functools
import sys
from pathlib import Path

from .config import PRESET_NAMES, ExperimentConfig, build_config, read_raw_config
from .errors import ConfigurationError
from .runner import run, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 4


@functools.cache
def _pin_allocator() -> None:
    """Serve blocks under 32 MiB from the heap, and keep them there when freed.

    By default glibc serves blocks of 128 KiB and more with a fresh
    ``mmap`` and unmaps them on free, raising that threshold only after
    a larger block is freed.  numpy's FFT takes scratch of that size on
    every call (512 KiB for two rows of 16384 samples), and a run that
    frees no larger block would fault those pages in anew on every call,
    at about twice the time of a warm one.  Setting both thresholds
    fixes them, and glibc keeps such blocks mapped for reuse.  Without
    glibc's ``mallopt`` (another platform or C library) this does
    nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, from glibc's malloc.h
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="path to a JSON config file")
    parser.add_argument("--preset", choices=PRESET_NAMES, default=None,
                        help="named experiment preset")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: ./results)")
    parser.add_argument("--workers", type=int, default=None,
                        help="max concurrent sweep points")
    parser.add_argument("--compensate-loss", type=_parse_bool, default=None,
                        metavar="BOOL",
                        help="rescale pulse j by loss^-(j-0.5) in peak outputs")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grover-optics",
        description="Fourier-optics simulation of an optical Grover search",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "run": "single experiment in the mode set by the config (default: search)",
        "sweep": "Cartesian sweep over the config's sweep axes",
        "pulse-train": "slit-integrated pulse energies",
        "reference": "discrete amplitude-amplification model",
    }
    for name, help_text in descriptions.items():
        _add_common_arguments(subparsers.add_parser(name, help=help_text))
    return parser


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = read_raw_config(args.config) if args.config is not None else {}
    if args.preset is not None:
        raw["preset"] = args.preset
    if args.command in ("pulse-train", "reference"):
        raw["mode"] = args.command
    if args.workers is not None:
        raw["workers"] = args.workers
    if args.compensate_loss is not None:
        raw["compensate_loss"] = args.compensate_loss
    return build_config(raw)


def _resolve_out_dir(args: argparse.Namespace, cfg: ExperimentConfig) -> Path:
    if args.out is not None:
        return args.out
    if cfg.output_dir is not None:
        return Path(cfg.output_dir)
    return Path("results")


def main(argv: list[str] | None = None) -> int:
    _pin_allocator()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_info:
        return int(exit_info.code or 0)

    try:
        cfg = _assemble_config(args)
        out_dir = _resolve_out_dir(args, cfg)
        if args.command == "sweep":
            summary = sweep(cfg, out_dir)
        else:
            summary = run(cfg, out_dir)
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO

    for line in _headline(summary):
        print(line)
    print(f"wrote {Path(out_dir) / 'summary.json'}"
          if "points" not in summary
          else f"wrote {Path(out_dir) / 'sweep.csv'}")
    return EXIT_OK


def _g(value: float | None) -> str:
    """A summary number for the headline; a null one reads 'unavailable'."""
    return "unavailable" if value is None else f"{value:g}"


def _headline(summary: dict) -> list[str]:
    lines = []
    mode = summary.get("mode")
    if "n_points" in summary:  # a sweep's aggregate, which carries its mode too
        lines.append(f"swept {summary['n_points']} points")
    elif mode in ("search", "analyze") and summary.get("first_maximum") is not None:
        lines.append(
            f"first maximum at iteration {summary['first_maximum']:g} "
            f"-> N/m estimate {_g(summary['estimate_nm'])} "
            f"(geometric {summary['expected_nm']:g})"
        )
    elif mode == "reference":
        lines.append(
            f"max success probability {summary['max_success_probability']:g} "
            f"at iteration {summary['argmax_iteration']} "
            f"(optimum {_g(summary['optimal_iterations'])})"
        )
    elif mode == "pulse-train":
        ratios = summary.get("consecutive_energy_ratios", [])
        if ratios and ratios[0] is not None:
            lines.append(f"first consecutive energy ratio {ratios[0]:g}")
    return lines


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
