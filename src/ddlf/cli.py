"""Command-line interface.

Subcommands: `simulate` (SNR list from a config file), `sweep` (axis sweep,
at each SNR of the list), `place-pilots` (dump a pilot/data mask) and
`ambiguity` (dump the pulse cross-ambiguity surface). Config files are flat
`key = value` text; `#` starts a comment. DDLF_THREADS caps trial
parallelism.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import warnings
from contextlib import contextmanager

import numpy as np

from . import gabor, harness, piloting


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes", "on"):
        return True
    if s.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_shape(s: str) -> tuple[int, int]:
    parts = s.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"expected MxN, got {s!r}")
    m, n = int(parts[0]), int(parts[1])
    if m < 1 or n < 1:
        raise ValueError(f"expected positive M and N, got {s!r}")
    return m, n


def _finite(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {s.strip()!r}")
    return value


def _positive(s: str) -> float:
    value = _finite(s)
    if value <= 0:
        raise ValueError(f"expected a positive number, got {s.strip()!r}")
    return value


def _auto_or_float(s: str) -> float | None:
    return None if s.lower() == "auto" else _finite(s)


def _positive_int(s: str) -> int:
    value = int(s)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {s.strip()!r}")
    return value


def _flag(parse):
    """parse as an argparse type: its ValueError becomes an ArgumentTypeError,
    so that argparse exits 2 with 'argument <flag>: <reason>'."""
    def parse_flag(s: str):
        try:
            return parse(s)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse_flag


def _show(v) -> str:
    if v is None:
        return "auto"
    if isinstance(v, tuple):
        return ",".join(map(_show, v))
    if isinstance(v, bool):
        return str(v).lower()
    return format(v, "g") if isinstance(v, float) else str(v)


def _parser(default):
    """A config field's value parser, from the type of its default."""
    if isinstance(default, tuple):
        def parse_list(s: str, parse_item=_parser(default[0])) -> tuple:
            items = [item.strip() for item in s.split(",")]
            if "" in items:
                raise ValueError(f"expected a comma list without empty items, got {s.strip()!r}")
            return tuple(map(parse_item, items))
        return parse_list
    if default is None:
        return _auto_or_float
    return {bool: _parse_bool, int: int, float: _finite, str: str}[type(default)]


def _config_keys() -> tuple:
    by_key: dict = {}  # the fields of each key, in field order; data-shape has two
    for f in dataclasses.fields(harness.ExperimentConfig):
        by_key.setdefault(f.metadata["key"] or f.name.replace("_", "-"), []).append(f)
    return tuple((key, tuple(f.name for f in fs), _parser(fs[0].default) if len(fs) == 1
                  else _parse_shape, fs[0].metadata["help"]) for key, fs in by_key.items())


# key (case-insensitive), ExperimentConfig field(s), value parser (a tuple for
# several fields), help; built from the ExperimentConfig fields
CONFIG_KEYS = _config_keys()
_BY_NAME = {k[0].lower(): k for k in CONFIG_KEYS}


def _apply_key(fields: dict, key: str, val: str) -> tuple:
    """Set the fields of a key from its value, and return their names."""
    if key.lower() not in _BY_NAME:
        raise ValueError(f"unknown config key {key!r}")
    _, names, parse, _ = _BY_NAME[key.lower()]
    value = parse(val)
    fields.update(zip(names, value if len(names) > 1 else (value,)))
    return names


def _read_config(path: str | None, overrides: dict | None = None) -> tuple[dict, dict]:
    """The fields of a flat key=value file plus overrides, and the file line
    that set each field the overrides leave."""
    fields: dict = {}
    lines: dict = {}
    if path:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, val = (part.strip() for part in line.split("=", 1))
                try:
                    lines.update(dict.fromkeys(_apply_key(fields, key, val), lineno))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    overrides = overrides or {}
    return {**fields, **overrides}, {f: n for f, n in lines.items() if f not in overrides}


def load_config(path: str | None, overrides: dict | None = None) -> harness.ExperimentConfig:
    """Build an ExperimentConfig from a flat key=value file plus overrides."""
    return harness.ExperimentConfig(**_read_config(path, overrides)[0])


@contextmanager
def _file_line(path: str | None, lines: dict):
    """Prefix a ValueError whose message starts with a list of config fields
    with path:line, the line that set the first listed field the file sets."""
    try:
        yield
    except ValueError as exc:
        named = str(exc).split(": ", 1)[0].split(", ")
        set_here = [lines[name] for name in named if name in lines]
        if set_here:
            raise ValueError(f"{path}:{set_here[0]}: {exc}") from exc
        raise


def _epilog() -> str:
    lines = ["config keys:"]
    for key, names, _, text in CONFIG_KEYS:
        shown = "x".join(_show(getattr(harness.ExperimentConfig, n)) for n in names)
        lines.append(f"{key:<17} {text:<52} (default {shown})")
    return "\n".join(lines)


PAPER_SCALE = {"m_data": 64, "n_data": 62, "pilots_per_row": 2,
               "bandwidth": 5.0e6, "scatterers": 58}


def _write(path: str, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def cmd_run(args) -> int:
    """Run the config of the file and flags as a sweep, and write its rows:
    over its own SNR list for simulate (harness.simulate), over --values on
    --axis for sweep."""
    # an OSError before any trial if --out cannot be written; an existing file
    # keeps its contents, and a file made only for this check is removed again
    existed = os.path.exists(args.out)
    open(args.out, "a").close()
    if not existed:
        os.remove(args.out)
    overrides = dict(PAPER_SCALE) if args.paper_scale else {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    fields, lines = _read_config(args.config, overrides)
    with _file_line(args.config, lines):
        cfg = harness.ExperimentConfig(**fields)
    axis, values = "snr", cfg.snr_db
    if args.command == "sweep":
        with harness._config_key("--values"):
            axis, values = args.axis, _parser((0.0,))(args.values)
    # a bad value leads its error with the axis; a config it makes, with its keys
    with harness._renamed({axis: f"--values: {axis}"}):
        configs = harness.sweep_configs(cfg, axis, values)
    # a field that the axis sets comes from --values, not from the file
    lines = {f: n for f, n in lines.items()
             if all(getattr(c, f) == getattr(cfg, f) for c in configs)}
    with _file_line(args.config, lines):
        rows = harness.run_sweep(cfg, axis, values)
    _write(args.out, harness.rows_to_csv(rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_place_pilots(args) -> int:
    with harness._config_key("--pilots-per-row"):
        pl = piloting.accordion_placement(*args.data_shape, args.pilots_per_row)
    indices = {"pilot": pl.pilot_array_indices(), "data": pl.data_array_indices()}
    # every cell with its kind and its place among the cells of that kind, row-major
    cells = sorted((m, n, kind, i) for kind, (rows, cols) in indices.items()
                   for i, (m, n) in enumerate(zip(rows.tolist(), cols.tolist())))
    _write(args.out, harness.to_csv(("m", "n", "kind", "order"), cells))
    print(f"{pl.M}x{pl.N} frame, {pl.P} pilots -> {args.out}")
    return 0


def cmd_ambiguity(args) -> int:
    """Write A(tau, nu) of the tight pulse on a raster in seconds and hertz:
    --tau-span and --nu-span time steps T = a/bandwidth and frequency steps
    F = b*bandwidth/L either side of 0, converted to samples and cycles per
    sample for gabor.cross_ambiguity."""
    with harness._config_key("--frame, --tf-product"):
        grid = gabor.make_grid(*args.frame, args.tf_product)
    with harness._config_key("--spread"):
        pulse = gabor.tight_orthogonalize(gabor.gaussian_prototype(grid, args.spread), grid)
    T, F = grid.time_shift / args.bandwidth, grid.freq_shift * args.bandwidth / grid.L
    with np.errstate(invalid="ignore"):  # cross_ambiguity refuses a span that overflows
        taus = np.linspace(-args.tau_span * T, args.tau_span * T, args.steps)
        nus = np.linspace(-args.nu_span * F, args.nu_span * F, args.steps)
    with harness._renamed({"tau": "--tau-span", "nu": "--nu-span"}):
        raster = gabor.cross_ambiguity(pulse, pulse, taus * args.bandwidth,
                                       nus / args.bandwidth, grid)
    cells = [(tau, nu, abs(a), a.real, a.imag)
             for tau, row in zip(taus, raster) for nu, a in zip(nus, row.tolist())]
    _write(args.out, harness.to_csv(("tau_s", "nu_hz", "abs", "re", "im"), cells))
    print(f"{args.steps}x{args.steps} ambiguity raster -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddlf",
        description="Link-level simulator for pulse-shaped multicarrier systems "
                    "over doubly-dispersive channels",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags simulate and sweep share; each declares its own --out, because a
    # parent's actions are shared, so one child's set_defaults(out=...) would
    # change the other's default
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--seed", type=int, help="override the master seed")
    run.add_argument("--paper-scale", action="store_true",
                     help="64x64 frame, 5 MHz, 58 paths")
    run.set_defaults(func=cmd_run)

    sim = sub.add_parser("simulate", parents=[run], help="run the SNR points from a config file")
    sim.add_argument("--out", default="results.csv")

    sw = sub.add_parser("sweep", parents=[run], help="sweep snr, velocity or pilots")
    sw.add_argument("--axis", choices=("snr", "velocity", "pilots"), required=True)
    sw.add_argument("--values", required=True, help="comma-separated axis values")
    sw.add_argument("--out", default="sweep.csv")

    pp = sub.add_parser("place-pilots", help="dump a pilot placement mask")
    pp.add_argument("--data-shape", type=_flag(_parse_shape), required=True,
                    help="M'xN', e.g. 64x64")
    pp.add_argument("--pilots-per-row", type=int, required=True)
    pp.add_argument("--out", default="pilots.csv")
    pp.set_defaults(func=cmd_place_pilots)

    amb = sub.add_parser("ambiguity", help="dump A(tau, nu) on a delay x Doppler raster")
    amb.add_argument("--frame", type=_flag(_parse_shape), default="16x16", help="grid MxN")
    defaults = harness.ExperimentConfig
    amb.add_argument("--tf-product", type=_flag(_finite), default=defaults.tf_product)
    amb.add_argument("--bandwidth", type=_flag(_positive), default=defaults.bandwidth)
    amb.add_argument("--spread", type=_flag(_finite), default=defaults.pulse_spread)
    amb.add_argument("--tau-span", type=_flag(_finite), default=2.0,
                     help="raster half-width in T")
    amb.add_argument("--nu-span", type=_flag(_finite), default=2.0,
                     help="raster half-width in F")
    amb.add_argument("--steps", type=_flag(_positive_int), default=33,
                     help="raster points per axis")
    amb.add_argument("--out", default="ambiguity.csv")
    amb.set_defaults(func=cmd_ambiguity)
    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as the command line shows it: its text, without the source
    line of the package that raised it."""
    return f"ddlf: warning: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"ddlf: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
