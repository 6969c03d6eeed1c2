"""Command-line interface.

Subcommands: `simulate` (SNR list from a config file), `sweep` (axis sweep),
`place-pilots` (dump a pilot/data mask) and `ambiguity` (dump the pulse
cross-ambiguity surface). Config files are flat `key = value` text; `#`
starts a comment. DDLF_THREADS caps trial parallelism.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
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


def _common_overrides(args) -> dict:
    overrides: dict = {}
    if getattr(args, "paper_scale", False):
        overrides.update(PAPER_SCALE)
    if args.seed is not None:
        overrides["seed"] = args.seed
    return overrides


def cmd_simulate(args) -> int:
    fields, lines = _read_config(args.config, _common_overrides(args))
    with _file_line(args.config, lines):
        rows = harness.simulate(harness.ExperimentConfig(**fields))
    harness.write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    fields, lines = _read_config(args.config, _common_overrides(args))
    with _file_line(args.config, lines):
        cfg = harness.ExperimentConfig(**fields)
    try:  # name the flag, as a config error names its key
        values = [_finite(v) for v in args.values.split(",")]
        points = harness.sweep_points(cfg, args.axis, values)
    except ValueError as exc:
        raise ValueError(f"--values: {exc}") from None
    # a field that the axis sets comes from --values, not from the file
    lines = {f: n for f, n in lines.items()
             if all(getattr(c, f) == getattr(cfg, f) for c, _ in points)}
    with _file_line(args.config, lines):
        rows = harness.run_sweep(cfg, args.axis, values)
    harness.write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_place_pilots(args) -> int:
    pl = piloting.accordion_placement(*args.data_shape, args.pilots_per_row)
    pilot_order = {cell: s for s, cell in enumerate(pl.pilot_indices)}
    data_order = {cell: i for i, cell in enumerate(pl.data_indices)}
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["m", "n", "kind", "order"])
        for m in range(pl.M):
            for n in range(pl.N):
                if (m, n) in pilot_order:
                    writer.writerow([m, n, "pilot", pilot_order[(m, n)]])
                else:
                    writer.writerow([m, n, "data", data_order[(m, n)]])
    print(f"{pl.M}x{pl.N} frame, {pl.P} pilots -> {args.out}")
    return 0


def cmd_ambiguity(args) -> int:
    grid = gabor.make_grid(*args.frame, args.tf_product, args.bandwidth)
    pulse = gabor.tight_orthogonalize(gabor.gaussian_prototype(grid, args.spread), grid)
    taus = np.linspace(-args.tau_span * grid.T, args.tau_span * grid.T, args.steps)
    nus = np.linspace(-args.nu_span * grid.F, args.nu_span * grid.F, args.steps)
    raster = gabor.cross_ambiguity(pulse, pulse, taus[:, None], nus[None, :], grid)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["tau_s", "nu_hz", "abs", "re", "im"])
        for tau, row in zip(taus, raster):
            for nu, a in zip(nus, row.tolist()):
                writer.writerow([format(tau, ".12g"), format(nu, ".12g"),
                                 format(abs(a), ".12g"), format(a.real, ".12g"),
                                 format(a.imag, ".12g")])
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

    sim = sub.add_parser("simulate", help="run the SNR points from a config file")
    sim.add_argument("--config", help="key = value config file")
    sim.add_argument("--out", default="results.csv")
    sim.add_argument("--seed", type=int, help="override the master seed")
    sim.add_argument("--paper-scale", action="store_true",
                     help="64x64 frame, 5 MHz, 58 paths")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="sweep snr, velocity or pilots")
    sw.add_argument("--config", help="key = value config file")
    sw.add_argument("--axis", choices=("snr", "velocity", "pilots"), required=True)
    sw.add_argument("--values", required=True, help="comma-separated axis values")
    sw.add_argument("--out", default="sweep.csv")
    sw.add_argument("--seed", type=int, help="override the master seed")
    sw.add_argument("--paper-scale", action="store_true")
    sw.set_defaults(func=cmd_sweep)

    pp = sub.add_parser("place-pilots", help="dump a pilot placement mask")
    pp.add_argument("--data-shape", type=_flag(_parse_shape), required=True,
                    help="M'xN', e.g. 64x64")
    pp.add_argument("--pilots-per-row", type=int, required=True)
    pp.add_argument("--out", default="pilots.csv")
    pp.set_defaults(func=cmd_place_pilots)

    amb = sub.add_parser("ambiguity", help="dump |A(tau, nu)| over a raster")
    amb.add_argument("--frame", type=_flag(_parse_shape), default="16x16", help="grid MxN")
    defaults = harness.ExperimentConfig
    amb.add_argument("--tf-product", type=_flag(_finite), default=defaults.tf_product)
    amb.add_argument("--bandwidth", type=_flag(_finite), default=defaults.bandwidth)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"ddlf: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
