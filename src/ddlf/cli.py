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
import sys

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
    return int(parts[0]), int(parts[1])


def _auto_or_float(s: str) -> float | None:
    return None if s.lower() == "auto" else float(s)


def _show(v) -> str:
    if isinstance(v, tuple):
        return ",".join(map(_show, v))
    if isinstance(v, bool):
        return str(v).lower()
    return format(v, "g") if isinstance(v, float) else str(v)


# key (case-insensitive), ExperimentConfig field(s), value parser (a tuple for
# several fields), help; defaults come from the ExperimentConfig fields
CONFIG_KEYS = (
    ("data-shape", ("m_data", "n_data"), _parse_shape, "M'xN' data frame, e.g. 16x15"),
    ("pilots-per-row", ("pilots_per_row",), int, "pilots inserted per frame row; 0 = no pilots"),
    ("tf-product", ("tf_product",), float, "grid T*F product"),
    ("bandwidth", ("bandwidth",), float, "sampled bandwidth in Hz"),
    ("pulse-spread", ("pulse_spread",), float, "Gaussian prototype width factor"),
    ("precoder", ("precoder",), str, "none|dsft2d|fft1d|fft2d|fwht1d|fwht2d|random"),
    ("subframes", ("subframes",), int, "1|2|4|8 independent time blocks"),
    ("precoder-seed", ("precoder_seed",), int, "seed for the random precoder"),
    ("scatterers", ("scatterers",), int, "channel path count"),
    ("tau-max", ("tau_max",), _auto_or_float, "delay spread in seconds, or auto"),
    ("nu-max", ("nu_max",), _auto_or_float, "Doppler spread in Hz, or auto"),
    ("velocity", ("velocity",), float, "relative speed in km/h (overrides nu-max)"),
    ("power-profile", ("power_profile",), _auto_or_float,
     "exponential delay-decay rate 1/s, or auto"),
    ("fractional", ("fractional",), _parse_bool, "true|false off-grid channel shifts"),
    ("estimator", ("estimators",),
     lambda s: tuple(e.strip() for e in s.split(",") if e.strip()),
     "comma list: lmmse,srh,srh-na,srh-ma,srh-mna,perfect"),
    ("omega", ("omega",), _auto_or_float, "SRH fidelity weight, or auto (1/P)"),
    ("Q", ("recon_q",), int, "LMMSE reconstruction-grid Doppler extent"),
    ("W", ("recon_w",), int, "LMMSE reconstruction-grid delay guard"),
    ("Wn", ("recon_wn",), int, "LMMSE reconstruction-grid delay extent"),
    ("sigma-z2", ("sigma_z2",), lambda s: "auto" if s.lower() == "auto" else float(s),
     "self-interference power, or auto"),
    ("snr", ("snr_db",), lambda s: tuple(float(v) for v in s.split(",")),
     "comma list of SNR points in dB"),
    ("trials", ("trials",), int, "Monte-Carlo trials per point"),
    ("seed", ("seed",), int, "master seed"),
    ("coding", ("coding",), _parse_bool, "true|false rate-1/3 convolutional"),
)
_BY_NAME = {k[0].lower(): k for k in CONFIG_KEYS}


def _apply_key(fields: dict, key: str, val: str):
    if key.lower() not in _BY_NAME:
        raise ValueError(f"unknown config key {key!r}")
    _, names, parse, _ = _BY_NAME[key.lower()]
    value = parse(val)
    fields.update(zip(names, value if len(names) > 1 else (value,)))


def load_config(path: str | None, overrides: dict | None = None) -> harness.ExperimentConfig:
    """Build an ExperimentConfig from a flat key=value file plus overrides."""
    fields: dict = {}
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
                    _apply_key(fields, key, val)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    if overrides:
        fields.update(overrides)
    return harness.ExperimentConfig(**fields)


def _epilog() -> str:
    defaults = {f.name: f.default for f in dataclasses.fields(harness.ExperimentConfig)}
    lines = ["config keys:"]
    for key, names, parse, text in CONFIG_KEYS:
        values = [defaults[n] for n in names]
        if values == [None]:
            shown = "auto" if parse is _auto_or_float else "unset"
        else:
            shown = "x".join(map(_show, values))
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
    cfg = load_config(args.config, _common_overrides(args))
    rows = harness.simulate(cfg)
    harness.write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, _common_overrides(args))
    values = [float(v) for v in args.values.split(",")]
    rows = harness.run_sweep(cfg, args.axis, values)
    harness.write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_place_pilots(args) -> int:
    m_data, n_data = _parse_shape(args.data_shape)
    pl = piloting.accordion_placement(m_data, n_data, args.pilots_per_row)
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
    M, N = _parse_shape(args.frame)
    grid = gabor.make_grid(M, N, args.tf_product, args.bandwidth)
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
    pp.add_argument("--data-shape", required=True, help="M'xN', e.g. 64x64")
    pp.add_argument("--pilots-per-row", type=int, required=True)
    pp.add_argument("--out", default="pilots.csv")
    pp.set_defaults(func=cmd_place_pilots)

    amb = sub.add_parser("ambiguity", help="dump |A(tau, nu)| over a raster")
    amb.add_argument("--frame", default="16x16", help="grid MxN")
    amb.add_argument("--tf-product", type=float, default=1.25)
    amb.add_argument("--bandwidth", type=float, default=5.0e6)
    amb.add_argument("--spread", type=float, default=1.0)
    amb.add_argument("--tau-span", type=float, default=2.0, help="raster half-width in T")
    amb.add_argument("--nu-span", type=float, default=2.0, help="raster half-width in F")
    amb.add_argument("--steps", type=int, default=33)
    amb.add_argument("--out", default="ambiguity.csv")
    amb.set_defaults(func=cmd_ambiguity)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
