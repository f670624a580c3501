"""Command-line experiment runner.

Subcommands reproduce the five experiment families as plot-ready CSV files:
power-relations, rcn-power, rcn-stats, ser, and allocate. Every run writes a
JSON manifest (resolved configuration, seed, version, output paths) next to
its outputs so results can be reproduced bit-exactly.

Configuration precedence: command-line flags > --config JSON file > defaults.
The default output directory can be set with the OOFDM_OUT environment
variable.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .allocate import allocate
from .channel import (ChannelProfile, ExperimentConfig, measure_power_relations,
                      measure_rcn_power, post_eq_noise, rcn_statistics,
                      run_point, run_ser_experiment)
from .modems import layer_index, layer_kinds, power_relations
from .multilayer import SchemeConfig, layer_frames, receive, transmit
from .rcn import worst_case_noise
from .ser import evaluate_ser


def _parse_grid(text):
    """Parse '0,2,4' or 'start:stop:step' into a nonempty list of finite floats."""
    values = [float(p) for p in text.split(":" if ":" in text else ",")]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"grid {text!r} holds a non-finite value")
    if ":" in text:
        start, stop, step = values
        if not step > 0:
            raise ValueError(f"grid step must be positive, got {step:g}")
        values = list(np.arange(start, stop + step / 2, step))
    if not values:
        raise ValueError(f"grid {text!r} is empty")
    return values


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("OOFDM_OUT", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _channel(args) -> ChannelProfile:
    if args.channel:
        return ChannelProfile.from_csv(args.channel, args.n)
    if args.selective:
        return ChannelProfile.exponential(args.n)
    return ChannelProfile.flat(args.n)


def _experiment(args, scheme: str, gammas, effective: bool) -> ExperimentConfig:
    return ExperimentConfig(scheme=scheme, n=args.n, M=args.m, gammas=tuple(gammas),
                            gamma_effective=effective, frames=args.runs,
                            seed=args.seed, channel=_channel(args))


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_manifest(out_dir: Path, subcommand: str, config: dict, outputs):
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "version": __version__,
        "outputs": [str(p) for p in outputs],
    }
    path = out_dir / f"{subcommand}_manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
    return path


def cmd_power_relations(args):
    layers = len(layer_kinds(args.scheme, args.n, args.layers))
    triple = power_relations(args.scheme, args.peff, layers)
    print(f"scheme={args.scheme} P_eff={args.peff:g}")
    print(f"closed form: P_elec={triple.p_elec:.6g} P_opt={triple.p_opt:.6g}")
    if args.validate:
        mc = measure_power_relations(args.scheme, args.peff, n=args.n, M=args.m,
                                     frames=args.validate, seed=args.seed,
                                     layers=layers)
        rel_e = abs(mc["p_elec"] - triple.p_elec) / triple.p_elec
        rel_o = abs(mc["p_opt"] - triple.p_opt) / triple.p_opt
        print(f"monte carlo ({args.validate} frames): P_elec={mc['p_elec']:.6g} "
              f"({rel_e:.2%}) P_opt={mc['p_opt']:.6g} ({rel_o:.2%})")
    return 0


def cmd_rcn_power(args):
    out_dir = _out_dir(args)
    cfg = _experiment(args, "laco", _parse_grid(args.gammas_eff), effective=True)
    p_v = cfg.channel.bin_noise_power()
    rows = []
    for meas in measure_rcn_power(cfg):
        scheme_cfg = cfg.scheme_config(meas["gamma"])
        estimates = {r: worst_case_noise(scheme_cfg, p_v, r).delta_powers for r in (1, 2, 3)}
        for t in range(len(meas["delta_power"])):
            rows.append([meas["gamma"], t + 1, meas["delta_power"][t],
                         estimates[1][t], estimates[2][t], estimates[3][t],
                         meas["err_power"][t]])
    path = out_dir / "rcn_power.csv"
    _write_csv(path, ["gamma_eff_db", "layer", "measured_delta_power",
                      "estimated_1rim", "estimated_2rims", "estimated_3rims",
                      "err_power"], rows)
    manifest = _write_manifest(out_dir, "rcn-power", vars(args), [path])
    print(f"wrote {path} and {manifest}")
    return 0


def cmd_ser(args):
    out_dir = _out_dir(args)
    gammas = _parse_grid(args.gammas)
    rows = []
    outputs = []
    for scheme in args.schemes.split(","):
        cfg = _experiment(args, scheme.strip().lower(), gammas, effective=False)
        p_v = cfg.channel.bin_noise_power()
        for gamma, point in zip(gammas, run_ser_experiment(cfg)):
            scheme_cfg = cfg.scheme_config(gamma)
            aware = evaluate_ser(scheme_cfg, p_v, "rcn_aware", args.rims).overall
            unaware = evaluate_ser(scheme_cfg, p_v, "rcn_unaware", args.rims).overall
            rows.append([gamma, cfg.scheme, point["ser"], point["stderr"], aware, unaware])
        if args.dump_frames:
            outputs.append(_dump_frame(out_dir, cfg, gammas[0]))
    path = out_dir / "ser.csv"
    _write_csv(path, ["gamma_db", "scheme", "simulated", "stderr",
                      "rcn_aware", "rcn_unaware"], rows)
    outputs.append(path)
    manifest = _write_manifest(out_dir, "ser", vars(args), outputs)
    print(f"wrote {path} and {manifest}")
    return 0


def _dump_frame(out_dir: Path, cfg: ExperimentConfig, gamma: float) -> Path:
    """Debug dump of a single frame: time index, transmitted and received
    signals, and the per-layer frames remodulated from the decisions."""
    scheme_cfg = cfg.scheme_config(gamma)
    rng = np.random.default_rng(cfg.seed)
    tx = transmit(scheme_cfg, rng, 1)
    y = tx.x + post_eq_noise(cfg.profile(), rng, 1)
    s_hat, _ = layer_frames(scheme_cfg, receive(y, scheme_cfg), tx.bias)
    header = ["n", "x", "y"] + [f"s_hat_{j + 1}" for j in range(len(s_hat))]
    rows = [[i, tx.x[0, i], y[0, i]] + [sh[0, i] for sh in s_hat] for i in range(scheme_cfg.n)]
    path = out_dir / f"frame_{cfg.scheme}.csv"
    _write_csv(path, header, rows)
    return path


def cmd_rcn_stats(args):
    out_dir = _out_dir(args)
    cfg = _experiment(args, "laco", _parse_grid(args.gammas_eff), effective=True)
    cov_rows, cdf_rows = [], []
    for res in rcn_statistics(cfg, args.bin):
        t_count = res["rho"].shape[0]
        for t1 in range(t_count):
            for t2 in range(t_count):
                cov_rows.append([res["gamma"], t1 + 1, t2 + 1, abs(res["rho"][t1, t2])])
            ks_re, ks_im = res["ks"][t1]
            for part, samples, ks in (("re", res["normalized_re"][t1], ks_re),
                                      ("im", res["normalized_im"][t1], ks_im)):
                qs = np.quantile(samples, np.linspace(0.01, 0.99, 99))
                cdf_rows.append([res["gamma"], t1 + 1, part, ks] + list(qs))
    cov_path = out_dir / "rcn_covariance.csv"
    _write_csv(cov_path, ["gamma_eff_db", "t1", "t2", "abs_rho"], cov_rows)
    cdf_path = out_dir / "rcn_cdf.csv"
    _write_csv(cdf_path, ["gamma_eff_db", "layer", "part", "ks_distance"]
               + [f"q{p:02d}" for p in range(1, 100)], cdf_rows)
    manifest = _write_manifest(out_dir, "rcn-stats", vars(args), [cov_path, cdf_path])
    print(f"wrote {cov_path}, {cdf_path} and {manifest}")
    return 0


def cmd_allocate(args):
    out_dir = _out_dir(args)
    channel = _channel(args)
    p_v = channel.bin_noise_power()
    outputs = []
    summary = []
    for gamma_eff in _parse_grid(args.gammas_eff):
        p_eff = 10.0 ** (gamma_eff / 10.0) * channel.noise_power
        for mode in ("rcn_aware", "rcn_unaware"):
            res = allocate(channel, p_eff, args.pe, mode=mode, rims=args.rims)
            rows = [[k, layer_index(int(k), args.n), res.bits[k],
                     res.powers[k], res.noise[k]] for k in res.loaded]
            path = out_dir / f"allocation_{mode}_{gamma_eff:g}dB.csv"
            _write_csv(path, ["k", "layer", "bits", "power", "noise"], rows)
            outputs.append(path)
            entry = {"gamma_eff_db": gamma_eff, "mode": mode,
                     "iterations": res.iterations, "converged": res.converged,
                     "total_bits": res.total_bits,
                     "loaded_subcarriers": int(len(res.loaded))}
            if args.validate_runs:
                scheme_cfg = SchemeConfig.from_allocation(args.n, res.bits, res.powers)
                point = run_point(scheme_cfg, channel, args.validate_runs, args.seed)
                entry["simulated_ser"] = point["ser"]
                pred = evaluate_ser(scheme_cfg, p_v, "rcn_aware", args.rims)
                entry["predicted_ser"] = pred.overall
            summary.append(entry)
    summary_path = out_dir / "allocation_summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    outputs.append(summary_path)
    manifest = _write_manifest(out_dir, "allocate", vars(args), outputs)
    print(f"wrote {summary_path} and {manifest}")
    return 0


def _add_common(p, *groups):
    """--seed, --n and --config, plus the named groups: "runs", "rims", and
    "channel" (--channel, --selective and --out)."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1024, help="frame length")
    p.add_argument("--config", help="JSON file with defaults for any flag")
    if "runs" in groups:
        p.add_argument("--runs", type=int, default=10_000, help="Monte Carlo frames")
    if "rims" in groups:
        p.add_argument("--rims", type=int, default=3, choices=(1, 2, 3))
    if "channel" in groups:
        p.add_argument("--channel", help="channel profile CSV (k,|H|) or (k,ReH,ImH)")
        p.add_argument("--selective", action="store_true",
                       help="use the built-in exponential low-pass profile")
        p.add_argument("--out", help="output directory (default $OOFDM_OUT or .)")


def build_parser():
    ap = argparse.ArgumentParser(prog="oofdm",
                                 description="Multi-layer optical OFDM experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power-relations", help="closed-form power relations")
    p.add_argument("--scheme", required=True,
                   choices=("aco", "dco", "pam", "ado", "haco", "laco"))
    p.add_argument("--peff", type=float, default=1.0)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--validate", type=int, default=0, metavar="FRAMES")
    p.add_argument("--m", type=int, default=64)
    _add_common(p)
    p.set_defaults(func=cmd_power_relations)

    p = sub.add_parser("rcn-power", help="measured vs estimated clipping-noise power")
    p.add_argument("--gammas-eff", default="0,10,20")
    p.add_argument("--m", type=int, default=64)
    _add_common(p, "runs", "channel")
    p.set_defaults(func=cmd_rcn_power)

    p = sub.add_parser("ser", help="simulated and theoretical SER curves")
    p.add_argument("--schemes", default="laco,ado,haco")
    p.add_argument("--gammas", default="5:30:2.5")
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--dump-frames", action="store_true",
                   help="also dump one debug frame per scheme")
    _add_common(p, "runs", "rims", "channel")
    p.set_defaults(func=cmd_ser)

    p = sub.add_parser("rcn-stats", help="clipping-noise CDF and covariance")
    p.add_argument("--bin", type=int, default=256, help="probe subcarrier")
    p.add_argument("--gammas-eff", default="0,20")
    p.add_argument("--m", type=int, default=64)
    _add_common(p, "runs", "channel")
    p.set_defaults(func=cmd_rcn_stats)

    p = sub.add_parser("allocate", help="SER-controlled bit/power allocation")
    p.add_argument("--gammas-eff", default="6,10,14,18,22,26")
    p.add_argument("--pe", type=float, default=1e-2, help="target symbol error rate")
    p.add_argument("--validate-runs", type=int, default=0,
                   help="closed-loop Monte Carlo frames per point")
    _add_common(p, "rims", "channel")
    p.set_defaults(func=cmd_allocate)
    return ap


def _apply_config(ap, args, argv):
    """Fill options from the --config JSON file, each value parsed as its flag
    would be; given flags win, and a key that names no option is an error."""
    with open(args.config) as fh:
        defaults = json.load(fh)
    if not isinstance(defaults, dict):
        raise ValueError(f"{args.config}: expected a JSON object of option defaults")
    sub = next(a for a in ap._actions if a.dest == "command").choices[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    defaults = {key.replace("-", "_"): value for key, value in defaults.items()}
    unknown = [key for key in defaults if key not in actions]
    if unknown:
        raise ValueError(f"{args.config}: unknown {args.command} option(s): {', '.join(unknown)}")
    values = {key: _config_value(f"{args.config}: {key}", actions[key], v) for key, v in defaults.items()}
    for action in actions.values():
        action.default = argparse.SUPPRESS  # a second parse then holds the given flags only
    given = vars(ap.parse_args(argv))
    vars(args).update({dest: v for dest, v in values.items() if dest not in given})


def _config_value(where: str, action, value):
    """A --config value as its option would parse it from the command line."""
    switch = action.nargs == 0
    if isinstance(value, bool) != switch or not isinstance(value, (str, int, float)):
        kind = "true or false" if switch else "a string or number"
        raise ValueError(f"{where}: expected {kind}, got {json.dumps(value)}")
    try:
        value = value if switch else (action.type or str)(str(value))
    except ValueError:
        raise ValueError(f"{where}: invalid {action.type.__name__} value {str(value)!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{where}: {value} is not one of {', '.join(map(str, action.choices))}")
    return value


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            _apply_config(ap, args, argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
