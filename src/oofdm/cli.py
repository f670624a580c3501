"""Command-line experiment runner.

power-relations prints the closed-form power relations (and a Monte Carlo check).
rcn-power, rcn-stats, ser and allocate build plot-ready CSV tables (allocate also a
JSON summary), written only once the whole run has succeeded, with a JSON manifest (resolved
configuration, seed, the oofdm, Python, numpy and scipy versions, output paths, argv and
wall time) that reproduces the run bit-exactly; one printed line names every file written.

Configuration precedence: command-line flags > --config JSON file > defaults.
The default output directory can be set with the OOFDM_OUT environment variable.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .allocate import allocate
from .channel import (ChannelProfile, _blocks, _probed_layers, gamma_to_p_eff,
                      measure_power_relations, rcn_statistics, run_point)
from .modems import layer_index, layer_kinds, power_relations
from .multilayer import SchemeConfig, _detect, _synthesize, modulate
from .rcn import worst_case_noise
from .ser import MODES, evaluate_ser


def _parse_grid(text):
    """Parse '0,2,4' or 'start:stop:step' into a nonempty list of finite floats."""
    try:
        values = [float(p) for p in text.split(":" if ":" in text else ",")]
        if ":" in text:
            start, stop, step = values
    except ValueError:
        raise ValueError(f"grid {text!r} is not of the form a,b,c or start:stop:step") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"grid {text!r} holds a non-finite value")
    if ":" in text:
        if not step > 0:
            raise ValueError(f"grid step must be positive, got {step:g}")
        values = list(np.arange(start, stop + step / 2, step))
    if not values:
        raise ValueError(f"grid {text!r} is empty")
    return values


def _channel(args) -> ChannelProfile:
    if args.channel:
        return ChannelProfile.from_csv(args.channel, args.n)
    return ChannelProfile.exponential(args.n) if args.selective else ChannelProfile.flat(args.n)


def _points(args, channel: ChannelProfile, scheme: str, gammas, effective: bool, **run_kw):
    """(gamma, config, run_point result) per grid point of a uniform --m
    loading over every layer of the scheme; point i is seeded (--seed, i)."""
    layers = len(layer_kinds(scheme, args.n))
    for i, gamma in enumerate(gammas):
        p_eff = gamma_to_p_eff(scheme, gamma, layers=layers, effective=effective)
        scheme_cfg = SchemeConfig.uniform(scheme, args.n, args.m, p_eff, layers)
        yield gamma, scheme_cfg, run_point(scheme_cfg, channel, args.runs, (args.seed, i), **run_kw)


def _write_outputs(args, outputs: dict, argv: list, start: float):
    """Write a finished run's outputs (file name -> a CSV's (header, rows), or the list in
    allocation_summary.json) and its manifest, timed from the perf_counter reading `start`,
    into --out, else $OOFDM_OUT, else the working directory; print a line naming each file."""
    from importlib import metadata  # 20 ms to import; reads a version without importing scipy
    out_dir = Path(args.out or os.environ.get("OOFDM_OUT", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in outputs]
    for path, content in zip(paths, outputs.values()):
        with open(path, "w", newline="") as fh:
            if path.suffix == ".json":
                json.dump(content, fh, indent=2)
            else:
                header, rows = content
                csv.writer(fh).writerows([header, *rows])
    manifest = out_dir / f"{args.command}_manifest.json"
    with open(manifest, "w") as fh:
        json.dump({"subcommand": args.command,
                   "config": {key: value for key, value in vars(args).items() if key != "func"},
                   "version": __version__, "python": platform.python_version(),
                   "numpy": np.__version__, "scipy": metadata.version("scipy"),
                   "outputs": [str(p) for p in paths], "argv": list(argv),
                   "wall_s": time.perf_counter() - start}, fh, indent=2)
    print(f"wrote {', '.join(map(str, paths))} and {manifest}")


def cmd_power_relations(args):
    layers = len(layer_kinds(args.scheme, args.n, args.layers))
    closed = power_relations(args.scheme, args.peff, layers)
    lines = [f"scheme={args.scheme} P_eff={args.peff:g}",
             f"closed form: P_elec={closed.p_elec:.6g} P_opt={closed.p_opt:.6g}"]
    if args.validate:
        mc = measure_power_relations(args.scheme, args.peff, n=args.n, M=args.m,
                                     frames=args.validate, seed=args.seed,
                                     layers=layers)
        rel_e = abs(mc.p_elec - closed.p_elec) / closed.p_elec
        rel_o = abs(mc.p_opt - closed.p_opt) / closed.p_opt
        lines.append(f"monte carlo ({args.validate} frames): P_elec={mc.p_elec:.6g} "
                     f"({rel_e:.2%}) P_opt={mc.p_opt:.6g} ({rel_o:.2%})")
    print("\n".join(lines))  # only once every input has passed its check


def cmd_rcn_power(args):
    gammas = _parse_grid(args.gammas_eff)
    channel = _channel(args)
    p_v = channel.bin_noise_power()
    rows = []
    for gamma, scheme_cfg, point in _points(args, channel, "laco", gammas, effective=True,
                                            instrument=True):
        delta, err = point["delta_power"].mean(axis=1), point["err_power"].mean(axis=1)
        estimates = {r: worst_case_noise(scheme_cfg, p_v, r).delta_powers for r in (1, 2, 3)}
        for t in range(len(delta)):
            rows.append([gamma, t + 1, delta[t], estimates[1][t], estimates[2][t],
                         estimates[3][t], err[t]])
    header = ["gamma_eff_db", "layer", "measured_delta_power", "estimated_1rim",
              "estimated_2rims", "estimated_3rims", "err_power"]
    return {"rcn_power.csv": (header, rows)}


def cmd_ser(args):
    gammas = _parse_grid(args.gammas)
    channel = _channel(args)
    p_v = channel.bin_noise_power()
    rows, outputs = [], {}
    for scheme in args.schemes.split(","):
        scheme = scheme.strip().lower()
        points = _points(args, channel, scheme, gammas, effective=False)
        for i, (gamma, scheme_cfg, point) in enumerate(points):
            aware = evaluate_ser(scheme_cfg, p_v, "rcn_aware", args.rims).overall
            unaware = evaluate_ser(scheme_cfg, p_v, "rcn_unaware", args.rims).overall
            rows.append([gamma, scheme, point["ser"], point["stderr"], aware, unaware])
            if args.dump_frames and i == 0:
                outputs[f"frame_{scheme}.csv"] = _dump_frame(scheme_cfg, channel, args.runs, (args.seed, i))
    header = ["gamma_db", "scheme", "simulated", "stderr", "rcn_aware", "rcn_unaware"]
    return {**outputs, "ser.csv": (header, rows)}


def _dump_frame(scheme_cfg: SchemeConfig, channel: ChannelProfile, frames: int, seed):
    """(header, rows) of a debug dump of frame 0 of `run_point`'s run of `frames` frames seeded
    `seed`: time index, the sent frame x, the received frame y = x + v, and each layer's
    pre-clipping frame remodulated from the run's decisions. On a selective channel v is the
    inverse FFT of the noise spectrum the run drew at the loaded bins, all the receiver reads."""
    sent, v = next(_blocks(scheme_cfg, channel, frames, seed))
    sent, v = [idx[:1] for idx in sent], v[:1]  # every step of the run treats rows alone
    s_hat = [np.tile(_synthesize(spec, idx, scheme_cfg.n), spec.fold)[0]  # v is kept for y
             for spec, idx in zip(scheme_cfg.layers, _detect(scheme_cfg, sent, v.copy()))]
    if channel.h is not None:
        half = np.zeros((1, scheme_cfg.n // 2 + 1), dtype=complex)
        half[0, scheme_cfg.loaded_bins] = v[0].view(complex)[:, 0]
        v = np.fft.irfft(half, scheme_cfg.n)
    x = modulate(scheme_cfg, sent)[0]
    y = x + v[0]
    header = ["n", "x", "y"] + [f"s_hat_{j + 1}" for j in range(len(s_hat))]
    return header, [[i, x[i], y[i]] + [sh[i] for sh in s_hat] for i in range(scheme_cfg.n)]


def cmd_rcn_stats(args):
    gammas = _parse_grid(args.gammas_eff)
    channel = _channel(args)
    t_max = _probed_layers(args.n, args.bin)
    if t_max == 0:
        raise ValueError(f"probe bin {args.bin} is not affected by any layer")
    cov_rows, cdf_rows = [], []
    for gamma, _, point in _points(args, channel, "laco", gammas, effective=True, probe_bin=args.bin):
        res = rcn_statistics(point["probe"][:t_max], gamma)
        for t1 in range(t_max):
            for t2 in range(t_max):
                cov_rows.append([gamma, t1 + 1, t2 + 1, abs(res["rho"][t1, t2])])
            ks_re, ks_im = res["ks"][t1]
            for part, samples, ks in (("re", res["normalized_re"][t1], ks_re),
                                      ("im", res["normalized_im"][t1], ks_im)):
                qs = np.quantile(samples, np.linspace(0.01, 0.99, 99))
                cdf_rows.append([gamma, t1 + 1, part, ks] + list(qs))
    cov_header = ["gamma_eff_db", "t1", "t2", "abs_rho"]
    cdf_header = ["gamma_eff_db", "layer", "part", "ks_distance"] + [f"q{p:02d}" for p in range(1, 100)]
    return {"rcn_covariance.csv": (cov_header, cov_rows), "rcn_cdf.csv": (cdf_header, cdf_rows)}


def cmd_allocate(args):
    channel = _channel(args)
    p_v = channel.bin_noise_power()
    header = ["k", "layer", "bits", "power", "noise"]
    outputs, summary = {}, []
    for gamma_eff in _parse_grid(args.gammas_eff):
        p_eff = gamma_to_p_eff(None, gamma_eff, effective=True)
        for mode in MODES:
            res = allocate(channel, p_eff, args.pe, mode=mode, rims=args.rims)
            rows = [[k, layer_index(int(k), args.n), res.bits[k], res.powers[k], res.noise[k]]
                    for k in res.loaded]
            outputs[f"allocation_{mode}_{gamma_eff:g}dB.csv"] = (header, rows)
            entry = {"gamma_eff_db": gamma_eff, "mode": mode,
                     "iterations": res.iterations, "converged": res.converged,
                     "total_bits": res.total_bits,
                     "loaded_subcarriers": int(len(res.loaded)), "history": res.history}
            if args.validate_runs and res.total_bits:  # an empty loading sends nothing
                scheme_cfg = SchemeConfig.from_allocation(args.n, res.bits, res.powers)
                point = run_point(scheme_cfg, channel, args.validate_runs, args.seed)
                entry["simulated_ser"] = point["ser"]
                entry["predicted_ser"] = evaluate_ser(scheme_cfg, p_v, "rcn_aware", args.rims).overall
            summary.append(entry)
    outputs["allocation_summary.json"] = summary
    return outputs


def _add_common(p, *groups):
    """--seed, --n and --config, plus the named groups: "runs", "rims", and
    "channel" (--out, and --channel or --selective)."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1024, help="frame length")
    p.add_argument("--config", help="JSON file with defaults for any flag")
    if "runs" in groups:
        p.add_argument("--runs", type=int, default=10_000, help="Monte Carlo frames")
    if "rims" in groups:
        p.add_argument("--rims", type=int, default=3, choices=(1, 2, 3))
    if "channel" in groups:
        profile = p.add_mutually_exclusive_group()
        profile.add_argument("--channel", help="channel profile CSV (k,|H|) or (k,ReH,ImH)")
        profile.add_argument("--selective", action="store_true",
                             help="use the built-in exponential low-pass profile")
        p.add_argument("--out", help="output directory (default $OOFDM_OUT or .)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors, its subparsers' included, raise ValueError."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    """The command-line parser; its `commands` maps each subcommand to its parser."""
    ap = _Parser(prog="oofdm", description="Multi-layer optical OFDM experiments")
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = sub.choices

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
    """`args` parsed again with each --config JSON entry as its flag, ahead of `argv`'s
    flags so that those win; a key must name an option of the subcommand exactly, and an
    option whose parsed value is a bool is a switch."""
    parsed = {dest: value for dest, value in vars(args).items() if dest not in ("command", "func")}
    tokens = []
    with open(args.config) as fh:
        try:  # argv parses alone, so every error here lies in the file or clashes with argv
            entries = json.load(fh)
            if not isinstance(entries, dict):
                raise ValueError("expected a JSON object of option defaults")
            for key, value in entries.items():
                dest = key.replace("-", "_")
                if dest not in parsed:
                    raise ValueError(f"unknown {args.command} option {key}")
                flag, switch = "--" + key.replace("_", "-"), isinstance(parsed[dest], bool)
                if isinstance(value, bool) != switch or not isinstance(value, (str, int, float)):
                    kind = "true or false" if switch else "a string or number"
                    raise ValueError(f"{key}: expected {kind}, got {json.dumps(value)}")
                if value is not False:  # a switch set to false keeps its default
                    tokens.append(flag if switch else f"{flag}={value}")
            return ap.parse_args([args.command, *tokens, *argv[1:]])
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None


def main(argv=None) -> int:
    start = time.perf_counter()
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.config:
            args = _apply_config(ap, args, argv)
        for flag, low in (("seed", 0), ("runs", 1), ("validate", 0), ("validate_runs", 0)):
            if getattr(args, flag, low) < low:  # a subcommand without the flag passes
                raise ValueError(f"--{flag.replace('_', '-')} must be >= {low}, got {getattr(args, flag)}")
        outputs = args.func(args)  # None from power-relations, which only prints
        if outputs is not None:
            _write_outputs(args, outputs, argv, start)
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
