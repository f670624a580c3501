"""Monte Carlo frames/s of `run_point` at N = 1024: the seven uniform 16-QAM
points of the `mc_uniform_flat` benchmark workload (flat channel, 500 frames)
and the RCN-aware allocations of `closed_loop_selective` (exponential channel,
6-26 dB, target SER 1e-2, 250 frames).

    python3 scripts/bench_run_point.py [--parent DIR]

Imports this checkout's package and, with --parent, the package in DIR (the
`src/` of another checkout) under a second name, into one process, through
`bench_model.load`. Each tree builds its own configs. After one warm-up call
per tree and point, each point runs REPEATS times per tree at a fixed seed,
timed with `time.perf_counter`, the trees taking turns to go first, so that
both see the same machine load. BENCH_run_point.json at the repo root gets the
median and best frames/s per tree and point, each tree's git commit and the
environment; with --parent also, per point and per workload cycle (the sum of
its points' times in one round), the median ratio of this checkout's time to
the parent's in the same round and the share of rounds this checkout was
faster.
"""
from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

from bench_model import commit, environment, load

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 31
N = 1024
SEED = (20, 1)
MC_FRAMES = 500
MC_POINTS = (("laco", 14.0), ("laco", 20.0), ("laco", 26.0),
             ("ado", 18.0), ("ado", 24.0), ("haco", 22.0), ("haco", 30.0))
CL_FRAMES = 250
P_E = 1e-2
SNRS_DB = (6, 10, 14, 18, 22, 26)
CYCLES = {"mc_uniform_flat": "mc_", "closed_loop_selective": "closed_loop_"}


def points(pkg) -> dict:
    """Name -> (frames, zero-argument `run_point` call) in package `pkg`."""
    run_point = importlib.import_module(f"{pkg.__name__}.channel").run_point
    flat, selective = pkg.ChannelProfile.flat(N), pkg.ChannelProfile.exponential(N)
    out = {}
    for scheme, gamma in MC_POINTS:
        layers = 9 if scheme == "laco" else None
        cfg = pkg.SchemeConfig.uniform(scheme, N, 16, pkg.gamma_to_p_eff(scheme, gamma, 1.0, layers),
                                       layers)
        out[f"mc_{scheme}_{gamma:g}dB"] = (MC_FRAMES,
                                           lambda cfg=cfg: run_point(cfg, flat, MC_FRAMES, SEED))
    for snr in SNRS_DB:
        res = pkg.allocate(selective, 10.0 ** (snr / 10.0), P_E, mode="rcn_aware")
        cfg = pkg.SchemeConfig.from_allocation(N, res.bits, res.powers)
        out[f"closed_loop_{snr}dB"] = (CL_FRAMES,
                                       lambda cfg=cfg: run_point(cfg, selective, CL_FRAMES, SEED))
    return out


def _ratios(change: list, parent: list) -> dict:
    return {"median_time_ratio": statistics.median(c / p for c, p in zip(change, parent)),
            "change_faster_share": sum(c < p for c, p in zip(change, parent)) / len(change)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="src/ directory of a checkout to compare with")
    args = parser.parse_args()
    trees = {"change": ROOT / "src"}
    if args.parent:
        trees["parent"] = args.parent.resolve()
    work = {label: points(load(src, f"oofdm_{label}")) for label, src in trees.items()}
    walls = {label: {name: [] for name in work[label]} for label in trees}
    for name in work["change"]:
        for label in trees:
            work[label][name][1]()
        for i in range(REPEATS):
            for label in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                t0 = time.perf_counter()
                work[label][name][1]()
                walls[label][name].append(time.perf_counter() - t0)
    record = {
        "environment": environment(),
        "repeats": REPEATS,
        "trees": {label: {
            "commit": commit(src),
            "points": {name: {"frames": work[label][name][0],
                              "median_frames_per_s": work[label][name][0] / statistics.median(w),
                              "best_frames_per_s": work[label][name][0] / min(w)}
                       for name, w in walls[label].items()}} for label, src in trees.items()},
    }
    if "parent" in trees:
        def cycle(label, prefix):  # round i of every point of one workload, summed
            return [sum(r) for r in zip(*(w for name, w in walls[label].items() if name.startswith(prefix)))]
        record["change_over_parent"] = {
            "points": {name: _ratios(w, walls["parent"][name]) for name, w in walls["change"].items()},
            "cycles": {group: _ratios(cycle("change", prefix), cycle("parent", prefix))
                       for group, prefix in CYCLES.items()},
        }
    out = ROOT / "BENCH_run_point.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for name in work["change"]:
        line = ", ".join(f"{label} {res['points'][name]['median_frames_per_s']:.0f}"
                         for label, res in record["trees"].items())
        print(f"{name}: {line} frames/s")
    if "parent" in trees:
        for kind, ratios in record["change_over_parent"].items():
            for name, ratio in ratios.items():
                print(f"{kind} {name}: time ratio {ratio['median_time_ratio']:.3f},"
                      f" change faster in {ratio['change_faster_share']:.0%} of rounds")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
