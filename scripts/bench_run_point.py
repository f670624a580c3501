"""Monte Carlo frames/s of `run_point` at the points of the two benchmark
workloads: the uniform points of `mc_uniform_flat` (flat channel) and the
RCN-aware allocations of `closed_loop_selective` (exponential channel); and of
instrumented LACO runs, which neither workload makes.

    python3 scripts/bench_run_point.py [--parent DIR]

Times each point REPEATS times per tree at a fixed seed with `bench_model`'s
harness; the points and frame counts come from `perfbench/workloads.py`, and
each tree builds its own configs. BENCH_run_point.json gets `bench_model`'s
record plus each call's frames and median and best frames/s; with --parent
also, per workload cycle (the sum of its points' times in one round), the
ratios that `bench_model.ratios` gives per call. The instrumented calls, LACO at
effective 16-QAM 20 dB and 64-QAM 10 dB on the flat channel, each with
instrument=True and with probe bin 256, are in no cycle.
"""
from __future__ import annotations

import importlib

from bench_model import ROOT, ab, ratios, write  # puts perfbench/ on sys.path
from workloads import CL_FRAMES, LACO_LAYERS, M_QAM, MC_FRAMES, MC_POINTS, N, P_E, SNRS_DB

REPEATS = 31
SEED = (20, 1)
# workload -> (prefix of its calls, frames per call)
CYCLES = {"mc_uniform_flat": ("mc_", MC_FRAMES), "closed_loop_selective": ("closed_loop_", CL_FRAMES)}
INSTRUMENTED = ("instrumented_", 1000)


def points(pkg) -> dict:
    """Name -> zero-argument `run_point` call in package `pkg`."""
    run_point = importlib.import_module(f"{pkg.__name__}.channel").run_point
    flat, selective = pkg.ChannelProfile.flat(N), pkg.ChannelProfile.exponential(N)
    out = {}
    for scheme, gamma in MC_POINTS:
        layers = LACO_LAYERS if scheme == "laco" else None
        cfg = pkg.SchemeConfig.uniform(scheme, N, M_QAM, pkg.gamma_to_p_eff(scheme, gamma, layers=layers),
                                       layers)
        out[f"mc_{scheme}_{gamma:g}dB"] = lambda cfg=cfg: run_point(cfg, flat, MC_FRAMES, SEED)
    for snr in SNRS_DB:
        res = pkg.allocate(selective, 10.0 ** (snr / 10.0), P_E, mode="rcn_aware")
        cfg = pkg.SchemeConfig.from_allocation(N, res.bits, res.powers)
        out[f"closed_loop_{snr:g}dB"] = lambda cfg=cfg: run_point(cfg, selective, CL_FRAMES, SEED)
    prefix, frames = INSTRUMENTED
    for m, gamma in ((16, 20.0), (64, 10.0)):
        p_eff = pkg.gamma_to_p_eff("laco", gamma, layers=LACO_LAYERS, effective=True)
        cfg = pkg.SchemeConfig.uniform("laco", N, m, p_eff, LACO_LAYERS)
        for label, kw in (("", {"instrument": True}), ("_probe256", {"probe_bin": 256})):
            out[f"{prefix}laco_{m}qam_{gamma:g}dB{label}"] = lambda cfg=cfg, kw=kw: run_point(
                cfg, flat, frames, SEED, **kw)
    return out


if __name__ == "__main__":
    walls, record = ab(__doc__, points, REPEATS)
    for tree in record["trees"].values():
        for name, call in tree["calls"].items():
            frames = next(f for prefix, f in (*CYCLES.values(), INSTRUMENTED) if name.startswith(prefix))
            call.update(frames=frames, median_frames_per_s=frames * 1e3 / call["median_ms"],
                        best_frames_per_s=frames * 1e3 / call["min_ms"])
    if "parent" in walls:
        def cycle(label, prefix):  # round i of every point of one workload, summed
            return [sum(r) for r in zip(*(w for name, w in walls[label].items() if name.startswith(prefix)))]
        record["cycles_over_parent"] = {group: ratios(cycle("change", prefix), cycle("parent", prefix))
                                        for group, (prefix, _) in CYCLES.items()}
        for group, ratio in record["cycles_over_parent"].items():
            print(f"cycle {group}: ratio {ratio['median_ratio']:.3f},"
                  f" change faster in {ratio['change_faster_share']:.0%} of rounds")
    write(ROOT / "BENCH_run_point.json", record)
