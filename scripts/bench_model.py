"""Per-call time of the closed-form model: the rim kernel, the worst-case noise
chain, the SER model and the allocator.

    python3 scripts/bench_model.py [--parent DIR]

Imports this checkout's package and, with --parent, the package in DIR (the
`src/` of another checkout) under a second name, into one process. After one
warm-up call per tree, each call is timed REPEATS times with
`time.perf_counter`, the trees taking turns to go first, so that both see the
same machine load. BENCH_model.json at the repo root gets the median and
minimum per tree and call, each tree's git commit, the Python, numpy and scipy
versions and the CPU count; with --parent also, per call, the median ratio of
this checkout's time to the parent's in the same round and the share of
rounds this checkout was faster.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 101
N = 1024
P_E = 1e-2
SNRS_DB = (6, 10, 14, 18, 22, 26)


def load(src: Path, name: str):
    """The oofdm package under `src`, imported as `name` (it imports itself relatively)."""
    spec = importlib.util.spec_from_file_location(name, src / "oofdm" / "__init__.py",
                                                  submodule_search_locations=[str(src / "oofdm")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": len(os.sched_getaffinity(0))}


def commit(src: Path) -> str | None:
    """`git describe` of the checkout holding `src`."""
    return subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                          capture_output=True, text=True).stdout.strip() or None


def calls(pkg) -> dict:
    """Name -> zero-argument call into package `pkg`, on inputs fixed by one seed."""
    import numpy as np

    rng = np.random.default_rng(17)
    # 256 bins of orders 2..1024 at SNRs around the allocator's operating points
    M = 2 ** rng.integers(1, 11, 256)
    d = pkg.min_distance(M, 10.0 ** rng.uniform(0.0, 3.0, 256))
    sigma2 = 10.0 ** rng.uniform(-1.0, 1.0, 256)
    # LACO with 9 layers, 16-QAM, flat channel, 20 dB electrical SNR
    laco = pkg.SchemeConfig.uniform("laco", N, 16, pkg.gamma_to_p_eff("laco", 20.0, 1.0, 9), 9)
    p_v = np.full(N, float(N))
    channel = pkg.ChannelProfile.exponential(N)
    out = {
        "detection_error_power_256_bins": lambda: pkg.detection_error_power(d, sigma2, M),
        "worst_case_noise_laco9": lambda: pkg.worst_case_noise(laco, p_v),
        "evaluate_ser_laco9": lambda: pkg.evaluate_ser(laco, p_v, "rcn_aware"),
    }
    for mode in ("rcn_aware", "rcn_unaware"):
        for snr in SNRS_DB:
            out[f"allocate_{mode}_{snr}dB"] = (
                lambda mode=mode, snr=snr: pkg.allocate(channel, 10.0 ** (snr / 10.0), P_E, mode=mode))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="src/ directory of a checkout to compare with")
    args = parser.parse_args()
    trees = {"change": ROOT / "src"}
    if args.parent:
        trees["parent"] = args.parent.resolve()
    work = {label: calls(load(src, f"oofdm_{label}")) for label, src in trees.items()}
    walls = {label: {name: [] for name in work[label]} for label in trees}
    for name in work["change"]:
        for label in trees:
            work[label][name]()
        for i in range(REPEATS):
            for label in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                t0 = time.perf_counter()
                work[label][name]()
                walls[label][name].append((time.perf_counter() - t0) * 1e3)
    record = {
        "environment": environment(),
        "repeats": REPEATS,
        "trees": {label: {
            "commit": commit(src),
            "calls": {name: {"median_ms": statistics.median(w), "min_ms": min(w)}
                      for name, w in walls[label].items()}} for label, src in trees.items()},
    }
    if "parent" in trees:
        record["change_over_parent"] = {
            name: {"median_ratio": statistics.median(c / p for c, p in zip(w, walls["parent"][name])),
                   "change_faster_share": sum(c < p for c, p in zip(w, walls["parent"][name])) / REPEATS}
            for name, w in walls["change"].items()}
    out = ROOT / "BENCH_model.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for name in work["change"]:
        line = ", ".join(f"{label} {res['calls'][name]['median_ms']:.3f} ms"
                         for label, res in record["trees"].items())
        if "parent" in trees:
            ratio = record["change_over_parent"][name]
            line += (f", ratio {ratio['median_ratio']:.3f},"
                     f" change faster in {ratio['change_faster_share']:.0%} of rounds")
        print(f"{name}: {line}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
