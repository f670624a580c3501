"""Per-call time of the closed-form model (the grid SER, the worst-case noise
chain, the SER model and the allocator), and the A/B harness of the bench scripts.

    python3 scripts/bench_model.py [--parent DIR]

Imports this checkout's package and, with --parent, the package in DIR (the
`src/` of another checkout) under a second name, into one process. `race` makes
one warm-up call per tree, then times each call REPEATS times per tree, the
trees taking turns to go first, so that both see the same machine load. The
operating points come from `perfbench/workloads.py`. BENCH_model.json at the
repo root gets the median and minimum ms per tree and call, each tree's commit
(`-dirty` only if a file under its `src/` differs) and `environment()`; with
--parent also, per call, the median ratio of this checkout's time to the
parent's in the same round and the share of rounds this checkout was faster.
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
sys.path.append(str(ROOT / "perfbench"))
from workloads import LACO_LAYERS, M_QAM, N, P_E, SNRS_DB  # noqa: E402

REPEATS = 101


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
    """`git describe` of the checkout holding `src`, with `-dirty` only when a file under `src` differs."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True).stdout.strip()
    sha = git("describe", "--always")
    return (sha + ("-dirty" if git("status", "--porcelain", "--", ".") else "")) if sha else None


def race(work: dict, repeats: int) -> dict:
    """Tree -> name -> `repeats` wall times in s of `work[tree][name]()`: one warm-up call
    per tree, then the trees in turns, the first one first in even rounds and last in odd."""
    order = list(work)
    walls = {label: {name: [] for name in work[label]} for label in order}
    for name in work[order[0]]:
        for label in order:
            work[label][name]()
        for i in range(repeats):
            for label in (order if i % 2 == 0 else order[::-1]):
                t0 = time.perf_counter()
                work[label][name]()
                walls[label][name].append(time.perf_counter() - t0)
    return walls


def ratios(change: list, parent: list) -> dict:
    """Median ratio of the change's time to the parent's in the same round, and the share
    of rounds the change was faster."""
    return {"median_ratio": statistics.median(c / p for c, p in zip(change, parent)),
            "change_faster_share": sum(c < p for c, p in zip(change, parent)) / len(change)}


def trees(doc: str) -> dict:
    """Parse --parent: label -> `src/` of each tree to time, this checkout's ("change") first.
    Exits with one line if the parent is not inside a git checkout, as no commit could label it."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="src/ directory of a checkout to compare with")
    parent = parser.parse_args().parent
    if parent and commit(parent) is None:
        sys.exit(f"--parent {parent} is not inside a git checkout: clone the parent commit instead")
    return {"change": ROOT / "src", **({"parent": parent.resolve()} if parent else {})}


def summary(labels: dict, walls: dict, repeats: int) -> dict:
    """The shared record of `race`'s wall times: per tree its commit label and each call's
    median and minimum ms; with a parent tree also `ratios` per call."""
    record = {"environment": environment(), "repeats": repeats, "trees": {label: {
        "commit": labels[label],
        "calls": {name: {"median_ms": statistics.median(w) * 1e3, "min_ms": min(w) * 1e3}
                  for name, w in walls[label].items()}} for label in walls}}
    if "parent" in walls:
        record["change_over_parent"] = {name: ratios(w, walls["parent"][name])
                                        for name, w in walls["change"].items()}
    return record


def ab(doc: str, build, repeats: int) -> tuple:
    """Parse --parent, race `build(package)` of each tree and return the wall times and their
    `summary`, each tree's commit label taken before anything is timed or written."""
    srcs = trees(doc)
    labels = {label: commit(src) for label, src in srcs.items()}
    walls = race({label: build(load(src, f"oofdm_{label}")) for label, src in srcs.items()}, repeats)
    return walls, summary(labels, walls, repeats)


def write(path: Path, record: dict) -> None:
    """Write `record` to `path` and print each call's median per tree and its ratio."""
    path.write_text(json.dumps(record, indent=2) + "\n")
    for name in record["trees"]["change"]["calls"]:
        line = ", ".join(f"{label} {tree['calls'][name]['median_ms']:.3f} ms"
                         for label, tree in record["trees"].items())
        if "change_over_parent" in record:
            ratio = record["change_over_parent"][name]
            line += (f", ratio {ratio['median_ratio']:.3f},"
                     f" change faster in {ratio['change_faster_share']:.0%} of rounds")
        print(f"{name}: {line}")
    print(f"wrote {path}")


def calls(pkg) -> dict:
    """Name -> zero-argument call into package `pkg`, on inputs fixed by one seed."""
    import numpy as np

    rng = np.random.default_rng(17)
    # 256 bins of orders 2..1024 on their m_i x m_q QAM grids, at SNRs around the
    # allocator's operating points
    b = rng.integers(1, 11, 256)
    m_i, m_q, M = 2.0 ** ((b + 1) // 2), 2.0 ** (b // 2), 2 ** b
    d = pkg.min_distance(M, 10.0 ** rng.uniform(0.0, 3.0, 256))
    sigma2 = 10.0 ** rng.uniform(-1.0, 1.0, 256)
    # LACO, 16-QAM, flat channel, 20 dB electrical SNR
    laco = pkg.SchemeConfig.uniform("laco", N, M_QAM, pkg.gamma_to_p_eff("laco", 20.0, layers=LACO_LAYERS),
                                    LACO_LAYERS)
    p_v = np.full(N, float(N))
    channel = pkg.ChannelProfile.exponential(N)
    out = {
        "grid_ser_256_bins": lambda: pkg.constellation.grid_ser(d, m_i, m_q, sigma2),
        f"worst_case_noise_laco{LACO_LAYERS}": lambda: pkg.worst_case_noise(laco, p_v),
        f"evaluate_ser_laco{LACO_LAYERS}": lambda: pkg.evaluate_ser(laco, p_v, "rcn_aware"),
    }
    for mode in ("rcn_aware", "rcn_unaware"):
        for snr in SNRS_DB:
            out[f"allocate_{mode}_{snr:g}dB"] = (
                lambda mode=mode, snr=snr: pkg.allocate(channel, 10.0 ** (snr / 10.0), P_E, mode=mode))
    return out


if __name__ == "__main__":
    write(ROOT / "BENCH_model.json", ab(__doc__, calls, REPEATS)[1])
