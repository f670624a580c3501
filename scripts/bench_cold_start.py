"""Cold-start cost of the package: how long a fresh interpreter takes to import
it and make a first call, and whether that call loaded `scipy.special`.

    python3 scripts/bench_cold_start.py [--parent DIR]

Each path runs in REPEATS fresh interpreters against this checkout's `src/` and,
with --parent, as many against DIR (the `src/` of another checkout), the trees
taking turns through `bench_model.race` after one warm-up interpreter each. A
child times its import and first call with `time.perf_counter`, from just
before `import oofdm.cli` to the return of the call, so interpreter start-up
is left out. BENCH_cold_start.json at the repo root gets `bench_model`'s record
of those times (per tree and path the median and minimum ms; with --parent the
ratios per path), each path's call and whether it loaded `scipy.special`.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from bench_model import ROOT, commit, race, summary, trees, write

REPEATS = 21

# Each path's first call, made after importing oofdm.cli.
PATHS = {
    "import": "",
    # LACO with 9 layers, 16-QAM, N = 1024, flat channel, 64 frames at 20 dB
    "run_point": "run_point(SchemeConfig.uniform('laco', 1024, 16, 100.0, 9),"
                 " ChannelProfile.flat(1024), 64, 1)",
    # RCN-aware allocation, exponential channel, 18 dB, target SER 1e-2
    "allocate": "allocate(ChannelProfile.exponential(1024), 10.0 ** 1.8, 1e-2)",
}

CHILD = """if True:
    import time
    t0 = time.perf_counter()
    import oofdm.cli
    from oofdm import ChannelProfile, SchemeConfig, allocate
    from oofdm.channel import run_point
    {call}
    wall_s = time.perf_counter() - t0
    import json, sys
    print(json.dumps([wall_s, "scipy.special" in sys.modules]))
"""


def child(src: Path, call: str) -> tuple:
    """The argv and environment of one fresh interpreter that imports the package under
    `src`, makes `call` and prints its wall time in s and whether `scipy.special` is loaded."""
    return [sys.executable, "-c", CHILD.format(call=call)], dict(os.environ, PYTHONPATH=str(src))


def measure(srcs: dict, repeats: int) -> dict:
    """Tree -> path -> the (wall_s, scipy.special loaded) reports of `repeats` children, the
    trees taking turns through `race`; the warm-up child's report is dropped."""
    reports = {label: {name: [] for name in PATHS} for label in srcs}

    def run(label: str, name: str):
        argv, env = child(srcs[label], PATHS[name])
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=300)
        reports[label][name].append(json.loads(done.stdout))

    race({label: {name: (lambda label=label, name=name: run(label, name)) for name in PATHS}
          for label in srcs}, repeats)
    return {label: {name: runs[1:] for name, runs in paths.items()} for label, paths in reports.items()}


def main() -> int:
    srcs = trees(__doc__)
    labels = {label: commit(src) for label, src in srcs.items()}
    reports = measure(srcs, REPEATS)
    walls = {label: {name: [wall_s for wall_s, _ in runs] for name, runs in paths.items()}
             for label, paths in reports.items()}
    record = summary(labels, walls, REPEATS)
    for label, tree in record["trees"].items():
        for name, res in tree["calls"].items():
            loaded = {special for _, special in reports[label][name]}
            if len(loaded) != 1:
                raise RuntimeError(f"scipy.special was loaded in some {label} runs of {name!r} only")
            res.update(call=PATHS[name] or None, scipy_special_loaded=loaded.pop())
    write(ROOT / "BENCH_cold_start.json", record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
