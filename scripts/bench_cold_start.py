"""Cold-start cost of the package: how long a fresh interpreter takes to import
it and make a first call, and whether that call loaded `scipy.special`.

    python3 scripts/bench_cold_start.py

Each path runs in 7 fresh interpreters against this checkout's `src/`. A
child times its import and first call with `time.perf_counter`, from just
before `import oofdm.cli` to the return of the call, so interpreter start-up
is left out. The median and minimum of each path go to BENCH_cold_start.json
at the repo root, with the Python, numpy and scipy versions and the CPU count.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from bench_model import ROOT, environment

REPEATS = 7

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


def measure(call: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    walls, loaded = [], set()
    for _ in range(REPEATS):
        done = subprocess.run([sys.executable, "-c", CHILD.format(call=call)], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        wall_s, special = json.loads(done.stdout)
        walls.append(wall_s)
        loaded.add(special)
    if len(loaded) != 1:
        raise RuntimeError(f"scipy.special was loaded in some runs of {call!r} only")
    return {"call": call or None, "repeats": REPEATS, "median_s": statistics.median(walls),
            "min_s": min(walls), "scipy_special_loaded": loaded.pop()}


def main() -> int:
    record = {
        "environment": environment(),
        "paths": {name: measure(call) for name, call in PATHS.items()},
    }
    out = ROOT / "BENCH_cold_start.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for name, res in record["paths"].items():
        print(f"{name}: median {res['median_s'] * 1e3:.0f} ms, min {res['min_s'] * 1e3:.0f} ms,"
              f" scipy.special loaded: {res['scipy_special_loaded']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
