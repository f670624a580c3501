"""oofdm benchmark: closed-loop workloads, output checks and per-module tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout against the package in its `src/`. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: with `--trace 0` the end-to-end metrics declared in
BENCHMARK.json, measured untraced; with `--trace 1` the per-layer metrics
from traced runs of the same ops. A fuller record (environment, every op
latency, failure messages) goes to perfbench/out/, with the traced run's
spans. See perfbench/README.md for the workloads and what each metric means.
"""
import time

_T0 = time.perf_counter()

import bootstrap  # noqa: E402  (thread caps and sys.path, before numpy)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
# Each run sets up this many times in all (itself plus fresh child
# interpreters) and reports the median as setup_s.
SETUP_SAMPLES = 5
# Enough ops that p90 has at least ten samples beyond it.
MIN_OPS = 100


class BenchError(Exception):
    """The benchmark cannot run here (no package sources, no reference data)."""


def import_package():
    pkg = bootstrap.SRC / "oofdm" / "__init__.py"
    if not pkg.is_file():
        raise BenchError(f"no package sources at {pkg.relative_to(bootstrap.ROOT)}")
    import oofdm
    if Path(oofdm.__file__).resolve() != pkg.resolve():
        raise BenchError(f"imported oofdm from {oofdm.__file__}, not from {pkg}")
    return oofdm


def _phase() -> dict:
    return {"ops": 0, "wall_s": 0.0, "latencies_s": [], "failures": []}


def _run(wl, ops: range, phase: dict, tracer=None):
    """Issue `ops` closed loop (op i+1 only after op i returns), adding their
    latencies, output-check results and wall time to `phase`."""
    t_start = time.perf_counter()
    for i in ops:
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception as exc:  # a raising op is a failed op, not a crash
            failure = f"op {i} raised {type(exc).__name__}: {exc}"
        else:
            failure = None
        phase["latencies_s"].append(time.perf_counter() - t0)
        if failure is None:
            try:
                failure = wl.check(i, out)
            except Exception as exc:  # output the check cannot read is wrong output
                failure = f"check of op {i} raised {type(exc).__name__}: {exc}"
        phase["failures"].append(failure)
    phase["ops"] += len(ops)
    phase["wall_s"] += time.perf_counter() - t_start


def _cycle_ops(wl, c: int) -> range:
    return range(c * wl.cycle, (c + 1) * wl.cycle)


def run_ops(wl, seconds: float, min_ops: int) -> dict:
    """Whole workload cycles until `seconds` have passed and `min_ops` are
    done, so every run holds the same op mix."""
    phase = _phase()
    c = 0
    while c * wl.cycle < min_ops or phase["wall_s"] < seconds:
        _run(wl, _cycle_ops(wl, c), phase)
        c += 1
    phase["failures"] += wl.phase_checks()
    return phase


def setup_samples(args, own: float) -> list:
    """Set-up time of this process plus that of fresh child interpreters."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=bootstrap.ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """L2 and L3 sizes as seen from CPU 0 (L2 is per core, L3 shared)."""
    sizes = {}
    for k in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{k}/"
        level, size = _read(base + "level"), _read(base + "size")
        if level and size and level.strip() in ("2", "3"):
            sizes[f"l{level.strip()}_cache"] = size.strip()
    return sizes


def environment(seed: int) -> dict:
    import scipy
    channel = sys.modules["oofdm.channel"]
    batch = getattr(channel, "DEFAULT_BATCH", None)
    return {
        "thread_caps": {v: os.environ.get(v) for v in bootstrap.THREAD_CAPS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), **_cache_sizes(), "seed": seed,
        "default_batch": batch,
        # one (batch, N) complex128 array: the FFT working set per layer pass
        "default_batch_array_bytes": None if batch is None else batch * 1024 * 16,
    }


def end_to_end(phase: dict, setups: list, frames_per_op: int) -> dict:
    lat_ms = [t * 1e3 for t in phase["latencies_s"]]
    return {
        "frames_per_s": frames_per_op * phase["ops"] / phase["wall_s"],
        "ops_per_s": phase["ops"] / phase["wall_s"],
        "op_ms.p50": statistics.median(lat_ms),
        "op_ms.p90": statistics.quantiles(lat_ms, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(wl):
    """`trace_cycles` whole cycles, each run once untraced and once traced with
    the same inputs, so that per-layer counts repeat exactly and times cover
    fixed work. The order alternates from cycle to cycle, so that the
    machine's drift cancels out of `trace.overhead_frac`. Returns the
    per-layer metrics, both phase records and the tracer."""
    from tracing import Tracer
    plain, replay = _phase(), _phase()
    tracer = Tracer()
    for c in range(wl.trace_cycles):
        for phase in ((plain, replay) if c % 2 == 0 else (replay, plain)):
            if phase is plain:
                _run(wl, _cycle_ops(wl, c), plain)
                continue
            with tracer:
                _run(wl, _cycle_ops(wl, c), replay, tracer)
    replay["failures"] += wl.phase_checks()
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = replay["wall_s"]
    metrics["trace.overhead_frac"] = replay["wall_s"] / plain["wall_s"] - 1.0
    return metrics, plain, replay, tracer


def _declared(kind: str) -> dict:
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for setup_s)")
    args = ap.parse_args(argv)
    try:
        import_package()
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        if not workloads.REFERENCE_PATH.is_file():
            raise BenchError("no reference data; run perfbench/make_reference.py")
        wl = workloads.WORKLOADS[args.workload](args.seed)
        wl.warm_up()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    own_setup = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    try:
        wcn_failure = workloads.check_worst_case_noise(wl.reference)
    except Exception as exc:  # a missing or changed API fails the check
        wcn_failure = f"worst_case_noise check raised {type(exc).__name__}: {exc}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed),
              "frames_per_op": wl.frames_per_op}
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        metrics, plain, replay, tracer = traced(wl)
        phases = [plain, replay]
        record["absent_targets"] = tracer.absent
        record["spans_file"] = f"{args.workload}-spans.npz"
        with open(OUT_DIR / record["spans_file"], "wb") as fh:
            numpy.savez(fh, self_ns=tracer.self_ns(), **tracer.spans())
        shown = {k: v for k, v in metrics.items() if k.startswith("trace.")}
    else:
        phase = run_ops(wl, args.seconds, MIN_OPS)
        phases = [phase]
        record["setup_samples_s"] = setup_samples(args, own_setup)
        metrics = end_to_end(phase, record["setup_samples_s"], wl.frames_per_op)
        shown = dict(metrics)
    failures = [wcn_failure] + [f for p in phases for f in p["failures"]]
    failed = [f for f in failures if f is not None]
    record.update(metrics=metrics, phases=phases, failure_messages=failed[:20])
    with open(OUT_DIR / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{sum(p['ops'] for p in phases)} ops, {len(failed)} of {len(failures)} checks "
          "failed; " + ", ".join(f"{k}={v:.6g}" for k, v in shown.items()))
    if record.get("absent_targets"):
        print(f"  absent trace targets: {', '.join(record['absent_targets'])}")
    for msg in failed[:5]:
        print(f"  FAILED {msg}")
    units = _declared("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(failures),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
