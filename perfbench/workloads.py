"""The benchmark workloads: inputs derived from the workload seed, one
closed-loop operation per call, and the output checks that feed `failed`.

Library functions are looked up through their module at call time
(`_lib("channel").run_point`), so the tracing wrappers that `tracing.py`
patches into those modules see every call the workloads make.
"""
from __future__ import annotations

import importlib
import inspect
import json
import math
from pathlib import Path

import numpy as np

N = 1024
M_QAM = 16
LACO_LAYERS = 9
P_E = 1e-2
# Frames per Monte Carlo op. mc_uniform_flat runs exactly one batch of the
# library's default size (500) per op, so its working set is the default
# batch's; closed_loop_selective runs half a batch so that a run still holds
# >= 100 ops (p90 with ten samples beyond it) within the run length.
MC_FRAMES = 500
CL_FRAMES = 250
MC_POINTS = (("laco", 14.0), ("laco", 20.0), ("laco", 26.0),
             ("ado", 18.0), ("ado", 24.0), ("haco", 22.0), ("haco", 30.0))
SNRS_DB = (6.0, 10.0, 14.0, 18.0, 22.0, 26.0)
# Per-op SER tolerance in combined standard errors (one op and the reference
# mean, both from the spread of the reference run's per-op SERs). Chosen from
# the reference run's own per-op z-scores, so that a correct run practically
# never trips it.
SER_Z = 7.0
POWER_RTOL = 1e-9
WCN_RTOL = 1e-9
# Effective SNR of the worst_case_noise reference config (LACO-9, 16-QAM, flat).
WCN_P_EFF = 10.0
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _lib(module: str):
    # importlib, not attribute access: `oofdm.allocate` is the re-exported
    # function, the module lives in sys.modules["oofdm.allocate"]
    return importlib.import_module(f"oofdm.{module}")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def point_key(scheme: str, gamma_db: float) -> str:
    return f"{scheme}@{gamma_db:g}dB"


def mc_config(scheme: str, gamma_db: float):
    """Uniform 16-QAM config of one SER-curve point (electrical SNR, unit noise)."""
    layers = LACO_LAYERS if scheme == "laco" else None
    p_eff = _lib("channel").gamma_to_p_eff(scheme, gamma_db, 1.0, layers)
    return _lib("multilayer").SchemeConfig.uniform(scheme, N, M_QAM, p_eff, layers)


def wcn_config():
    """Uniform square-QAM LACO-9 config whose worst-case noise is recorded."""
    return _lib("multilayer").SchemeConfig.uniform("laco", N, M_QAM, WCN_P_EFF,
                                                   LACO_LAYERS)


def check_worst_case_noise(reference: dict) -> str | None:
    """Run-level check: worst_case_noise bin powers against the recorded ones."""
    p_v = _lib("channel").ChannelProfile.flat(N).bin_noise_power()
    got = np.asarray(_lib("rcn").worst_case_noise(wcn_config(), p_v).bin_powers, dtype=float)
    want = np.asarray(reference["worst_case_noise"]["bin_powers"], dtype=float)
    if got.shape != want.shape:
        return f"worst_case_noise: {got.shape[0]} layers, recorded {want.shape[0]}"
    rel = np.abs(got - want) / np.maximum(np.abs(want), np.finfo(float).tiny)
    if not np.all(rel <= WCN_RTOL):
        return f"worst_case_noise: bin powers differ by {float(np.max(rel)):.3g} relative"
    return None


def _max_bits() -> int:
    return inspect.signature(_lib("allocate").allocate).parameters["max_bits"].default


def allocation_failure(res, budget: float, max_bits: int) -> str | None:
    """Allocator invariants that every correct allocation satisfies."""
    if not res.converged:
        return f"{res.mode}: not converged after {res.iterations} iterations"
    total = float(np.sum(res.powers))
    if not abs(total - budget) <= POWER_RTOL * budget:
        return f"{res.mode}: powers sum to {total!r}, budget {budget!r}"
    bits = np.asarray(res.bits)
    if bits.min() < 0 or bits.max() > max_bits:
        return f"{res.mode}: bits outside [0, {max_bits}]"
    return None


def _valid_rate(x) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


class Workload:
    """One workload. The constructor is config and channel construction;
    `warm_up` fills lazy caches; `op(i)` is the timed, closed-loop call;
    `check(i, out)` returns a failure message or None; `phase_checks` returns
    the run-level checks over the ops since the previous call."""
    name = ""
    cycle = 1
    frames_per_op: int  # Monte Carlo frames simulated per op
    # whole cycles in the traced run, each run untraced and traced (an even
    # number, so that either order comes first equally often; each phase
    # takes 13-16 seconds on the reference machine)
    trace_cycles = 2

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.reference = load_reference()

    def warm_up(self):
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    def phase_checks(self) -> list:
        return []


class McUniformFlat(Workload):
    """`run_point` over the uniform 16-QAM SER-curve points on a flat channel."""
    name = "mc_uniform_flat"
    cycle = len(MC_POINTS)
    frames_per_op = MC_FRAMES
    trace_cycles = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        self.points = [MC_POINTS[k] for k in self.rng.permutation(len(MC_POINTS))]
        self.base = int(self.rng.integers(2 ** 32))
        self.configs = [mc_config(s, g) for s, g in self.points]
        self.profile = _lib("channel").ChannelProfile.flat(N)

    def warm_up(self):
        for cfg in self.configs:
            _lib("channel").run_point(cfg, self.profile, 8, (self.base,))

    def op(self, i: int):
        cfg = self.configs[i % self.cycle]
        return _lib("channel").run_point(cfg, self.profile, MC_FRAMES, (self.base, i))

    def check(self, i: int, out) -> str | None:
        scheme, gamma = self.points[i % self.cycle]
        ref = self.reference["ser"][point_key(scheme, gamma)]
        ser = float(out["ser"])
        if not _valid_rate(ser):
            return f"{point_key(scheme, gamma)}: SER {ser!r} outside [0, 1]"
        se = ref["op_sd"] * math.sqrt(1.0 + 1.0 / ref["ops"])
        if abs(ser - ref["ser"]) > SER_Z * se:
            return (f"{point_key(scheme, gamma)}: SER {ser:.6g} vs reference "
                    f"{ref['ser']:.6g} (tolerance {SER_Z * se:.3g})")
        return None


class ClosedLoopSelective(Workload):
    """One step of the CLI `allocate --validate-runs` flow per design point on
    the exponential channel, cycling through SNRS_DB: aware and unaware
    `allocate`, `evaluate_ser` on the aware allocation, then `run_point` on it."""
    name = "closed_loop_selective"
    cycle = len(SNRS_DB)
    frames_per_op = CL_FRAMES
    trace_cycles = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        self.snrs = [SNRS_DB[k] for k in self.rng.permutation(len(SNRS_DB))]
        self.base = int(self.rng.integers(2 ** 32))
        self.channel = _lib("channel").ChannelProfile.exponential(N)
        self.p_v = self.channel.bin_noise_power()
        self.max_bits = _max_bits()
        self._errors = self._symbols = 0.0

    def _p_eff(self, i: int) -> float:
        return 10.0 ** (self.snrs[i % self.cycle] / 10.0)

    def warm_up(self):
        for b in range(1, self.max_bits + 1):
            _lib("constellation").avg_neighbor_counts(2 ** b)
        aware = _lib("allocate").allocate(self.channel, self._p_eff(0), P_E, mode="rcn_aware")
        cfg = _lib("multilayer").SchemeConfig.from_allocation(N, aware.bits, aware.powers)
        _lib("ser").evaluate_ser(cfg, self.p_v, "rcn_aware")
        _lib("channel").run_point(cfg, self.channel, 8, (self.base,))

    def op(self, i: int):
        alloc = _lib("allocate").allocate
        p_eff = self._p_eff(i)
        aware = alloc(self.channel, p_eff, P_E, mode="rcn_aware")
        unaware = alloc(self.channel, p_eff, P_E, mode="rcn_unaware")
        cfg = _lib("multilayer").SchemeConfig.from_allocation(N, aware.bits, aware.powers)
        report = _lib("ser").evaluate_ser(cfg, self.p_v, "rcn_aware")
        point = _lib("channel").run_point(cfg, self.channel, CL_FRAMES, (self.base, i))
        return aware, unaware, cfg, report, point

    def check(self, i: int, out) -> str | None:
        aware, unaware, cfg, report, point = out
        budget = N ** 2 * self._p_eff(i)
        for res in (aware, unaware):
            failure = allocation_failure(res, budget, self.max_bits)
            if failure:
                return failure
        if aware.total_bits > unaware.total_bits:
            return f"aware loads {aware.total_bits} bits, unaware {unaware.total_bits}"
        if not _valid_rate(float(report.overall)):
            return f"evaluate_ser: overall SER {report.overall!r} outside [0, 1]"
        ser = float(point["ser"])
        if not _valid_rate(ser):
            return f"run_point: SER {ser!r} outside [0, 1]"
        symbols = CL_FRAMES * cfg.n_loaded
        self._errors += ser * symbols
        self._symbols += symbols
        return None

    def phase_checks(self) -> list:
        agg = self._errors / self._symbols if self._symbols else 0.0
        self._errors = self._symbols = 0.0
        if agg > 1.1 * P_E:
            return [f"aggregate SER {agg:.4g} above 1.1 x target {P_E:g}"]
        return [None]


WORKLOADS = {w.name: w for w in (McUniformFlat, ClosedLoopSelective)}
