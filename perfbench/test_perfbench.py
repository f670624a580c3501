"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""
import functools
import json
import re
import shutil
import subprocess
import sys

import bootstrap
import numpy as np
import pytest

import run
import tracing
import workloads as wl

with open(bootstrap.ROOT / "BENCHMARK.json") as _fh:
    BENCH = json.load(_fh)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def _main(capsys, monkeypatch, tmp_path, *args):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in BENCH[kind]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert set(m["name"] for m in BENCH["workloads"]) == set(wl.WORKLOADS)


def test_tracer_metric_names_match_the_declared_per_layer_metrics():
    names = set(tracing.Tracer().metrics()) | {"trace.wall_s", "trace.overhead_frac"}
    assert names == set(_declared("per_layer"))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_the_declared_ones(capsys, monkeypatch, tmp_path, trace):
    monkeypatch.setattr(wl.ClosedLoopSelective, "trace_cycles", 1)
    result = _main(capsys, monkeypatch, tmp_path, "--workload", "closed_loop_selective", "--seed", "5",
                   "--seconds", "0", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 7
    declared = _declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_corrupted_allocation_counts_as_failed(capsys, monkeypatch, tmp_path):
    alloc_mod = sys.modules["oofdm.allocate"]
    real = alloc_mod.allocate

    @functools.wraps(real)
    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        res.powers = res.powers * (1.0 + 1e-6)
        return res

    monkeypatch.setattr(alloc_mod, "allocate", corrupted)
    result = _main(capsys, monkeypatch, tmp_path, "--workload", "closed_loop_selective",
                   "--seed", "5", "--seconds", "0", "--trace", "0")
    assert not result["correct"]
    # every op fails; the run-level checks (worst-case noise, aggregate SER) pass
    assert result["failed"] == wl.ClosedLoopSelective.cycle == result["attempted"] - 2


def test_corrupted_ser_counts_as_failed():
    w = wl.McUniformFlat(3)
    out = w.op(0)
    assert w.check(0, out) is None
    assert w.check(0, dict(out, ser=out["ser"] * 1.2 + 0.01)) is not None
    assert w.check(0, dict(out, ser=float("nan"))) is not None


def test_corrupted_allocator_invariants_count_as_failed():
    w = wl.ClosedLoopSelective(2)
    w.warm_up()
    aware, unaware, cfg, report, point = w.op(0)
    assert w.check(0, (aware, unaware, cfg, report, point)) is None
    budget = wl.N ** 2 * w._p_eff(0)
    assert wl.allocation_failure(aware, budget * (1 + 1e-6), w.max_bits) is not None
    assert w.check(0, (unaware, aware, cfg, report, point)) is not None  # aware above unaware
    assert w.check(0, (aware, unaware, cfg, report, dict(point, ser=-0.1))) is not None
    report.overall = float("nan")
    assert w.check(0, (aware, unaware, cfg, report, point)) is not None
    aware.bits[aware.bits.argmax()] = w.max_bits + 1
    assert wl.allocation_failure(aware, budget, w.max_bits) is not None


def test_closed_loop_aggregate_ser_above_target_fails():
    w = wl.ClosedLoopSelective(4)
    w.warm_up()
    out = w.op(0)
    assert w.check(0, out) is None
    assert w.phase_checks() == [None]
    assert w.check(0, out[:4] + (dict(out[4], ser=0.5),)) is None  # per-op SER is in [0, 1]
    assert w.phase_checks()[0] is not None


def test_worst_case_noise_check_detects_a_changed_bin_power():
    ref = wl.load_reference()
    assert wl.check_worst_case_noise(ref) is None
    ref["worst_case_noise"]["bin_powers"][2] *= 1 + 1e-8
    assert wl.check_worst_case_noise(ref) is not None


def _check_spans(tracer):
    sp = tracer.spans()
    assert len(sp["start_ns"]) > 0 and np.all(sp["end_ns"] >= sp["start_ns"])
    child = np.flatnonzero(sp["parent"] >= 0)
    par = sp["parent"][child]
    assert np.all(par < child)
    assert np.all(sp["start_ns"][par] <= sp["start_ns"][child])
    assert np.all(sp["end_ns"][child] <= sp["end_ns"][par])
    assert np.all(sp["op"][child] == sp["op"][par])
    own = tracer.self_ns()
    assert np.all(own >= 0)
    roots = sp["parent"] < 0
    assert own.sum() == (sp["end_ns"] - sp["start_ns"])[roots].sum()


@pytest.mark.parametrize("cls", [wl.McUniformFlat, wl.ClosedLoopSelective])
def test_spans_nest_and_self_times_are_nonnegative(cls):
    w = cls(6)
    w.warm_up()
    tracer = tracing.Tracer()
    with tracer:
        for i in range(2):
            tracer.op_id = i
            w.op(i)
    _check_spans(tracer)
    m = tracer.metrics()
    assert not tracer.absent
    assert m["channel.run_point.calls"] == 2 and m["constellation.detect.calls"] > 0
    assert m["multilayer.transmit.frames"] == 2 * cls.frames_per_op
    if cls is wl.ClosedLoopSelective:
        assert m["allocate.allocate.calls"] == 4 and m["ser.evaluate_ser.calls"] == 2
        assert m["rcn.layer_error_power.calls"] > 0


def test_tracer_restores_the_package_and_reports_absent_targets():
    rcn, alloc_mod = sys.modules["oofdm.rcn"], sys.modules["oofdm.allocate"]
    before = (rcn.layer_error_power, alloc_mod.layer_error_power)
    targets = tracing.TARGETS + (("numerics.gone", "oofdm.numerics", "gone", None),
                                 ("nowhere.fn", "oofdm.nowhere", "fn", None))
    tracer = tracing.Tracer(targets)
    with tracer:
        assert rcn.layer_error_power is not before[0]
        assert alloc_mod.layer_error_power is rcn.layer_error_power
    assert (rcn.layer_error_power, alloc_mod.layer_error_power) == before
    assert tracer.absent == ["numerics.gone", "nowhere.fn"]
    assert tracer.metrics()["numerics.gone.calls"] == 0


def test_fails_without_package_sources(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_uniform_flat",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
