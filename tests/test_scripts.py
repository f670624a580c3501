"""Tests for the bench scripts: the shared A/B harness in `scripts/bench_model.py`, the
fresh interpreters of `scripts/bench_cold_start.py`, and what the benchmark workloads in
`perfbench/workloads.py` and `bench_model`'s calls use of the package."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import oofdm

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))
bench_model = importlib.import_module("bench_model")
workloads = importlib.import_module("workloads")  # bench_model puts perfbench/ on sys.path


@pytest.mark.parametrize("script", ["bench_model", "bench_run_point", "bench_cold_start"])
def test_scripts_import(script):
    # each A/B script imports its operating points from perfbench/workloads.py,
    # so a renamed constant there fails here
    assert importlib.import_module(script).REPEATS >= 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_workload_runs_one_checked_op(name):
    # the benchmark runs the committed package: a deleted function or a parameter its
    # workloads pass positionally fails the run, so one op of each must pass its check
    workload = workloads.WORKLOADS[name](seed=5)
    workload.warm_up()
    out = workload.op(0)
    assert workload.check(0, out) is None


def test_bench_model_calls_run():
    # every call `bench_model.py` times, on this checkout's package
    for call in bench_model.calls(oofdm).values():
        call()


def test_race_warms_up_once_then_alternates_the_trees():
    calls = []
    work = {tree: {name: (lambda tree=tree, name=name: calls.append((tree, name)))
                   for name in ("a", "b")} for tree in ("change", "parent")}
    walls = bench_model.race(work, 3)
    order = [("change", "parent"), ("parent", "change"), ("change", "parent")]
    expected = [(tree, name) for name in ("a", "b")
                for rnd in [("change", "parent")] + order for tree in rnd]
    assert calls == expected
    assert all(len(w) == 3 and min(w) >= 0.0 for tree in walls.values() for w in tree.values())


def test_race_of_one_tree():
    calls = []
    walls = bench_model.race({"change": {"a": lambda: calls.append("a")}}, 2)
    assert calls == ["a"] * 3 and len(walls["change"]["a"]) == 2


def test_ratios():
    got = bench_model.ratios([1.0, 3.0, 2.0], [2.0, 2.0, 2.0])
    assert got == {"median_ratio": 1.0, "change_faster_share": pytest.approx(1 / 3)}


def test_commit_label_is_dirty_only_when_src_differs(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)
    src = tmp_path / "src"
    src.mkdir()
    (src / "module.py").write_text("x = 1\n")
    (tmp_path / "BENCH_model.json").write_text("{}\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    sha = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True, check=True).stdout.strip()
    assert bench_model.commit(src) == sha
    # a rewritten output file and a new file outside src/ leave the label clean
    (tmp_path / "BENCH_model.json").write_text('{"calls": {}}\n')
    (tmp_path / "notes.md").write_text("notes\n")
    assert bench_model.commit(src) == sha
    (src / "module.py").write_text("x = 2\n")
    assert bench_model.commit(src) == f"{sha}-dirty"


def test_ab_refuses_a_parent_outside_a_git_checkout(monkeypatch, tmp_path, capsys):
    # a git archive export was timed and recorded as "commit": null
    def never(*args):
        raise AssertionError("a tree was loaded or timed")
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    monkeypatch.setattr(bench_model, "load", never)
    monkeypatch.setattr(bench_model, "race", never)
    parent = tmp_path / "export" / "src"
    parent.mkdir(parents=True)
    monkeypatch.setattr(sys, "argv", ["bench_model.py", "--parent", str(parent)])
    with pytest.raises(SystemExit) as exc:
        bench_model.ab(bench_model.__doc__, never, 1)
    assert exc.value.code == f"--parent {parent} is not inside a git checkout: clone the parent commit instead"


def test_cold_start_runs_each_tree_in_its_own_interpreters(monkeypatch, tmp_path):
    # no child is started: a stand-in for subprocess.run records each command and
    # reports a fixed time, the parent tree's twice the change's
    bench_cold_start = importlib.import_module("bench_cold_start")
    srcs = {"change": tmp_path / "change" / "src", "parent": tmp_path / "parent" / "src"}
    commands = []

    def run(argv, env, **kwargs):
        commands.append((argv, env["PYTHONPATH"]))
        wall_s = 2.0 if env["PYTHONPATH"] == str(srcs["parent"]) else 1.0
        return subprocess.CompletedProcess(argv, 0, stdout=f"[{wall_s}, false]\n")
    monkeypatch.setattr(bench_cold_start.subprocess, "run", run)
    reports = bench_cold_start.measure(srcs, 3)
    rounds = [("change", "parent")] * 2 + [("parent", "change"), ("change", "parent")]
    expected = [(bench_cold_start.PATHS[name], str(srcs[label]))
                for name in bench_cold_start.PATHS for rnd in rounds for label in rnd]
    assert [(argv[2], path) for argv, path in commands] == [
        (bench_cold_start.CHILD.format(call=call), path) for call, path in expected]
    assert all(argv[:2] == [sys.executable, "-c"] for argv, _ in commands)
    assert reports == {label: {name: [[wall_s, False]] * 3 for name in bench_cold_start.PATHS}
                       for label, wall_s in (("change", 1.0), ("parent", 2.0))}
