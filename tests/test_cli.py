"""Tests for the command-line experiment runner."""

import csv
import io
import json
import platform
import re
import shlex
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import event, given, settings, strategies as st

from layer_signals import layer_frames
from oofdm.channel import ChannelProfile, gamma_to_p_eff, post_eq_noise, run_point
from oofdm.cli import _apply_config, _parse_grid, build_parser, main
from oofdm.modems import layer_kinds
from oofdm.multilayer import SchemeConfig, draw_symbols, modulate
from txrx import receive

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_invocations():
    """Every `oofdm ...` line of the README's "Command line" code block, with
    backslash continuations joined."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("oofdm ")]


def test_readme_invocations_parse():
    invocations = _readme_invocations()
    assert len(invocations) >= 5
    parser = build_parser()
    for line in invocations:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_readme_quick_start_runs(capsys):
    # the Quick start block uses the package's public names only
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_negative_grid_start_parses_in_the_equals_form():
    # "--gammas-eff -10,0,10" reads -10,0,10 as an unknown option
    args = build_parser().parse_args(["allocate", "--gammas-eff=-10,0,10"])
    assert _parse_grid(args.gammas_eff) == [-10.0, 0.0, 10.0]


def test_readme_flag_table_matches_parser():
    section = README.read_text().split("## Command line", 1)[1]
    rows = dict(re.findall(r"^\| (`[\w-]+`|every one) \| (.*) \|$", section, re.M))
    common = set(re.findall(r"--[\w-]+", rows.pop("every one")))
    subparsers = build_parser().commands
    assert {name.strip("`") for name in rows} == set(subparsers)
    for name, flags in rows.items():
        parser = subparsers[name.strip("`")]
        options = {opt for a in parser._actions for opt in a.option_strings} - {"-h", "--help"}
        assert common | set(re.findall(r"--[\w-]+", flags)) == options, name


def test_parse_grid():
    assert _parse_grid("0,10,20") == [0.0, 10.0, 20.0]
    assert _parse_grid("5:15:5") == [5.0, 10.0, 15.0]


@pytest.mark.parametrize("text", ["5:10:0", "5:10:-1"])
def test_parse_grid_rejects_nonpositive_step(text):
    with pytest.raises(ValueError):
        _parse_grid(text)


def test_ser_with_zero_step_grid_is_an_error(tmp_path, capsys):
    rc = main(["ser", "--schemes", "haco", "--gammas", "5:10:0", "--runs", "10",
               "--n", "256", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_ser_with_zero_runs_is_an_error(tmp_path, capsys):
    rc = main(["ser", "--schemes", "haco", "--gammas", "20", "--runs", "0",
               "--n", "256", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "ser.csv").exists()


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_zero_runs_error_names_the_flag(tmp_path, capsys, via_config):
    # named the engine's internal batch: "frames and batch must be at least 1, got 0 and 500"
    out = tmp_path / "out"
    argv = ["ser", "--schemes", "haco", "--gammas", "20", "--n", "64", "--out", str(out)]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"runs": 0}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--runs", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --runs must be >= 1, got 0\n"
    assert not out.exists()


def test_ser_default_laco_scheme(tmp_path):
    # laco without a layer count uses all log2(N/2) layers
    rc = main(["ser", "--schemes", "laco", "--gammas", "20", "--runs", "50",
               "--n", "256", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "ser.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["scheme"] for r in rows] == ["laco"]
    assert 0.0 <= float(rows[0]["simulated"]) <= 1.0


def test_power_relations_command(capsys):
    rc = main(["power-relations", "--scheme", "laco", "--peff", "1",
               "--layers", "9", "--validate", "200", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "P_elec=4.75" in out
    assert "monte carlo" in out


def test_power_relations_defaults_laco_layers(capsys):
    # laco without --layers uses every layer of the frame: 9 at N = 1024
    assert main(["power-relations", "--scheme", "laco", "--validate", "50"]) == 0
    default = capsys.readouterr().out
    assert main(["power-relations", "--scheme", "laco", "--validate", "50",
                 "--layers", "9"]) == 0
    assert capsys.readouterr().out == default
    assert "P_elec=4.75" in default


@pytest.mark.parametrize("peff", ["0", "-1", "nan", "inf"])
def test_power_relations_with_nonpositive_peff_is_an_error(capsys, peff):
    # 0 ended in a ZeroDivisionError traceback, -1 printed P_opt=nan and exited
    # 0, and inf printed P_elec=inf and exited 0
    rc = main(["power-relations", "--scheme", "aco", "--peff", peff, "--validate", "10",
               "--n", "64"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "effective power must be positive" in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scheme", ["dco", "laco"])
def test_power_relations_with_overflowing_peff_is_an_error(capsys, scheme):
    # a finite 1e308 printed P_elec=inf and exited 0; laco also printed a
    # numpy overflow warning
    rc = main(["power-relations", "--scheme", scheme, "--peff", "1e308", "--n", "64"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "overflows" in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # eps = N^2 * P_eff / N' overflowed to inf: an IndexError traceback
    "ser --gammas 3080 --runs 5 --schemes laco",
    "rcn-power --gammas-eff 3080 --runs 5",
    # simulated SER 1.0 beside a model SER 0.0, exit 0
    "ser --gammas 3060 --schemes aco",
    # an "invalid value encountered in cast" warning, then total_bits 0, exit 0
    "allocate --gammas-eff 3080",
    # P_elec=nan and P_elec=inf, exit 0
    "power-relations --scheme aco --peff 7e305 --validate 5",
    "power-relations --scheme aco --peff 4e304 --validate 1000",
])
def test_overflowing_power_is_an_error(tmp_path, capsys, argv):
    argv = argv.split() + ["--n", "64"]
    rc = main(argv if argv[0] == "power-relations" else argv + ["--out", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_power_relations_with_negative_validate_is_an_error(capsys):
    # printed "monte carlo (-5 frames): P_elec=-0 (100.00%)" and exited 0
    rc = main(["power-relations", "--scheme", "aco", "--validate", "-5", "--n", "64"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "--validate" in captured.err
    assert "monte carlo" not in captured.out


def test_power_relations_with_off_grid_order_fails_before_printing(capsys):
    # printed both closed-form lines, then the order error, and exited 1
    rc = main(["power-relations", "--scheme", "aco", "--m", "3", "--validate", "10",
               "--n", "64"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: constellation order must be a power of two >= 2, got 3\n"
    assert captured.out == ""


@pytest.mark.parametrize("scheme", ["aco", "dco", "pam", "ado", "haco"])
def test_power_relations_with_bad_frame_length_is_an_error(capsys, scheme):
    # a fixed-depth scheme never checked --n: N = 4 exited 0
    rc = main(["power-relations", "--scheme", scheme, "--n", "4"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: frame length must be a power of two >= 8, got 4\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", [["ser", "--schemes", "laco", "--gammas", "10", "--runs", "5"],
                                     ["rcn-stats", "--gammas-eff", "10", "--runs", "5"],
                                     ["allocate", "--gammas-eff", "10"]])
def test_negative_frame_length_is_an_error(tmp_path, capsys, command):
    # printed numpy's "negative dimensions are not allowed"
    out = tmp_path / "out"
    assert main(command + ["--n", "-8", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: frame length must be a power of two >= 8, got -8\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["ser", "--n", "64", "--runs", "5", "--gammas", "10"],
    ["power-relations", "--scheme", "laco", "--n", "64", "--validate", "5"],
    ["allocate", "--n", "64", "--gammas-eff", "10", "--validate-runs", "5"],
    ["rcn-power", "--n", "64", "--runs", "5", "--gammas-eff", "10"],
    ["rcn-stats", "--n", "64", "--runs", "5", "--gammas-eff", "0", "--bin", "4"],
])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_negative_seed_is_an_error(tmp_path, capsys, argv, via_config):
    # printed numpy's "expected non-negative integer", naming no flag
    out = tmp_path / "out"
    argv = argv + (["--out", str(out)] if argv[0] != "power-relations" else [])
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--seed", "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0, got -1\n"
    assert captured.out == ""
    assert not out.exists()


def test_ser_with_zero_order_is_an_error(tmp_path, capsys):
    rc = main(["ser", "--m", "0", "--schemes", "laco", "--gammas", "20", "--runs", "10",
               "--n", "64", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "ser.csv").exists()


@pytest.mark.parametrize("command", [["ser", "--schemes", "laco", "--gammas", "20"],
                                     ["rcn-power", "--gammas-eff", "20"]])
def test_laco_with_zero_frame_length_is_an_error(tmp_path, capsys, command):
    rc = main(command + ["--n", "0", "--runs", "10", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "frame length" in err


@pytest.mark.parametrize("argv", [
    ["rcn-power", "--gammas-eff", "nan"],
    ["ser", "--schemes", "laco", "--gammas", "inf"],
    ["ser", "--schemes", "laco", "--gammas", "0:inf:5"],
    ["ser", "--schemes", "laco", "--gammas", "5:4:1"],   # empty grid
    ["ser", "--schemes", "laco", "--gammas", "1:2:3:4"],
    ["ser", "--schemes", "laco", "--gammas", "5,"],
])
def test_nonfinite_or_empty_grid_is_an_error(tmp_path, capsys, argv):
    rc = main(argv + ["--n", "64", "--runs", "10", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "grid" in err
    assert not list(tmp_path.glob("*.csv"))


def test_rcn_power_command(tmp_path):
    rc = main(["rcn-power", "--gammas-eff", "10", "--runs", "100",
               "--n", "256", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "rcn_power.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7  # log2(256/2) = 7 layers at one SNR point
    assert float(rows[0]["measured_delta_power"]) > 0
    assert float(rows[0]["estimated_3rims"]) > float(rows[0]["estimated_1rim"])
    manifest = json.loads((tmp_path / "rcn-power_manifest.json").read_text())
    assert manifest["subcommand"] == "rcn-power"
    assert manifest["outputs"]


def test_manifests_of_identical_runs_are_equal(tmp_path):
    # the manifest holds the resolved options, not a handler repr, whose address changes
    # from process to process: two identical runs differ in their wall time only
    argv = ["ser", "--schemes", "aco", "--gammas", "10", "--runs", "20", "--n", "64",
            "--out", str(tmp_path)]
    texts = []
    for _ in range(2):
        assert main(list(argv)) == 0
        texts.append((tmp_path / "ser_manifest.json").read_text())
    assert not any("<function" in text for text in texts)
    a, b = (json.loads(text) for text in texts)
    for m in (a, b):
        assert m.pop("argv") == argv
        assert 0.0 < m.pop("wall_s") < 60.0
    assert a == b
    # provenance: the versions of the interpreter and libraries that ran it
    assert (a["python"], a["numpy"], a["scipy"]) == (platform.python_version(),
                                                     np.__version__, scipy.__version__)

def test_ser_rows_are_seeded_per_grid_point(tmp_path):
    # point i of the grid is run_point of its own config, seeded (--seed, i)
    rc = main(["ser", "--schemes", "haco", "--gammas", "18,26", "--runs", "300", "--seed", "1",
               "--n", "256", "--out", str(tmp_path)])
    assert rc == 0
    rows = _ser_rows(tmp_path)
    assert [float(r["gamma_db"]) for r in rows] == [18.0, 26.0]
    for i, row in enumerate(rows):
        gamma = float(row["gamma_db"])
        cfg = SchemeConfig.uniform("haco", 256, 16, gamma_to_p_eff("haco", gamma, 1.0, 2), 2)
        assert float(row["simulated"]) == run_point(cfg, ChannelProfile.flat(256), 300, (1, i))["ser"]
    assert float(rows[0]["simulated"]) > float(rows[1]["simulated"])


def test_ser_command_with_frame_dump(tmp_path):
    rc = main(["ser", "--schemes", "haco", "--gammas", "20", "--runs", "100",
               "--n", "256", "--out", str(tmp_path), "--dump-frames"])
    assert rc == 0
    with open(tmp_path / "ser.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["scheme"] == "haco"
    assert 0.0 <= float(rows[0]["simulated"]) <= 1.0
    assert float(rows[0]["rcn_aware"]) >= float(rows[0]["rcn_unaware"])
    with open(tmp_path / "frame_haco.csv") as fh:
        frame = list(csv.DictReader(fh))
    assert len(frame) == 256
    assert "s_hat_1" in frame[0]


@pytest.mark.parametrize("scheme, selective", [("haco", False), ("ado", True)])
def test_frame_dump_is_frame_0_of_point_0(tmp_path, scheme, selective):
    # the dump is frame 0 of point 0's first block, and its s_hat columns are the waveform
    # oracle's decisions on its y, remodulated
    argv = ["ser", "--schemes", scheme, "--gammas", "20,25", "--runs", "100", "--n", "256",
            "--seed", "3", "--dump-frames", "--out", str(tmp_path)] + ["--selective"] * selective
    assert main(argv) == 0
    with open(tmp_path / f"frame_{scheme}.csv") as fh:
        frame = np.array(list(csv.reader(fh))[1:], dtype=float)
    layers = len(layer_kinds(scheme, 256))
    cfg = SchemeConfig.uniform(scheme, 256, 16, gamma_to_p_eff(scheme, 20.0, 1.0, layers), layers)
    profile = ChannelProfile.exponential(256) if selective else ChannelProfile.flat(256)
    # point 0 draws batch 0 from child 0 of SeedSequence((--seed, 0)), its symbols whole;
    # a row block at N = 256 holds 256 frames, so the first block is the whole batch
    rng = np.random.default_rng(np.random.SeedSequence((3, 0)).spawn(1)[0])
    x = modulate(cfg, [idx[:256] for idx in draw_symbols(cfg, rng, 100)])
    v = post_eq_noise(profile, rng, len(x), cfg.loaded_bins)
    if selective:  # the noise spectrum at the loaded bins, none on the others
        half = np.zeros((len(x), 129), dtype=complex)
        half[:, cfg.loaded_bins] = v[..., 0] + 1j * v[..., 1]
        v = np.fft.irfft(half, 256)
    y = x + v
    np.testing.assert_array_equal(frame[:, 0], np.arange(256))
    np.testing.assert_array_equal(frame[:, 1], x[0])
    np.testing.assert_array_equal(frame[:, 2], y[0])
    s_hat, _ = layer_frames(cfg, receive(y[:1], cfg))
    np.testing.assert_array_equal(frame[:, 3:], np.concatenate(s_hat).T)


def test_failed_run_writes_nothing(tmp_path, capsys):
    # files are written once the whole run has succeeded: the unknown second
    # scheme used to leave the output directory and frame_aco.csv behind
    out = tmp_path / "d"
    rc = main(["ser", "--schemes", "aco,qam", "--gammas", "10", "--runs", "10", "--n", "64",
               "--dump-frames", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_wrote_line_names_every_output_and_the_manifest(tmp_path, capsys):
    rc = main(["ser", "--schemes", "aco,haco", "--gammas", "10", "--runs", "20", "--n", "64",
               "--dump-frames", "--out", str(tmp_path)])
    assert rc == 0
    manifest = tmp_path / "ser_manifest.json"
    outputs = json.loads(manifest.read_text())["outputs"]
    assert outputs == [str(tmp_path / name) for name in ("frame_aco.csv", "frame_haco.csv", "ser.csv")]
    assert capsys.readouterr().out == f"wrote {', '.join(outputs)} and {manifest}\n"


def test_rcn_stats_command(tmp_path):
    rc = main(["rcn-stats", "--gammas-eff", "0", "--runs", "200", "--n", "256",
               "--bin", "64", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "rcn_covariance.csv") as fh:
        rows = list(csv.DictReader(fh))
    diag = [r for r in rows if r["t1"] == r["t2"]]
    assert all(abs(float(r["abs_rho"]) - 1.0) < 1e-6 for r in diag)
    assert (tmp_path / "rcn_cdf.csv").exists()


@pytest.mark.parametrize("probe", ["0", "512", "1024", "-4"])
def test_rcn_stats_with_unaffected_probe_is_an_error(tmp_path, capsys, probe):
    # the bin is checked before any grid point runs
    rc = main(["rcn-stats", "--n", "1024", "--runs", "10", f"--bin={probe}",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"probe bin {probe} is not affected by any layer" in err
    assert not list(tmp_path.glob("*.csv"))


def test_rcn_stats_with_one_frame_is_an_error(tmp_path, capsys):
    # one frame has no spread: the covariance was written as abs_rho = nan;
    # the failed run creates no output directory
    out = tmp_path / "out"
    rc = main(["rcn-stats", "--n", "64", "--runs", "1", "--bin", "16", "--gammas-eff", "10",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no clipping-noise spread" in err and "1 frame(s)" in err and "--runs" in err
    assert not out.exists()


def test_allocate_command(tmp_path):
    rc = main(["allocate", "--gammas-eff", "18", "--pe", "1e-2",
               "--validate-runs", "200", "--n", "256", "--selective",
               "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "allocation_summary.json").read_text())
    assert {e["mode"] for e in summary} == {"rcn_aware", "rcn_unaware"}
    for entry in summary:
        assert entry["converged"]
        assert "simulated_ser" in entry
    aware = next(e for e in summary if e["mode"] == "rcn_aware")
    unaware = next(e for e in summary if e["mode"] == "rcn_unaware")
    assert aware["total_bits"] <= unaware["total_bits"]
    assert (tmp_path / "allocation_rcn_aware_18dB.csv").exists()


def test_allocation_summary_holds_the_allocator_trace(tmp_path):
    # AllocationResult.history was built but never written
    rc = main(["allocate", "--gammas-eff", "14,22", "--n", "256", "--selective",
               "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "allocation_summary.json").read_text())
    assert max(e["iterations"] for e in summary) > 1
    for entry in summary:
        history = entry["history"]
        assert len(history) == entry["iterations"]
        keys = {"total_bits", "phi_size"} | ({"noise_change"} if entry["mode"] == "rcn_aware" else set())
        assert all(step.keys() == keys for step in history)
        assert history[-1]["total_bits"] == entry["total_bits"]
        assert history[-1]["phi_size"] == entry["loaded_subcarriers"]
        if entry["mode"] == "rcn_aware":  # the stopping rule reads noise_change
            assert entry["converged"] and history[-1]["noise_change"] <= 1e-3
            assert all(step["noise_change"] > 1e-3 for step in history[:-1])


def test_allocate_with_an_underflowing_budget_loads_nothing(tmp_path):
    rc = main(["allocate", "--gammas-eff=-400", "--n", "64", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "allocation_summary.json").read_text())
    assert len(summary) == 2 and all(entry["total_bits"] == 0 for entry in summary)


def test_allocate_with_an_overflowing_rate_loads_the_best_bins(tmp_path):
    # a gain of 1e154 overflowed the rate, which warned and left bins 1 and 15 empty
    path = tmp_path / "h.csv"
    path.write_text("k,h\n1,1e154\n15,1e154\n")
    rc = main(["allocate", "--n", "16", "--gammas-eff", "10", "--channel", str(path),
               "--out", str(tmp_path)])
    assert rc == 0
    for mode in ("rcn_aware", "rcn_unaware"):
        with open(tmp_path / f"allocation_{mode}_10dB.csv") as fh:
            bits = {int(row["k"]): int(row["bits"]) for row in csv.DictReader(fh)}
        assert bits[1] == bits[15] == 8, mode


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "haco", "peff": 2.0}))
    rc = main(["power-relations", "--scheme", "aco", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    # explicit flag wins over the config file; config fills the rest
    assert "scheme=aco" in out
    assert "P_eff=2" in out


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("OOFDM_OUT", str(tmp_path / "envout"))
    rc = main(["rcn-power", "--gammas-eff", "0", "--runs", "50", "--n", "256"])
    assert rc == 0
    assert (tmp_path / "envout" / "rcn_power.csv").exists()


def test_invalid_channel_file(capsys):
    rc = main(["ser", "--schemes", "laco", "--gammas", "20", "--runs", "10",
               "--channel", "/nonexistent/h.csv"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# a fractional bin was read as a header and a repeated bin kept its last gain
@pytest.mark.parametrize("row", ["300,0.5", "-5,0.5", "2.5,0.5", "1,0.5"])
def test_channel_file_bin_out_of_range_is_an_error(tmp_path, capsys, row):
    path = tmp_path / "h.csv"
    path.write_text(f"k,h\n1,0.5\n{row}\n")
    rc = main(["ser", "--schemes", "haco", "--gammas", "20", "--runs", "10",
               "--n", "256", "--channel", str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"bin {row.split(',')[0]} " in err
    assert not (tmp_path / "ser.csv").exists()


def test_channel_file_row_without_gain_is_an_error(tmp_path, capsys):
    path = tmp_path / "h.csv"
    path.write_text("k,h\n3\n")
    rc = main(["ser", "--n", "64", "--schemes", "haco", "--gammas", "20", "--runs", "10",
               "--channel", str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err and "row 2" in err
    assert not (tmp_path / "ser.csv").exists()


def test_channel_file_and_selective_profile_are_exclusive(tmp_path, capsys):
    # --channel silently won: an empty file allocated on a flat channel and exited 0
    path = tmp_path / "h.csv"
    path.write_text("k,h\n1,0.5\n63,0.5\n")
    out = tmp_path / "out"
    rc = main(["allocate", "--n", "64", "--selective", "--channel", str(path),
               "--gammas-eff", "10", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--channel" in err and "--selective" in err
    assert not out.exists()


def test_config_entry_that_conflicts_with_a_flag_is_an_error(tmp_path, capsys):
    # the flag won silently over the file's profile
    path = tmp_path / "h.csv"
    path.write_text("k,h\n1,0.5\n63,0.5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"selective": True}))
    out = tmp_path / "out"
    rc = main(["allocate", "--n", "64", "--gammas-eff", "10", "--channel", str(path),
               "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
    assert "--channel" in err and "--selective" in err
    assert not out.exists()


def test_channel_file_without_a_bin_is_an_error(capsys, tmp_path):
    # /dev/null read as a flat channel: allocate exited 0
    out = tmp_path / "out"
    rc = main(["allocate", "--n", "64", "--channel", "/dev/null", "--gammas-eff", "10",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: channel file /dev/null lists no bin\n"
    assert not out.exists()


def test_validating_an_empty_allocation_skips_its_simulation(tmp_path):
    # at -10 dB nothing is loaded: the run stopped there with "nothing to
    # transmit", before the summary and the 10 dB point
    rc = main(["allocate", "--n", "64", "--gammas-eff=-10,10", "--validate-runs", "10",
               "--selective", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "allocation_summary.json").read_text())
    assert [(e["gamma_eff_db"], e["mode"]) for e in summary] == [
        (-10.0, "rcn_aware"), (-10.0, "rcn_unaware"), (10.0, "rcn_aware"), (10.0, "rcn_unaware")]
    for entry in summary:
        loaded = entry["gamma_eff_db"] > 0
        assert (entry["total_bits"] > 0) == loaded
        assert ("simulated_ser" in entry) == ("predicted_ser" in entry) == loaded
    assert (tmp_path / "allocation_rcn_unaware_10dB.csv").exists()


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("gammas", ["10,14", "-100"])
def test_allocate_with_negative_validate_runs_is_an_error(tmp_path, capsys, gammas, via_config):
    # wrote allocation_rcn_aware_10dB.csv before failing; with an empty
    # loading (-100 dB) it exited 0 and recorded -3 in the manifest
    out = tmp_path / "out"
    argv = ["allocate", "--n", "64", f"--gammas-eff={gammas}", "--out", str(out)]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"validate_runs": -3}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--validate-runs", "-3"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--validate-runs" in err
    assert not out.exists()


def test_allocate_on_asymmetric_channel_is_an_error(tmp_path, capsys):
    # |H(3)| = 0.2 without the mirror at N - 3 would load bin 61 on its own
    path = tmp_path / "h.csv"
    path.write_text("k,h\n3,0.2\n")
    rc = main(["allocate", "--n", "64", "--channel", str(path),
               "--gammas-eff", "14", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "|H(k)| = |H(N-k)|" in err
    assert not list(tmp_path.glob("allocation_*.csv"))


def test_allocate_on_a_channel_whose_gain_squared_overflows_is_an_error(tmp_path, capsys):
    # |H|^2 = inf gave bins 1 and 15 zero noise: a cast warning, both left empty, exit 0
    path = tmp_path / "h.csv"
    path.write_text("k,h\n1,1e200\n15,1e200\n")
    rc = main(["allocate", "--n", "16", "--channel", str(path), "--gammas-eff", "10",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "noise power" in err
    assert not list(tmp_path.glob("allocation_*"))


@pytest.mark.parametrize("argv", [["ser", "--gammas", "4000", "--runs", "5"],
                                  ["rcn-power", "--gammas-eff", "1e308", "--runs", "5"],
                                  ["rcn-stats", "--gammas-eff", "4000", "--runs", "5", "--bin", "4"],
                                  ["allocate", "--gammas-eff", "4000"]], ids=lambda argv: argv[0])
def test_overflowing_snr_is_an_error(tmp_path, capsys, argv):
    # 10 ** (gamma / 10) raised OverflowError through a traceback
    out = tmp_path / "out"
    assert main(argv + ["--n", "64", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "SNR" in err
    assert not out.exists()


def test_config_file_unknown_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamas": "1,2", "peff": 2.0}))
    rc = main(["power-relations", "--scheme", "aco", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "gamas" in err and "peff" not in err


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(["peff"]))
    rc = main(["power-relations", "--scheme", "aco", "--config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [["ser", "--runs", "x"], ["ser", "--rims", "4"],
                                  ["ser", "--bogus", "1"], []], ids=["value", "choice", "flag", "empty"])
def test_parse_error_is_one_error_line(tmp_path, capsys, monkeypatch, argv):
    # argparse printed its usage block and raised SystemExit(2)
    monkeypatch.setenv("OOFDM_OUT", str(tmp_path / "out"))
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1 and out == ""
    assert not (tmp_path / "out").exists()


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ser", "-h"])
    assert exc.value.code == 0
    assert "--gammas" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["{", '{"gamma": "10"}', '["runs"]'],
                         ids=["malformed", "abbreviated", "array"])
def test_config_file_error_names_the_file(tmp_path, capsys, text):
    # malformed JSON named no file; {"gamma": ...} is no abbreviation of --gammas in a file
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    rc = main(["ser", "--n", "64", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _config_options():
    """(subcommand, option) for every option a --config entry can set: not --help, nor
    --config, nor a required option, which the command line gives and so overrides."""
    subparsers = build_parser().commands
    return [(name, action) for name, parser in subparsers.items() for action in parser._actions
            if action.option_strings and action.dest not in ("help", "config")
            and not action.required]


def _config_json_value(action):
    """A JSON value of the option's switch, choices or type."""
    if action.nargs == 0:
        return st.booleans()
    if action.choices is not None:
        return st.sampled_from(action.choices)
    numbers = st.integers() | st.floats(allow_nan=False)
    return {int: st.integers() | st.integers().map(str),
            float: numbers | numbers.map(str)}.get(action.type, st.text() | numbers)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_config_options()), st.data())
def test_config_entry_parses_as_its_flag(tmp_path_factory, option, data):
    # the same Namespace field, or the same rejection, from a --config entry as from its flag
    name, action = option
    value = data.draw(_config_json_value(action))
    flag = action.option_strings[0]
    base = [name, "--scheme", "aco"] if name == "power-relations" else [name]
    cfg = tmp_path_factory.mktemp("config") / "c.json"
    key = data.draw(st.sampled_from([flag[2:], action.dest]))  # --dump-frames: dump-frames or dump_frames
    cfg.write_text(json.dumps({key: value}))
    ap = build_parser()
    outcomes = []
    for argv in (base + ([flag] * value if action.nargs == 0 else [f"{flag}={value}"]),
                 base + ["--config", str(cfg)]):
        try:
            args = ap.parse_args(argv)
            args = _apply_config(ap, args, argv) if args.config else args
            outcomes.append(getattr(args, action.dest))
        except ValueError:
            outcomes.append(ValueError)
    assert outcomes[0] == outcomes[1]


def _ser_rows(path):
    with open(path / "ser.csv") as fh:
        return list(csv.DictReader(fh))


def test_abbreviated_flag_wins_over_the_config_file(tmp_path):
    # argparse reads --gamma as --gammas, so the config must not overwrite it
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"gammas": "30"}))
    rc = main(["ser", "--schemes", "aco", "--gamma", "10", "--n", "64", "--runs", "20",
               "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert [float(r["gamma_db"]) for r in _ser_rows(tmp_path)] == [10.0]


def test_config_values_go_through_the_option_types(tmp_path):
    # JSON "20" and 10 mean what --runs 20 and --gammas 10 mean
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"runs": "20", "gammas": 10, "rims": 2, "selective": True}))
    rc = main(["ser", "--schemes", "aco", "--n", "64", "--config", str(cfg),
               "--out", str(tmp_path)])
    assert rc == 0
    assert [float(r["gamma_db"]) for r in _ser_rows(tmp_path)] == [10.0]
    manifest = json.loads((tmp_path / "ser_manifest.json").read_text())["config"]
    assert (manifest["runs"], manifest["gammas"], manifest["rims"]) == (20, "10", 2)
    assert manifest["selective"] is True


@pytest.mark.parametrize("config,key", [({"runs": "many"}, "runs"), ({"runs": 2.5}, "runs"),
                                        ({"runs": True}, "runs"), ({"rims": 4}, "rims"),
                                        ({"selective": "yes"}, "selective"),
                                        ({"gammas": [10, 20]}, "gammas")])
def test_config_value_of_the_wrong_type_is_an_error(tmp_path, capsys, config, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    rc = main(["ser", "--schemes", "aco", "--n", "64", "--runs", "20",
               "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "ser.csv").exists()


@pytest.mark.parametrize("gain", ["inf", "nan"])
def test_channel_file_with_nonfinite_gain_is_an_error(tmp_path, capsys, gain):
    # an infinite gain on both mirrors left those bins noiseless
    path = tmp_path / "h.csv"
    path.write_text(f"k,h\n3,{gain}\n61,{gain}\n")
    rc = main(["ser", "--n", "64", "--schemes", "haco", "--gammas", "20", "--runs", "10",
               "--channel", str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "must be finite" in err
    assert not (tmp_path / "ser.csv").exists()


@pytest.mark.parametrize("layers,n", [("0", "1024"), ("-1", "1024"), ("12", "1024"), ("4", "16")])
def test_power_relations_with_impossible_laco_layers_is_an_error(capsys, layers, n):
    rc = main(["power-relations", "--scheme", "laco", "--layers", layers, "--n", n])
    assert rc == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"got {layers}" in err and "P_opt" not in out


@pytest.mark.parametrize("scheme,layers,message", [
    ("ado", "0", "ado has 2 layers, got 0"), ("aco", "5", "aco has 1 layer, got 5"),
    ("haco", "3", "haco has 2 layers, got 3"), ("pam", "-1", "pam has 1 layer, got -1")])
def test_power_relations_with_a_layer_count_a_fixed_depth_scheme_ignores_is_an_error(
        capsys, scheme, layers, message):
    # a fixed-depth scheme used to ignore --layers and print its own relations
    rc = main(["power-relations", "--scheme", scheme, "--layers", layers, "--n", "64"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n" and out == ""


def test_rcn_stats_without_clipping_noise_on_a_layer_is_an_error(tmp_path, capsys):
    # at 60 dB no symbol is misdetected, so layer 1 leaves no residual clipping noise
    rc = main(["rcn-stats", "--gammas-eff", "60", "--runs", "50", "--n", "64", "--bin", "4",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "layer 1" in err and "60 dB" in err and "--runs" in err
    assert not list(tmp_path.glob("*.csv"))


# 0:1e6:1e-9 asks np.arange for 1e15 floats, 7.11 PiB: more than a 47-bit user address
# space holds, so the kernel refuses the allocation without touching memory
UNALLOCATABLE_GRID = "0:1e6:1e-9"


def test_unallocatable_grid_is_one_error_line(tmp_path, capsys):
    # numpy's MemoryError escaped main as a 16-line traceback
    out = tmp_path / "out"
    rc = main(["ser", "--n", "64", "--runs", "10", "--schemes", "aco",
               f"--gammas={UNALLOCATABLE_GRID}", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "PiB" in err and err.count("\n") == 1
    assert not out.exists()


EDGE_TOKENS = ("0", "-1", "-8", "63", "nan", "inf", "1e309", "", "x")
SCHEMES = ("aco", "dco", "pam", "ado", "haco", "laco")


def _grid():
    values = st.integers(-10, 40)
    listed = st.lists(values, min_size=1, max_size=3).map(lambda v: ",".join(map(str, v)))
    ranged = st.tuples(values, st.sampled_from((2.5, 5, 10)), st.integers(0, 2)).map(
        lambda t: f"{t[0]}:{t[0] + t[1] * t[2]:g}:{t[1]:g}")
    return listed | ranged


# A valid value of every option that takes one, by dest; the size flags are capped
# so that no draw asks for a large array
VALID_VALUES = {
    "seed": st.integers(0, 1000), "n": st.sampled_from([2 ** b for b in range(3, 9)]),
    "runs": st.integers(1, 20), "validate": st.integers(0, 20), "validate_runs": st.integers(0, 20),
    "m": st.sampled_from([2 ** b for b in range(1, 9)]), "layers": st.integers(1, 9),
    "peff": st.floats(1e-3, 1e3), "pe": st.floats(1e-4, 0.5), "bin": st.integers(1, 255),
    "gammas": _grid(), "gammas_eff": _grid(), "scheme": st.sampled_from(SCHEMES),
    "schemes": st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=3).map(",".join),
    "rims": st.sampled_from(["1", "2", "3"]),
}
# options given a path or nothing: --out is always a fresh directory
PATH_OPTIONS = ("out", "channel", "config")


def _edge_token(dest):
    tokens = st.sampled_from(EDGE_TOKENS)
    return tokens | st.just(UNALLOCATABLE_GRID) if dest in ("gammas", "gammas_eff") else tokens


def _token(dest):
    return VALID_VALUES[dest].map(str) | _edge_token(dest)


def _channel_rows(data, n):
    """CSV text of a few (k, |H|) rows, each also mirrored to N - k if drawn so."""
    bins = st.integers(0, n - 1).map(str) | st.sampled_from(EDGE_TOKENS)
    gains = st.floats(0.1, 10.0).map(str) | st.sampled_from(EDGE_TOKENS)
    rows = []
    for k, gain in data.draw(st.lists(st.tuples(bins, gains), max_size=3)):
        rows.append(f"{k},{gain}")
        if data.draw(st.booleans()) and k.isdigit() and 0 < int(k) and 2 * int(k) != n:
            rows.append(f"{n - int(k)},{gain}")
    return "k,h\n" + "\n".join(rows) + "\n"


def _written_files(stdout):
    """The paths named by the `wrote ... and <manifest>` line, if any."""
    lines = [line for line in stdout.splitlines() if line.startswith("wrote ")]
    if not lines:
        return []
    outputs, manifest = lines[-1][len("wrote "):].rsplit(" and ", 1)
    return [Path(p) for p in outputs.split(", ")] + [Path(manifest)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(build_parser().commands)), st.data())
def test_any_argv_exits_cleanly(tmp_path_factory, command, data):
    # every option of the subcommand, read from the parser, given a valid value or an edge
    # token: the run succeeds and writes every file it names, or prints one error line
    parser = build_parser().commands[command]
    tmp = tmp_path_factory.mktemp("argv")
    out = tmp / "out"
    argv = [command, f"--out={out}"] if "--out" in parser._option_string_actions else [command]
    n = data.draw(VALID_VALUES["n"])
    settable = [a for a in parser._actions if a.option_strings and a.dest not in ("help",) + PATH_OPTIONS]
    # at most two options get an edge token, the rest a valid value
    edged = data.draw(st.lists(st.sampled_from([a.dest for a in settable if a.nargs != 0]),
                               max_size=2, unique=True))
    # --channel and --selective both given, one in four times
    profile = data.draw(st.sampled_from([(), ("channel",), ("selective",), ("channel", "selective")]))
    for action in parser._actions:
        if not action.option_strings or action.dest in ("help", "out"):
            continue
        flag = action.option_strings[0]
        if action.dest in edged:
            argv.append(f"{flag}={data.draw(_edge_token(action.dest))}")
        elif action.dest == "selective":
            argv += [flag] * (action.dest in profile)
        elif action.nargs == 0:
            argv += [flag] * data.draw(st.booleans())
        elif action.dest == "channel" and action.dest in profile:
            path = tmp / "h.csv"
            path.write_text(_channel_rows(data, n))
            argv.append(f"{flag}={path}")
        elif action.dest == "config" and data.draw(st.sampled_from([False, False, False, True])):
            entries = {}
            for entry in data.draw(st.lists(st.sampled_from(settable), max_size=2, unique=True)):
                value = st.booleans() if entry.nargs == 0 else _token(entry.dest)
                entries[entry.dest] = data.draw(value)
            path = tmp / "c.json"
            path.write_text(json.dumps(entries))
            argv.append(f"{flag}={path}")
        elif action.dest == "n":
            argv.append(f"{flag}={n}")
        elif action.dest == "bin":  # an even bin below N, so that some layer may hold it
            argv.append(f"{flag}={data.draw(st.integers(1, n // 2 - 1)) * 2}")
        elif action.dest not in PATH_OPTIONS:
            argv.append(f"{flag}={data.draw(VALID_VALUES[action.dest])}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with (redirect_stdout(stdout), redirect_stderr(stderr),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")  # a warning is a stderr line, as on the command line
        rc = main(argv)
    err = stderr.getvalue().splitlines() + [str(w.message) for w in caught]
    event(f"{command} exits {rc}" + (f" {err[0][:40]}" if err else ""))
    if rc == 0:
        assert err == [], argv
        assert all(path.is_file() for path in _written_files(stdout.getvalue())), argv
    else:
        assert rc == 1 and len(err) == 1 and err[0].startswith("error:"), (argv, err)
        assert not out.exists() or not any(out.iterdir()), argv
