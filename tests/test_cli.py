"""Tests for the command-line experiment runner."""

import csv
import json
import re
import shlex
from pathlib import Path

import pytest

from oofdm.cli import _parse_grid, build_parser, main

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


def test_readme_flag_table_matches_parser():
    section = README.read_text().split("## Command line", 1)[1]
    rows = dict(re.findall(r"^\| (`[\w-]+`|every one) \| (.*) \|$", section, re.M))
    common = set(re.findall(r"--[\w-]+", rows.pop("every one")))
    subparsers = build_parser()._subparsers._group_actions[0].choices
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


@pytest.mark.parametrize("peff", ["0", "-1", "nan"])
def test_power_relations_with_nonpositive_peff_is_an_error(capsys, peff):
    # 0 ended in a ZeroDivisionError traceback, -1 printed P_opt=nan and exited 0
    rc = main(["power-relations", "--scheme", "aco", "--peff", peff, "--validate", "10",
               "--n", "64"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "effective power must be positive" in captured.err
    assert captured.out == ""


def test_power_relations_with_negative_validate_is_an_error(capsys):
    # printed "monte carlo (-5 frames): P_elec=-0 (100.00%)" and exited 0
    rc = main(["power-relations", "--scheme", "aco", "--validate", "-5", "--n", "64"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "frames and batch must be at least 1" in captured.err
    assert "monte carlo" not in captured.out


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


def test_rcn_stats_command(tmp_path):
    rc = main(["rcn-stats", "--gammas-eff", "0", "--runs", "200", "--n", "256",
               "--bin", "64", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "rcn_covariance.csv") as fh:
        rows = list(csv.DictReader(fh))
    diag = [r for r in rows if r["t1"] == r["t2"]]
    assert all(abs(float(r["abs_rho"]) - 1.0) < 1e-6 for r in diag)
    assert (tmp_path / "rcn_cdf.csv").exists()


def test_rcn_stats_with_one_frame_is_an_error(tmp_path, capsys):
    # one frame has no spread: the covariance was written as abs_rho = nan
    rc = main(["rcn-stats", "--n", "64", "--runs", "1", "--bin", "16", "--gammas-eff", "10",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no clipping-noise spread" in err and "1 frame(s)" in err and "--runs" in err
    assert not list(tmp_path.glob("*.csv"))


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


@pytest.mark.parametrize("row", ["300,0.5", "-5,0.5"])
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


def test_validating_an_empty_allocation_is_an_error(tmp_path, capsys):
    # at -20 dB nothing is loaded, so there is no SER to simulate
    rc = main(["allocate", "--n", "64", "--gammas-eff", "-20", "--validate-runs", "10",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "allocation_summary.json").exists()


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
    assert err.startswith("error:") and err.count("\n") == 1
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


def test_rcn_stats_without_clipping_noise_on_a_layer_is_an_error(tmp_path, capsys):
    # at 60 dB no symbol is misdetected, so layer 1 leaves no residual clipping noise
    rc = main(["rcn-stats", "--gammas-eff", "60", "--runs", "50", "--n", "64", "--bin", "4",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "layer 1" in err and "60 dB" in err and "--runs" in err
    assert not list(tmp_path.glob("*.csv"))
