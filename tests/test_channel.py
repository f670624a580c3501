"""Tests for channel profiles and the Monte Carlo engine."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oofdm.channel as channel_module
from oofdm.channel import (ChannelProfile, _probed_layers, gamma_to_p_eff,
                           measure_power_relations, post_eq_noise, run_point)
from oofdm.modems import affected_subcarriers
from oofdm.multilayer import SchemeConfig, receive, transmit

N = 1024


def test_flat_profile_noise_map():
    prof = ChannelProfile.flat(N, noise_power=2.0)
    np.testing.assert_allclose(prof.bin_noise_power(), 2.0 * N)
    np.testing.assert_allclose(prof.gain, 1.0)


def test_exponential_profile_shape():
    prof = ChannelProfile.exponential(N, att_db=10.0)
    g = prof.gain
    assert g[0] == 1.0
    # band-edge power attenuation of 10 dB at k = N/2
    assert 20.0 * np.log10(g[N // 2]) == pytest.approx(-10.0)
    assert np.all(np.diff(g[: N // 2 + 1]) < 0)
    np.testing.assert_allclose(g, np.roll(g[::-1], 1))


def test_from_csv(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("k,h\n1,0.5\n2,0.25\n15,0.5\n14,0.25\n")
    prof = ChannelProfile.from_csv(path, 16)
    assert prof.gain[1] == 0.5 and prof.gain[2] == 0.25
    assert prof.gain[3] == 1.0


def test_post_eq_noise_power_matches_map():
    # measured per-bin noise power matches N*Pv/|H(k)|^2 within 3%
    prof = ChannelProfile.exponential(N, att_db=10.0)
    v = post_eq_noise(prof, np.random.default_rng(1), 10_000)
    per_bin = np.mean(np.abs(np.fft.fft(v)) ** 2, axis=0)
    ref = prof.bin_noise_power()
    rel = np.abs(per_bin - ref) / ref
    # per-bin estimates fluctuate with ~1% standard error at 10^4 frames, so
    # allow the expected few-per-thousand statistical excursions beyond 3%
    assert np.quantile(rel, 0.99) < 0.03
    assert rel.max() < 0.05


def test_colored_noise_shaping_is_cached_and_unchanged():
    # one read-only interleaved 1/|H(k)| per profile, scaling the same draws as
    # the per-block division did, bit for bit
    prof = ChannelProfile.exponential(64)
    shaping = prof._noise_shaping
    assert prof._noise_shaping is shaping and not shaping.flags.writeable
    rng = np.random.default_rng(7)
    spectrum = np.fft.rfft(rng.standard_normal((5, 64)) * np.sqrt(prof.noise_power))
    spectrum /= prof.gain[:33]
    np.testing.assert_array_equal(post_eq_noise(prof, np.random.default_rng(7), 5),
                                  np.fft.irfft(spectrum, 64))


def test_post_eq_noise_flat_is_white():
    prof = ChannelProfile.flat(N)
    v = post_eq_noise(prof, np.random.default_rng(2), 2000)
    assert np.var(v) == pytest.approx(1.0, rel=0.01)


def test_post_eq_noise_rejects_asymmetric_gain():
    h = np.ones(N)
    h[3] = 0.5  # no matching attenuation at N-3
    # the profile itself is rejected, so no noise is ever drawn for it
    with pytest.raises(ValueError):
        post_eq_noise(ChannelProfile(N, 1.0, h), np.random.default_rng(0), 1)


@pytest.mark.parametrize("k,gain", [(3, 0.5), (3, 0.0), (0, 0.0), (N // 2, 0.0),
                                    pytest.param([3, N - 3], np.inf, id="mirrored-inf"),
                                    pytest.param([3, N - 3], np.nan, id="mirrored-nan")])
def test_profile_rejects_bad_gains_when_built(k, gain):
    h = np.ones(N)
    h[k] = gain  # a non-finite gain on both mirrors breaks nothing else
    with pytest.raises(ValueError, match=None if np.isfinite(gain) else "must be finite"):
        ChannelProfile(N, 1.0, h)


def test_profile_accepts_a_phase_on_one_mirror():
    h = np.ones(N, dtype=complex)
    h[5] = -1j  # |H(5)| = |H(N-5)| still holds
    assert ChannelProfile(N, 1.0, h).gain[5] == 1.0


def test_gamma_to_p_eff():
    # electrical SNR divides out the scheme's P_elec/P_eff ratio
    assert gamma_to_p_eff("aco", 10.0) == pytest.approx(10.0 / 2.0)
    assert gamma_to_p_eff("haco", 0.0) == pytest.approx(1.0 / (2.0 + 2.0 / np.pi))
    # effective SNR is used as-is
    assert gamma_to_p_eff("laco", 20.0, effective=True) == pytest.approx(100.0)


def test_run_point_is_deterministic():
    cfg = SchemeConfig.uniform("laco", N, 16, gamma_to_p_eff("laco", 20.0, 1.0, 9), 9)
    prof = ChannelProfile.flat(N)
    a = run_point(cfg, prof, frames=200, seed=42, batch=100)
    b = run_point(cfg, prof, frames=200, seed=42, batch=100)
    assert a["ser"] == b["ser"]
    np.testing.assert_array_equal(a["layer_errors"], b["layer_errors"])
    c = run_point(cfg, prof, frames=200, seed=43, batch=100)
    assert c["ser"] != a["ser"]


def test_run_point_stderr_definition():
    # the standard error is the sample SD (ddof = 1) of the per-frame SER over
    # sqrt(frames), overall and per layer; the per-frame errors are recomputed
    # here by transmitting and receiving each batch whole
    cfg = SchemeConfig.uniform("laco", N, 16, gamma_to_p_eff("laco", 18.0, 1.0, 9), 9)
    prof = ChannelProfile.flat(N)
    out = run_point(cfg, prof, frames=300, seed=0, batch=150)
    counts = []
    for ss in np.random.SeedSequence(0).spawn(2):
        rng = np.random.default_rng(ss)
        tx = transmit(cfg, rng, 150)
        det_idx = receive(tx.x + post_eq_noise(prof, rng, 150), cfg)
        counts.append([np.count_nonzero(d != s, axis=1) for d, s in zip(det_idx, tx.sym_idx)])
    counts = np.concatenate(counts, axis=1)  # (J, frames)
    frame_ser = 2.0 * counts.sum(axis=0) / cfg.n_loaded
    assert out["ser"] == pytest.approx(frame_ser.mean(), rel=1e-12)
    assert out["stderr"] == pytest.approx(np.std(frame_ser, ddof=1) / np.sqrt(300), rel=1e-12)
    layer_ser = counts / np.array([[len(sp.bins)] for sp in cfg.layers])
    np.testing.assert_allclose(out["layer_ser"], layer_ser.mean(axis=1), rtol=1e-12)
    np.testing.assert_allclose(out["layer_stderr"],
                               np.std(layer_ser, axis=1, ddof=1) / np.sqrt(300), rtol=1e-12)
    # far below the per-symbol Bernoulli value sqrt(p(1-p)/frames) reported before
    assert out["stderr"] < 0.2 * np.sqrt(out["ser"] * (1 - out["ser"]) / 300)


def test_run_point_stderr_of_one_frame_is_nan():
    cfg = SchemeConfig.uniform("haco", N, 16, gamma_to_p_eff("haco", 10.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run_point(cfg, ChannelProfile.flat(N), frames=1, seed=0)
    assert out["ser"] > 0.0
    assert np.isnan(out["stderr"]) and np.all(np.isnan(out["layer_stderr"]))
    assert len(out["layer_stderr"]) == 2


@pytest.mark.parametrize("scheme,layers,channel", [("laco", 9, "flat"), ("ado", None, "exp"),
                                                   ("haco", None, "exp")])
def test_run_point_results_do_not_depend_on_the_block(monkeypatch, scheme, layers, channel):
    # 7-row blocks divide neither the 150-frame batches nor the 40-frame tail
    cfg = SchemeConfig.uniform(scheme, N, 16, gamma_to_p_eff(scheme, 14.0, 1.0, layers), layers)
    prof = ChannelProfile.flat(N) if channel == "flat" else ChannelProfile.exponential(N)

    def run():
        return run_point(cfg, prof, frames=340, seed=3, batch=150, instrument=True,
                         probe_bin=4)
    default = run()
    monkeypatch.setattr(channel_module, "_BLOCK_ELEMS", 7 * N)
    blocked = run()
    assert default["ser"] == blocked["ser"] and default["stderr"] == blocked["stderr"]
    for key in ("layer_errors", "delta_power", "err_power", "probe", "layer_stderr"):
        np.testing.assert_array_equal(blocked[key], default[key])


# Per-layer error counts of run_point(cfg, flat, frames=500, seed=0) at 18 dB
# electrical SNR with 16-QAM, recorded with full-length complex transforms;
# the folded real transforms draw the same stream and must decide alike.
RECORDED_LAYER_ERRORS = {
    ("laco", 9): [18938, 19294, 14916, 9457, 5494, 2992, 1569, 788, 414],
    ("ado", None): [38475, 60311],
    ("haco", None): [5397, 62425],
}


@pytest.mark.parametrize("scheme,layers", list(RECORDED_LAYER_ERRORS))
def test_run_point_layer_errors_match_recorded(scheme, layers):
    cfg = SchemeConfig.uniform(scheme, N, 16, gamma_to_p_eff(scheme, 18.0, 1.0, layers), layers)
    out = run_point(cfg, ChannelProfile.flat(N), frames=500, seed=0)
    assert out["layer_errors"].tolist() == RECORDED_LAYER_ERRORS[scheme, layers]


# Instrumented run_point(cfg, exponential, frames=600, seed=11, batch=250,
# probe_bin=4) arrays, recorded before the engine mapped and detected each
# layer in one call; the file also holds the RCN-aware allocation (18 dB,
# p_e = 1e-2) that "alloc" loads. The same random stream must give the same
# arrays bit for bit, on the same numpy build and CPU family.
RECORDED_ARRAYS = Path(__file__).parent / "data" / "run_point_exponential.npz"


@pytest.mark.parametrize("name", ["laco", "ado", "haco", "alloc"])
def test_run_point_instrumented_arrays_match_recorded(name):
    with np.load(RECORDED_ARRAYS) as rec:
        recorded = dict(rec)
    if name == "alloc":
        cfg = SchemeConfig.from_allocation(N, recorded["alloc/bits"], recorded["alloc/powers"])
    else:
        layers = 9 if name == "laco" else None
        cfg = SchemeConfig.uniform(name, N, 16, gamma_to_p_eff(name, 20.0, 1.0, layers), layers)
    out = run_point(cfg, ChannelProfile.exponential(N), frames=600, seed=11, batch=250,
                    instrument=True, probe_bin=4)
    for key in ("delta_power", "err_power", "probe"):
        assert np.array_equal(out[key], recorded[f"{name}/{key}"]), key


@pytest.mark.parametrize("frames,batch", [(0, 500), (-3, 500), (100, 0)])
def test_run_point_rejects_empty_runs(frames, batch):
    cfg = SchemeConfig.uniform("haco", N, 16, 1.0)
    with pytest.raises(ValueError):
        run_point(cfg, ChannelProfile.flat(N), frames=frames, seed=0, batch=batch)


def test_measure_rcn_power_shapes():
    cfg = SchemeConfig.uniform("laco", N, 64, gamma_to_p_eff("laco", 10.0, 1.0, 9, True), 9)
    out = run_point(cfg, ChannelProfile.flat(N), 200, seed=(2, 0), batch=100, instrument=True)
    assert out["delta_power"].shape == out["err_power"].shape == (9, 200)
    # coarse agreement with the reference value 0.427 at small frame count
    assert out["delta_power"][0].mean() == pytest.approx(0.427, rel=0.10)


def test_probed_layers_match_affected_set_membership():
    cfg = SchemeConfig.uniform("laco", N, 16, 1.0, layers=9)
    for probe in range(N):
        count = 0
        for t in range(1, len(cfg.layers) + 1):
            if probe not in affected_subcarriers(t, N):
                break
            count = t
        assert min(_probed_layers(N, probe), len(cfg.layers)) == count, probe


def test_measure_power_relations_single_layer():
    mc = measure_power_relations("aco", 1.0, n=N, M=16, frames=400, seed=3)
    assert mc["p_elec"] == pytest.approx(2.0, rel=0.05)
    assert mc["p_opt"] == pytest.approx(np.sqrt(2.0 / np.pi), rel=0.05)


def test_measure_power_relations_multi_layer():
    mc = measure_power_relations("haco", 1.0, n=N, M=16, frames=400, seed=4)
    assert mc["p_elec"] == pytest.approx(2.0 + 2.0 / np.pi, rel=0.05)


def test_package_use_leaves_scipy_stats_unloaded():
    # scipy.stats more than doubles the start-up of every process; only
    # rcn_statistics may load it. The engine and the power relations load no
    # scipy at all; the first Q-function call (here the allocator's) loads
    # scipy.special alone
    code = """if True:
        import sys
        import oofdm, oofdm.cli
        from oofdm import (ChannelProfile, SchemeConfig, allocate, measure_power_relations,
                           power_relations)
        from oofdm.channel import run_point
        run_point(SchemeConfig.uniform("laco", 64, 4, 1.0), ChannelProfile.flat(64), 10, 0)
        measure_power_relations("haco", 1.0, n=64, M=4, frames=10)
        power_relations("laco", 1.0, 5)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, f"the engine loaded {loaded}"
        allocate(ChannelProfile.exponential(64), 100.0, 1e-2)
        assert "scipy.special" in sys.modules, "allocate ran without scipy.special"
        assert "scipy.stats" not in sys.modules, "scipy.stats was imported"
    """
    src = str(Path(channel_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
