"""Tests for channel profiles and the Monte Carlo engine."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oofdm.channel as channel_module
from oofdm.allocate import allocate
from oofdm.channel import (ChannelProfile, _probed_layers, gamma_to_p_eff,
                           measure_power_relations, post_eq_noise, rcn_statistics, run_point)
from oofdm.modems import affected_subcarriers
from oofdm.multilayer import SchemeConfig, _detect
from txrx import noise_frames, receive, transmit

N = 1024


def test_flat_profile_noise_map():
    # unit-power noise before equalization: N on every bin of a flat channel
    prof = ChannelProfile.flat(N)
    np.testing.assert_array_equal(prof.bin_noise_power(), np.full(N, float(N)))
    np.testing.assert_array_equal(prof.gain, 1.0)


def test_exponential_profile_shape():
    prof = ChannelProfile.exponential(N)
    g = prof.gain
    k = np.arange(N)
    np.testing.assert_array_equal(g, 10.0 ** (-np.minimum(k, N - k) / N))
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


def test_from_csv_reads_bins_written_as_floats(tmp_path):
    # np.savetxt writes the bin column as 1.000000000000000000e+00; those rows are data
    n = 16
    k = np.arange(n)
    g = 10.0 ** (-np.minimum(k, n - k) / n)
    floats, ints = tmp_path / "floats.csv", tmp_path / "ints.csv"
    np.savetxt(floats, np.column_stack([k, g]), delimiter=",")
    ints.write_text("# k,h\n" + "".join(f"{b},{v!r}\n" for b, v in zip(k.tolist(), g.tolist())))
    assert np.array_equal(ChannelProfile.from_csv(ints, n).gain, g)
    assert np.array_equal(ChannelProfile.from_csv(floats, n).gain, g)


@pytest.mark.parametrize("rows,bad_row", [
    pytest.param("1,0.5\n15,0.5\n2.5,0.5\n", 4, id="fractional"),  # it was read as a header
    pytest.param("3,0.25\n13,0.5\n3,0.5\n", 4, id="repeated"),  # the last gain was kept
])
def test_from_csv_rejects_a_fractional_or_repeated_bin(tmp_path, rows, bad_row):
    path = tmp_path / "h.csv"
    path.write_text("k,h\n" + rows)
    with pytest.raises(ValueError, match=f"row {bad_row}: bin "):
        ChannelProfile.from_csv(path, 16)


@pytest.mark.parametrize("text", ["", "k,h\n"], ids=["empty", "header"])
def test_from_csv_rejects_a_file_without_a_bin(tmp_path, text):
    # read as a flat channel
    path = tmp_path / "h.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"channel file {re.escape(str(path))} lists no bin"):
        ChannelProfile.from_csv(path, 16)


@pytest.mark.parametrize("n", [-8, 0, 12])
def test_profile_checks_the_frame_length_first(n):
    # N = -8 ended in numpy's "negative dimensions are not allowed"
    with pytest.raises(ValueError, match=f"frame length must be a power of two >= 8, got {n}"):
        ChannelProfile.flat(n)


def test_from_csv_keeps_the_magnitude_of_complex_gains(tmp_path):
    rng = np.random.default_rng(5)
    n = 64
    h = np.ones(n, dtype=complex)
    h[1:n // 2] = rng.uniform(0.2, 2.0, n // 2 - 1) * np.exp(2j * np.pi * rng.random(n // 2 - 1))
    h[n // 2 + 1:] = np.conj(h[1:n // 2][::-1])
    path = tmp_path / "h.csv"
    path.write_text("k,re,im\n" + "".join(f"{k},{z.real!r},{z.imag!r}\n" for k, z in enumerate(h.tolist())))
    assert np.array_equal(ChannelProfile.from_csv(path, n).gain, np.abs(h))


def test_post_eq_noise_power_matches_map():
    # measured per-bin noise power matches N/|H(k)|^2 within 3%, half of it on each axis
    prof = ChannelProfile.exponential(N)
    bins = np.arange(1, N // 2)
    v = post_eq_noise(prof, np.random.default_rng(1), 10_000, bins)
    assert v.shape == (10_000, N // 2 - 1, 2)
    per_axis = np.mean(v ** 2, axis=0)
    per_bin = per_axis.sum(axis=-1)
    ref = prof.bin_noise_power()[bins]
    rel = np.abs(per_bin - ref) / ref
    # per-bin estimates fluctuate with ~1% standard error at 10^4 frames, so
    # allow the expected few-per-thousand statistical excursions beyond 3%
    assert np.quantile(rel, 0.99) < 0.03
    assert rel.max() < 0.05
    assert np.quantile(np.abs(per_axis / (ref[:, None] / 2) - 1.0), 0.99) < 0.045


def test_selective_noise_std_is_cached_and_read_only():
    # one read-only per-axis sqrt(N/2)/|H(k)| table per profile, scaling one row-major
    # draw of (frames, bins, (re, im)) normals
    prof = ChannelProfile.exponential(64)
    std = prof._noise_std
    assert prof._noise_std is std and not std.flags.writeable
    np.testing.assert_array_equal(std, np.column_stack([np.sqrt(32.0) / prof.gain[:33]] * 2))
    bins = np.array([5, 1, 31, 8])
    want = np.random.default_rng(7).standard_normal((5, 4, 2)) * std[bins]
    np.testing.assert_array_equal(post_eq_noise(prof, np.random.default_rng(7), 5, bins), want)
    with pytest.raises(ValueError, match="drawn at given bins"):
        post_eq_noise(prof, np.random.default_rng(7), 5)


@pytest.mark.parametrize("name", ["alloc", "ado", "haco"])
def test_noise_spectrum_decides_as_its_frames(name):
    # the receiver adds V at each layer's bins; the waveform oracle, given the same V as
    # time-domain frames with any noise on the bins no layer loads, decides alike
    prof = ChannelProfile.exponential(N)
    if name == "alloc":
        res = allocate(prof, 10.0 ** 2.2, 1e-2, mode="rcn_aware")
        cfg = SchemeConfig.from_allocation(N, res.bits, res.powers)
    else:
        cfg = SchemeConfig.uniform(name, N, 16, gamma_to_p_eff(name, 30.0), None)
    rng = np.random.default_rng(31)
    tx = transmit(cfg, rng, 40)
    v = post_eq_noise(prof, rng, 40, cfg.loaded_bins)
    by_bin = _detect(cfg, tx.sym_idx, v)
    for frames in (noise_frames(cfg, v), noise_frames(cfg, v, rng)):
        by_frame = receive(tx.x + frames, cfg)
        for a, b in zip(by_bin, by_frame):
            np.testing.assert_array_equal(a, b)
    errors = [np.count_nonzero(d != s) for d, s in zip(by_bin, tx.sym_idx)]
    assert all(errors) and sum(errors) < 0.2 * 40 * len(cfg.loaded_bins), errors


def test_post_eq_noise_flat_is_white():
    prof = ChannelProfile.flat(N)
    v = post_eq_noise(prof, np.random.default_rng(2), 2000)
    np.testing.assert_array_equal(v, np.random.default_rng(2).standard_normal((2000, N)))
    assert np.var(v) == pytest.approx(1.0, rel=0.01)


def test_post_eq_noise_rejects_asymmetric_gain():
    h = np.ones(N)
    h[3] = 0.5  # no matching attenuation at N-3
    # the profile itself is rejected, so no noise is ever drawn for it
    with pytest.raises(ValueError):
        post_eq_noise(ChannelProfile(N, h), np.random.default_rng(0), 1)


@pytest.mark.parametrize("k,gain", [(3, 0.5), (3, 0.0), (0, 0.0), (N // 2, 0.0),
                                    pytest.param([3, N - 3], np.inf, id="mirrored-inf"),
                                    pytest.param([3, N - 3], np.nan, id="mirrored-nan")])
def test_profile_rejects_bad_gains_when_built(k, gain):
    h = np.ones(N)
    h[k] = gain  # a non-finite gain on both mirrors breaks nothing else
    with pytest.raises(ValueError, match=None if np.isfinite(gain) else "must be finite"):
        ChannelProfile(N, h)


@pytest.mark.parametrize("gain", [1e200, 1e-200])
def test_profile_rejects_a_gain_whose_noise_power_is_not_positive_and_finite(gain):
    # |H|^2 overflowed to inf (noise power 0) or underflowed to 0 (noise power inf),
    # and the allocator left the best bins empty
    h = np.ones(N)
    h[[3, N - 3]] = gain
    with pytest.raises(ValueError, match=r"finite positive noise power N/\|H\(k\)\|\^2"):
        ChannelProfile(N, h)


def test_profile_accepts_a_phase_on_one_mirror():
    h = np.ones(N, dtype=complex)
    h[5] = -1j  # |H(5)| = |H(N-5)| still holds
    assert ChannelProfile(N, h).gain[5] == 1.0


@pytest.mark.parametrize("shape", [(32,), (2, 32)])
def test_profile_rejects_a_gain_of_the_wrong_shape(shape):
    # both built without complaint and failed later in numpy broadcasting
    with pytest.raises(ValueError, match=rf"shape \(64,\), got {re.escape(str(shape))}"):
        ChannelProfile(64, np.ones(shape))


def test_run_point_rejects_a_profile_of_another_frame_length():
    # ended in "operands could not be broadcast together with shapes (10,128) (10,64) (10,128)"
    cfg = SchemeConfig.uniform("aco", 64, 16, 10.0)
    with pytest.raises(ValueError, match="N = 128 but the scheme has N = 64"):
        run_point(cfg, ChannelProfile.flat(128), 10, 0)


def test_gamma_to_p_eff():
    # electrical SNR divides out the scheme's P_elec/P_eff ratio
    assert gamma_to_p_eff("aco", 10.0) == pytest.approx(10.0 / 2.0)
    assert gamma_to_p_eff("haco", 0.0) == pytest.approx(1.0 / (2.0 + 2.0 / np.pi))
    # effective SNR is used as-is
    assert gamma_to_p_eff("laco", 20.0, effective=True) == pytest.approx(100.0)


def test_run_point_is_deterministic(monkeypatch):
    monkeypatch.setattr(channel_module, "DEFAULT_BATCH", 100)
    cfg = SchemeConfig.uniform("laco", N, 16, gamma_to_p_eff("laco", 20.0, 1.0, 9), 9)
    prof = ChannelProfile.flat(N)
    a = run_point(cfg, prof, frames=200, seed=42)
    b = run_point(cfg, prof, frames=200, seed=42)
    assert a["ser"] == b["ser"]
    np.testing.assert_array_equal(a["layer_errors"], b["layer_errors"])
    c = run_point(cfg, prof, frames=200, seed=43)
    assert c["ser"] != a["ser"]


def test_run_point_stderr_definition(monkeypatch):
    # the standard error is the sample SD (ddof = 1) of the per-frame SER over
    # sqrt(frames), overall and per layer; the per-frame errors are recomputed
    # here by transmitting and receiving each batch whole
    monkeypatch.setattr(channel_module, "DEFAULT_BATCH", 150)
    cfg = SchemeConfig.uniform("laco", N, 16, gamma_to_p_eff("laco", 18.0, 1.0, 9), 9)
    prof = ChannelProfile.flat(N)
    out = run_point(cfg, prof, frames=300, seed=0)
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
    # 7-row blocks divide neither the 150-frame batches nor the 40-frame tail; the DCO
    # layer of ADO cannot be instrumented, so that run compares the error counts only
    cfg = SchemeConfig.uniform(scheme, N, 16, gamma_to_p_eff(scheme, 14.0, 1.0, layers), layers)
    prof = ChannelProfile.flat(N) if channel == "flat" else ChannelProfile.exponential(N)
    monkeypatch.setattr(channel_module, "DEFAULT_BATCH", 150)
    probe_bin = None if scheme == "ado" else 4

    def run():
        return run_point(cfg, prof, frames=340, seed=3, probe_bin=probe_bin)
    default = run()
    monkeypatch.setattr(channel_module, "_BLOCK_ELEMS", 7 * N)
    blocked = run()
    assert default["ser"] == blocked["ser"] and default["stderr"] == blocked["stderr"]
    assert blocked.keys() == default.keys()
    for key in ("layer_errors", "delta_power", "err_power", "probe", "layer_stderr"):
        if key in default:
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


# Instrumented run_point(cfg, exponential, frames=600, seed=11, probe_bin=4)
# arrays in batches of 250 frames, recorded when the selective-channel noise became a
# draw at the loaded bins; the file also holds the RCN-aware allocation (18 dB,
# p_e = 1e-2) that "alloc" loads. The same random stream must give the same
# arrays bit for bit, on the same numpy build and CPU family.
RECORDED_ARRAYS = Path(__file__).parent / "data" / "run_point_exponential.npz"


@pytest.mark.parametrize("name", ["laco", "haco", "alloc"])
def test_run_point_instrumented_arrays_match_recorded(monkeypatch, name):
    with np.load(RECORDED_ARRAYS) as rec:
        recorded = dict(rec)
    if name == "alloc":
        cfg = SchemeConfig.from_allocation(N, recorded["alloc/bits"], recorded["alloc/powers"])
    else:
        layers = 9 if name == "laco" else None
        cfg = SchemeConfig.uniform(name, N, 16, gamma_to_p_eff(name, 20.0, 1.0, layers), layers)
    monkeypatch.setattr(channel_module, "DEFAULT_BATCH", 250)
    out = run_point(cfg, ChannelProfile.exponential(N), frames=600, seed=11, instrument=True,
                    probe_bin=4)
    for key in ("delta_power", "err_power", "probe"):
        assert np.array_equal(out[key], recorded[f"{name}/{key}"]), key


@pytest.mark.parametrize("run,frames", [("run_point", 0), ("run_point", -3),
                                        ("measure_power_relations", 0),
                                        ("measure_power_relations", -3)])
def test_run_point_rejects_empty_runs(run, frames):
    with pytest.raises(ValueError, match="frames must be at least 1"):
        if run == "run_point":
            run_point(SchemeConfig.uniform("haco", N, 16, 1.0), ChannelProfile.flat(N),
                      frames=frames, seed=0)
        else:
            measure_power_relations("haco", 1.0, n=N, frames=frames)


def test_measure_rcn_power_shapes(monkeypatch):
    monkeypatch.setattr(channel_module, "DEFAULT_BATCH", 100)
    cfg = SchemeConfig.uniform("laco", N, 64, gamma_to_p_eff("laco", 10.0, 1.0, 9, True), 9)
    out = run_point(cfg, ChannelProfile.flat(N), 200, seed=(2, 0), instrument=True)
    assert out["delta_power"].shape == out["err_power"].shape == (9, 200)
    # coarse agreement with the reference value 0.427 at small frame count
    assert out["delta_power"][0].mean() == pytest.approx(0.427, rel=0.10)


@pytest.mark.parametrize("scheme", ["ado", "dco"])
@pytest.mark.parametrize("kw", [{"instrument": True}, {"probe_bin": 4}], ids=["instrument", "probe"])
def test_instrumented_run_rejects_a_dco_layer(monkeypatch, scheme, kw):
    # the zero-clipped RCN does not describe a bias-clipped layer; the run fails before
    # its first block is drawn
    def no_blocks(*args):
        raise AssertionError("a frame was drawn")
    monkeypatch.setattr(channel_module, "_blocks", no_blocks)
    cfg = SchemeConfig.uniform(scheme, N, 16, 1.0)
    with pytest.raises(ValueError, match="zero-clipped layers only, not a DCO layer"):
        run_point(cfg, ChannelProfile.flat(N), frames=10, seed=0, **kw)


def test_probe_bin_implies_instrumentation():
    # a probe bin without instrument=True was dropped without an error
    cfg = SchemeConfig.uniform("laco", N, 16, gamma_to_p_eff("laco", 14.0, 1.0, 9, True), 9)
    probed = run_point(cfg, ChannelProfile.flat(N), 100, 0, probe_bin=256)
    full = run_point(cfg, ChannelProfile.flat(N), 100, 0, instrument=True, probe_bin=256)
    assert probed.keys() == full.keys()
    for key in ("delta_power", "err_power", "probe"):
        assert np.array_equal(probed[key], full[key]), key


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
    assert mc.p_elec == pytest.approx(2.0, rel=0.05)
    assert mc.p_opt == pytest.approx(np.sqrt(2.0 / np.pi), rel=0.05)


def test_measure_power_relations_multi_layer():
    mc = measure_power_relations("haco", 1.0, n=N, M=16, frames=400, seed=4)
    assert mc.p_elec == pytest.approx(2.0 + 2.0 / np.pi, rel=0.05)


def _run_fresh(code):
    """Run `code` in a fresh interpreter that imports this checkout's package; assert it exits 0."""
    src = str(Path(channel_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_package_use_leaves_scipy_stats_unloaded():
    # scipy.stats more than doubles the start-up of every process. The engine and
    # the power relations load no scipy at all; the first Q-function call (here
    # the allocator's) loads scipy.special alone
    _run_fresh("""if True:
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
    """)


def test_rcn_statistics_leaves_scipy_stats_unloaded():
    # its KS distances imported scipy.stats, which alone doubled the start-up time
    _run_fresh("""if True:
        import sys
        import numpy as np
        from oofdm.channel import rcn_statistics
        rng = np.random.default_rng(0)
        rcn_statistics(rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50)), 0.0)
        assert "scipy.stats" not in sys.modules, "scipy.stats was imported"
    """)


@pytest.mark.parametrize("frames", [2, 3, 50, 1001])
def test_rcn_statistics_ks_distances_equal_kstest(frames):
    from scipy import stats

    rng = np.random.default_rng(frames)
    probe = rng.standard_normal((3, frames)) + 1j * rng.standard_normal((3, frames))
    probe[1] = probe[1] ** 3  # heavy tails, far from N(0, 1)
    probe[2] = np.round(probe[2], 1)  # tied samples
    res = rcn_statistics(probe, 0.0)
    expected = [(stats.kstest(re, "norm").statistic, stats.kstest(im, "norm").statistic)
                for re, im in zip(res["normalized_re"], res["normalized_im"])]
    assert res["ks"] == expected
