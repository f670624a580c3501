"""Channel profiles and the Monte Carlo experiment engine (SER runs,
clipping-noise power measurement, statistics).

Equalized reception model: y = x + v where v is the post-equalization noise,
white Gaussian for a flat channel and colored (per-bin power N*Pv/|H(k)|^2)
otherwise; a received frame is never inverted. Each seeded batch draws its
symbols whole, then modulates, draws the noise of and detects one row block
of about 512 KiB of frame samples at a time, so that a block's signals stay
in cache; `multilayer.layer_noise` measures an instrumented block's RCN from
its sent and detected indices. The generator fills in order and every step
is row-independent: results depend on (seed, batch size) only, never on the
block.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .modems import layer_index, layer_kinds, power_relations
from .multilayer import SchemeConfig, draw_symbols, layer_noise, modulate, receive, transmit
from .numerics import spawn_seeds

DEFAULT_FRAMES = 10_000
DEFAULT_BATCH = 500
# Frame samples per row block of run_point: a (rows, N) float64 block of 512 KiB.
_BLOCK_ELEMS = 1 << 16


@dataclass(frozen=True)
class ChannelProfile:
    """Per-subcarrier gain H(k) plus the pre-equalization white-noise power.

    A real frame sees |H(k)| = |H(N-k)|, and equalization needs a finite,
    nonzero H(k); a profile that breaks either is rejected when it is built.
    """
    n: int
    noise_power: float = 1.0
    h: np.ndarray | None = None   # None means flat (H = 1)

    def __post_init__(self):
        g = self.gain
        if not np.all(np.isfinite(g) & (g != 0.0)):
            raise ValueError("channel gain must be finite and nonzero on all bins")
        if not np.allclose(g, np.roll(g[::-1], 1)):
            raise ValueError("channel magnitude must satisfy |H(k)| = |H(N-k)|")

    @classmethod
    def flat(cls, n: int, noise_power: float = 1.0) -> "ChannelProfile":
        return cls(n, noise_power)

    @classmethod
    def exponential(cls, n: int, att_db: float = 10.0, noise_power: float = 1.0) -> "ChannelProfile":
        """Low-pass magnitude profile |H(k)| = 10^(-a*min(k, N-k)/N) with the
        band-edge power attenuation att_db (a = att_db/10)."""
        a = att_db / 10.0
        k = np.arange(n)
        h = 10.0 ** (-a * np.minimum(k, n - k) / n)
        return cls(n, noise_power, h)

    @classmethod
    def from_csv(cls, path, n: int, noise_power: float = 1.0) -> "ChannelProfile":
        """Load (k, |H|) or (k, Re H, Im H) rows; unlisted bins default to 1."""
        h = np.ones(n, dtype=complex)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                row = [c.strip() for c in row if c.strip()]
                if not row or not row[0].lstrip("-").isdigit():
                    continue  # header or blank
                k = int(row[0])
                if not 0 <= k < n:
                    raise ValueError(f"channel file {path}: bin {k} is outside [0, {n})")
                if len(row) < 2:
                    raise ValueError(f"channel file {path}: row {reader.line_num} has no gain")
                if len(row) >= 3:
                    h[k] = float(row[1]) + 1j * float(row[2])
                else:
                    h[k] = float(row[1])
        if np.allclose(h.imag, 0.0):
            h = h.real
        return cls(n, noise_power, h)

    @property
    def gain(self) -> np.ndarray:
        return np.ones(self.n) if self.h is None else np.abs(self.h)

    def bin_noise_power(self) -> np.ndarray:
        """Post-equalization noise power per bin, P{V(k)} = N*Pv/|H(k)|^2."""
        return self.n * self.noise_power / self.gain ** 2


def post_eq_noise(profile: ChannelProfile, rng, frames: int) -> np.ndarray:
    """Draw post-equalization noise frames.

    White time-domain Gaussian for a flat channel; otherwise the white noise
    is shaped by 1/|H(k)| on the half spectrum of a real FFT (only the
    magnitude affects the post-equalization statistics). `rng` is a Generator.
    """
    v0 = rng.normal(0.0, np.sqrt(profile.noise_power), size=(frames, profile.n))
    if profile.h is None:
        return v0
    g = profile.gain[: profile.n // 2 + 1]
    return np.fft.irfft(np.fft.rfft(v0) / g, profile.n)


def gamma_to_p_eff(scheme: str, gamma_db: float, noise_power: float = 1.0,
                   layers: int | None = None, effective: bool = False) -> float:
    """Convert an SNR point (electrical, or effective with effective=True)
    into the effective-power budget."""
    p = 10.0 ** (gamma_db / 10.0) * noise_power
    if effective:
        return p
    return p / power_relations(scheme, 1.0, layers).p_elec


@dataclass
class ExperimentConfig:
    scheme: str
    n: int = 1024
    M: object = 16                  # scalar or per-layer sequence
    layers: int | None = None
    gammas: tuple = (20.0,)
    gamma_effective: bool = False   # interpret gammas as effective SNR
    frames: int = DEFAULT_FRAMES
    seed: int = 0
    channel: ChannelProfile | None = None
    batch: int = DEFAULT_BATCH

    def profile(self) -> ChannelProfile:
        return self.channel if self.channel is not None else ChannelProfile.flat(self.n)

    def scheme_config(self, gamma_db: float) -> SchemeConfig:
        layers = len(layer_kinds(self.scheme, self.n, self.layers))
        p_eff = gamma_to_p_eff(self.scheme, gamma_db, self.profile().noise_power,
                               layers, self.gamma_effective)
        return SchemeConfig.uniform(self.scheme, self.n, self.M, p_eff, layers)


def _batches(frames: int, batch: int):
    if frames < 1 or batch < 1:
        raise ValueError(f"frames and batch must be at least 1, got {frames} and {batch}")
    return [min(batch, frames - lo) for lo in range(0, frames, batch)]


def run_point(scheme_cfg: SchemeConfig, profile: ChannelProfile, frames: int, seed,
              batch: int = DEFAULT_BATCH, instrument: bool = False,
              probe_bin: int | None = None):
    """Monte Carlo run at a single operating point.

    Returns a dict with per-layer error counts, overall and per-layer SER with
    their standard errors (sample SD of the per-frame SER over sqrt(frames);
    nan for one frame), and (when instrumented) per-frame delta/error powers
    and probe-bin clipping-noise samples per layer.
    """
    sizes = _batches(frames, batch)
    rows = max(1, _BLOCK_ELEMS // scheme_cfg.n)
    frame_err, noise = [], []
    for size, ss in zip(sizes, spawn_seeds(seed, len(sizes))):
        rng = np.random.default_rng(ss)
        sym_idx = draw_symbols(scheme_cfg, rng, size)
        for lo in range(0, size, rows):
            tx = modulate(scheme_cfg, [idx[lo:lo + rows] for idx in sym_idx])
            y = post_eq_noise(profile, rng, len(tx.x))
            y += tx.x
            det_idx = receive(y, scheme_cfg)
            frame_err.append([np.count_nonzero(d != s, axis=1) for d, s in zip(det_idx, tx.sym_idx)])
            if instrument:
                noise.append(layer_noise(scheme_cfg, tx, det_idx, probe_bin))
    frame_err = np.concatenate(frame_err, axis=1)          # (J, frames)
    err_counts = frame_err.sum(axis=1)
    n_bins = np.array([len(sp.bins) for sp in scheme_cfg.layers])
    n_prime = scheme_cfg.n_loaded
    # per-frame SER, overall then per layer; one frame has no spread estimate
    per_frame = np.vstack([2.0 * frame_err.sum(axis=0) / n_prime, frame_err / n_bins[:, None]])
    se = (np.std(per_frame, axis=1, ddof=1) / np.sqrt(frames) if frames > 1
          else np.full(len(per_frame), np.nan))
    out = {
        "ser": 2.0 * err_counts.sum() / (frames * n_prime),
        "stderr": float(se[0]),
        "layer_errors": err_counts,
        "layer_ser": [2.0 * e / (frames * 2 * nb) for e, nb in zip(err_counts, n_bins)],
        "layer_stderr": se[1:].tolist(),
        "frames": frames,
    }
    for key, parts in zip(("delta_power", "err_power", "probe"), zip(*noise)):
        if parts[0] is not None:  # no probe without a probe bin
            out[key] = np.concatenate(parts, axis=1)   # (J, frames)
    return out


def _grid_points(cfg: ExperimentConfig, **run_kw):
    """(gamma, run_point result) per grid point; point i is seeded (cfg.seed, i)."""
    profile = cfg.profile()
    for i, gamma in enumerate(cfg.gammas):
        yield gamma, run_point(cfg.scheme_config(gamma), profile, cfg.frames,
                               (cfg.seed, i), batch=cfg.batch, **run_kw)


def run_ser_experiment(cfg: ExperimentConfig):
    """Simulated SER over the configured SNR grid. Returns a list of rows
    {gamma, ser, stderr, layer_ser}."""
    return [{"gamma": gamma, "ser": point["ser"], "stderr": point["stderr"],
             "layer_ser": point["layer_ser"]} for gamma, point in _grid_points(cfg)]


def measure_rcn_power(cfg: ExperimentConfig):
    """Measured per-layer residual-clipping-noise and detection-error powers,
    averaged over frames: rows {gamma, delta_power, err_power} of (J,) arrays."""
    return [{"gamma": gamma, "delta_power": point["delta_power"].mean(axis=1),
             "err_power": point["err_power"].mean(axis=1)}
            for gamma, point in _grid_points(cfg, instrument=True)]


def rcn_statistics(cfg: ExperimentConfig, probe_bin: int):
    """Frequency-domain clipping-noise statistics at one probe subcarrier.

    For each layer t with probe_bin in its affected set, collects the complex
    samples Delta_t(probe_bin), normalizes real/imaginary parts by the
    standard deviation of their combined sample set, and reports the
    normalized covariance matrix and Kolmogorov-Smirnov distances to N(0,1).
    """
    t_max = _probed_layers(cfg.n, probe_bin)
    if t_max == 0:
        raise ValueError(f"probe bin {probe_bin} is not affected by any layer")
    rows = []
    for gamma, point in _grid_points(cfg, instrument=True, probe_bin=probe_bin):
        samples = point["probe"][:t_max]            # (T, frames)
        centered = samples - samples.mean(axis=1, keepdims=True)
        var = np.mean(np.abs(centered) ** 2, axis=1)
        if not np.all(var > 0):  # one frame, or no detection error on a layer
            raise ValueError(f"layer {np.argmin(var > 0) + 1} has no clipping-noise spread at {gamma:g}"
                             f" dB in {cfg.frames} frame(s): use a lower SNR or more --runs")
        rho = (centered @ centered.conj().T) / samples.shape[1]
        rho /= np.sqrt(np.outer(var, var))
        sd = np.std(np.concatenate([samples.real, samples.imag], axis=1), axis=1, keepdims=True)
        norm_re, norm_im = samples.real / sd, samples.imag / sd
        ks = [(stats.kstest(re, "norm").statistic, stats.kstest(im, "norm").statistic)
              for re, im in zip(norm_re, norm_im)]
        rows.append({"gamma": gamma, "rho": rho, "ks": ks,
                     "normalized_re": norm_re, "normalized_im": norm_im,
                     "delta_power": point["delta_power"].mean(axis=1)})
    return rows


def _probed_layers(n: int, probe_bin: int) -> int:
    """Largest T whose layers 1..T all have the probe bin in their affected
    sets (zero if none): the multiples of 2^t hold it for t below its layer index."""
    if not 0 < probe_bin < n or probe_bin == n // 2:
        return 0
    return layer_index(probe_bin, n) - 1


def measure_power_relations(scheme: str, p_eff: float, n: int = 1024, M: int = 64,
                            frames: int = 1000, seed: int = 0,
                            layers: int | None = None, batch: int = DEFAULT_BATCH):
    """Monte Carlo estimate of (P_elec, P_opt) of a transmitter at the given
    effective power, for comparison against the closed forms."""
    cfg = SchemeConfig.uniform(scheme, n, M, p_eff, layers)
    sizes = _batches(frames, batch)
    sq_sum = mean_sum = 0.0
    for size, ss in zip(sizes, spawn_seeds(seed, len(sizes))):
        x = transmit(cfg, np.random.default_rng(ss), size).x
        sq_sum += float(np.sum(x ** 2))
        mean_sum += float(np.sum(x))
    return {"p_elec": sq_sum / (frames * n), "p_opt": mean_sum / (frames * n), "p_eff": p_eff}
