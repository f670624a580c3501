"""Channel profiles and the Monte Carlo engine: one seeded operating point
per `run_point` call, the clipping-noise statistics of its probe samples, and
the measured power relations. The command line runs the SNR grid.

Equalized reception model: y = x + v where v is the post-equalization noise,
white Gaussian for a flat channel and colored (per-bin power N*Pv/|H(k)|^2)
otherwise; a received frame is never inverted. Batch b is seeded with child
b of `np.random.SeedSequence(seed)`; it draws its symbols whole, then
modulates, draws the noise of and detects one row block of about 512 KiB of
frame samples at a time, so that a block's signals stay in cache;
`multilayer.layer_noise` measures an instrumented block's RCN from its sent
and detected indices, on each layer's period. The generator fills in order
and every step is row-independent: results depend on (seed, batch size)
only, never on the block. The engine loads no scipy module: `rcn_statistics`
alone needs `scipy.stats` and imports it when called.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .modems import layer_index, power_relations
from .multilayer import SchemeConfig, _detect, draw_symbols, layer_noise, modulate, transmit

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

    @cached_property
    def _noise_shaping(self) -> np.ndarray:
        """1/|H(k)| on the half spectrum, each value twice to scale (re, im) pairs; read-only."""
        shaping = np.repeat(1.0 / self.gain[: self.n // 2 + 1], 2)
        shaping.flags.writeable = False
        return shaping

    def bin_noise_power(self) -> np.ndarray:
        """Post-equalization noise power per bin, P{V(k)} = N*Pv/|H(k)|^2."""
        return self.n * self.noise_power / self.gain ** 2


def post_eq_noise(profile: ChannelProfile, rng, frames: int) -> np.ndarray:
    """Draw post-equalization noise frames.

    White time-domain Gaussian for a flat channel; otherwise the white noise
    is shaped by 1/|H(k)| on the half spectrum of a real FFT (only the
    magnitude affects the post-equalization statistics). `rng` is a Generator.
    """
    v0 = rng.standard_normal((frames, profile.n))
    v0 *= np.sqrt(profile.noise_power)  # bit for bit rng.normal(0, sqrt(Pv))
    if profile.h is None:
        return v0
    # numpy divides complex by real through the reciprocal: this multiply is that division
    spectrum = np.fft.rfft(v0)
    pairs = spectrum.view(float)
    pairs *= profile._noise_shaping
    return np.fft.irfft(spectrum, profile.n)


def gamma_to_p_eff(scheme: str, gamma_db: float, noise_power: float = 1.0,
                   layers: int | None = None, effective: bool = False) -> float:
    """Convert an SNR point (electrical, or effective with effective=True)
    into the effective-power budget."""
    p = 10.0 ** (gamma_db / 10.0) * noise_power
    if effective:
        return p
    return p / power_relations(scheme, 1.0, layers).p_elec


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
    for size, ss in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        rng = np.random.default_rng(ss)
        sym_idx = draw_symbols(scheme_cfg, rng, size)
        for lo in range(0, size, rows):
            tx = modulate(scheme_cfg, [idx[lo:lo + rows] for idx in sym_idx])
            y = post_eq_noise(profile, rng, len(tx.x))
            y += tx.x
            det_idx = _detect(y, scheme_cfg)  # y is not read again
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
        "layer_ser": [e / (frames * nb) for e, nb in zip(err_counts, n_bins)],
        "layer_stderr": se[1:].tolist(),
        "frames": frames,
    }
    for key, parts in zip(("delta_power", "err_power", "probe"), zip(*noise)):
        if parts[0] is not None:  # no probe without a probe bin
            out[key] = np.concatenate(parts, axis=1)   # (J, frames)
    return out


def rcn_statistics(probe: np.ndarray, gamma_db: float):
    """Frequency-domain clipping-noise statistics of one operating point.

    `probe` holds the complex samples Delta_t(k) of layers 1..T at one probe
    subcarrier, (T, frames), as an instrumented `run_point` returns them for
    the layers whose affected sets hold the bin. Normalizes real/imaginary
    parts by the standard deviation of their combined sample set and returns
    the normalized covariance matrix `rho` and Kolmogorov-Smirnov distances
    `ks` to N(0,1), with the normalized samples.
    """
    # scipy.stats alone more than doubles the package's import time and memory
    from scipy import stats

    centered = probe - probe.mean(axis=1, keepdims=True)
    var = np.mean(np.abs(centered) ** 2, axis=1)
    if not np.all(var > 0):  # one frame, or no detection error on a layer
        raise ValueError(f"layer {np.argmin(var > 0) + 1} has no clipping-noise spread at {gamma_db:g}"
                         f" dB in {probe.shape[1]} frame(s): use a lower SNR or more --runs")
    rho = (centered @ centered.conj().T) / probe.shape[1]
    rho /= np.sqrt(np.outer(var, var))
    sd = np.std(np.concatenate([probe.real, probe.imag], axis=1), axis=1, keepdims=True)
    norm_re, norm_im = probe.real / sd, probe.imag / sd
    ks = [(stats.kstest(re, "norm").statistic, stats.kstest(im, "norm").statistic)
          for re, im in zip(norm_re, norm_im)]
    return {"rho": rho, "ks": ks, "normalized_re": norm_re, "normalized_im": norm_im}


def _probed_layers(n: int, probe_bin: int) -> int:
    """Largest T whose layers 1..T all have the probe bin in their affected
    sets (zero if none): the multiples of 2^t hold it for t below its layer index."""
    if not 0 < probe_bin < n or probe_bin == n // 2:
        return 0
    return layer_index(probe_bin, n) - 1


def measure_power_relations(scheme: str, p_eff: float, n: int = 1024, M: int = 64,
                            frames: int = 1000, seed: int = 0, layers: int | None = None):
    """Monte Carlo estimate of (P_elec, P_opt) of a transmitter at the given
    effective power, for comparison against the closed forms."""
    cfg = SchemeConfig.uniform(scheme, n, M, p_eff, layers)
    sizes = _batches(frames, DEFAULT_BATCH)
    sq_sum = mean_sum = 0.0
    for size, ss in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        x = transmit(cfg, np.random.default_rng(ss), size).x
        sq_sum += float(np.sum(x ** 2))
        mean_sum += float(np.sum(x))
    return {"p_elec": sq_sum / (frames * n), "p_opt": mean_sum / (frames * n), "p_eff": p_eff}
