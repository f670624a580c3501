"""Channel profiles and the Monte Carlo engine: one seeded operating point
per `run_point` call, the clipping-noise statistics of its probe samples, and
the measured power relations. The command line runs the SNR grid.

Equalized reception model: y = x + v where v is the post-equalization noise, white
unit-power Gaussian noise before equalization, so per-bin power N/|H(k)|^2 after it; a
received frame is never inverted. On a flat channel v is drawn in time, white. On a
selective channel only its spectrum V(k) at the config's loaded bins is drawn, complex
Gaussian with per-axis variance N/(2|H(k)|^2): every decision reads only those bins, so
noise anywhere else never reaches one. A run draws its frames in batches of
`DEFAULT_BATCH`: `_batches` seeds batch b with child b of `np.random.SeedSequence(seed)`,
spawned as the batch starts; `_blocks` draws a batch's symbols whole, then the noise of one
row block of about 512 KiB of frame samples at a time, so that a block's arrays stay in
cache. It yields each block's sent indices and noise v, which `multilayer._detect` decides
in the bin domain: `run_point` never forms the frames x, which only the CLI's frame dump
(frame 0 of the first block) and `measure_power_relations` modulate. `layer_noise` measures
an instrumented block's RCN from its sent and detected indices, on each layer's half period;
only ACO layers are instrumented. The generator fills in order and every step is
row-independent: results depend on the seed only, never on the block. The engine loads no
scipy module: `rcn_statistics` imports `scipy.special` when called, for its KS distances.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .modems import PowerPair, layer_index, power_relations
from .multilayer import SchemeConfig, _detect, draw_symbols, layer_noise, modulate
from .numerics import _check_length

DEFAULT_BATCH = 500
# Frame samples per row block of run_point: a (rows, N) float64 block of 512 KiB.
_BLOCK_ELEMS = 1 << 16


@dataclass(frozen=True)
class ChannelProfile:
    """Per-subcarrier gain H(k); the pre-equalization noise is white with unit power.

    A real frame sees |H(k)| = |H(N-k)|, and equalization needs a finite, positive noise
    power N/|H(k)|^2 (|H(k)|^2 neither overflows nor underflows to zero); a profile that
    breaks either is rejected when it is built.
    """
    n: int
    h: np.ndarray | None = None   # None means flat (H = 1)

    def __post_init__(self):
        _check_length(self.n)
        if self.h is not None and np.shape(self.h) != (self.n,):
            raise ValueError(f"channel gain must have shape ({self.n},), got {np.shape(self.h)}")
        g = self.gain
        with np.errstate(over="ignore", divide="ignore"):
            noise = self.bin_noise_power()
        if not np.all((noise > 0.0) & (noise < np.inf)):  # a NaN gain fails both
            raise ValueError("channel gain must be finite, with a finite positive noise power"
                             " N/|H(k)|^2, on all bins")
        if not np.allclose(g, np.roll(g[::-1], 1)):
            raise ValueError("channel magnitude must satisfy |H(k)| = |H(N-k)|")

    @classmethod
    def flat(cls, n: int) -> "ChannelProfile":
        return cls(n)

    @classmethod
    def exponential(cls, n: int) -> "ChannelProfile":
        """Low-pass magnitude profile |H(k)| = 10^(-min(k, N-k)/N): a band-edge
        power attenuation of 10 dB."""
        k = np.arange(n)
        return cls(n, 10.0 ** (-np.minimum(k, n - k) / n))

    @classmethod
    def from_csv(cls, path, n: int) -> "ChannelProfile":
        """Load (k, |H|) or (k, Re H, Im H) rows, k an integer in [0, N) listed once; a row whose
        first cell is no number (a header) is skipped, unlisted bins are 1. Only |H| is kept."""
        h = np.ones(n, dtype=complex)
        seen = set()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                row = [c.strip() for c in row if c.strip()]
                try:
                    k = float(row[0])
                except (IndexError, ValueError):
                    continue  # header or blank
                where = f"channel file {path}: row {reader.line_num}"
                if not (k.is_integer() and 0 <= k < n) or k in seen:
                    raise ValueError(f"{where}: bin {row[0]} is not an integer in [0, {n}) listed once")
                if len(row) < 2:
                    raise ValueError(f"{where} has no gain")
                seen.add(k)
                h[int(k)] = float(row[1]) + 1j * float(row[2]) if len(row) >= 3 else float(row[1])
        if not seen:
            raise ValueError(f"channel file {path} lists no bin")
        return cls(n, np.abs(h))

    @property
    def gain(self) -> np.ndarray:
        return np.ones(self.n) if self.h is None else np.abs(self.h)

    @cached_property
    def _noise_std(self) -> np.ndarray:
        """(N/2 + 1, 2) per-axis standard deviation sqrt(N/2)/|H(k)| of the post-equalization
        noise spectrum on the half spectrum, the same value for re and im; read-only."""
        std = np.repeat(np.sqrt(self.n / 2) / self.gain[: self.n // 2 + 1, None], 2, axis=1)
        std.flags.writeable = False
        return std

    def bin_noise_power(self) -> np.ndarray:
        """Post-equalization noise power per bin, P{V(k)} = N/|H(k)|^2."""
        return self.n / self.gain ** 2


def post_eq_noise(profile: ChannelProfile, rng, frames: int, bins=None) -> np.ndarray:
    """Draw one block of post-equalization noise from the Generator `rng`.

    Flat channel: (frames, N) white unit-power Gaussian frames in time; `bins` is not read.
    Selective channel: the noise spectrum V(k) at `bins` only (every bin in [1, N/2)), as
    float (re, im) pairs (frames, len(bins), 2), each axis Gaussian with standard deviation
    sqrt(N/2)/|H(k)|: per-bin power N/|H(k)|^2, as white unit-power time noise has after
    the equalizer (only |H| affects its statistics). Distinct bins are independent.
    """
    if profile.h is None:
        return rng.standard_normal((frames, profile.n))
    if bins is None:
        raise ValueError("a selective channel's noise is drawn at given bins")
    v = rng.standard_normal((frames, len(bins), 2))
    v *= profile._noise_std[bins]
    return v


def gamma_to_p_eff(scheme: str, gamma_db: float, noise_power: float = 1.0,
                   layers: int | None = None, effective: bool = False) -> float:
    """Convert an SNR point (electrical, or effective with effective=True)
    into the effective-power budget."""
    try:
        p = 10.0 ** (gamma_db / 10.0) * noise_power
    except OverflowError:
        raise ValueError(f"SNR {gamma_db:g} dB overflows the effective power") from None
    if effective:
        return p
    return p / power_relations(scheme, 1.0, layers).p_elec


def _batches(frames: int, seed):
    """(size, Generator) of each batch of at most DEFAULT_BATCH of `frames` frames, in order:
    batch b draws from child b of `np.random.SeedSequence(seed)`, spawned as it starts."""
    if frames < 1:
        raise ValueError(f"frames must be at least 1, got {frames}")
    batch, root = DEFAULT_BATCH, np.random.SeedSequence(seed)
    for lo in range(0, frames, batch):
        yield min(batch, frames - lo), np.random.default_rng(root.spawn(1)[0])


def _blocks(scheme_cfg: SchemeConfig, profile: ChannelProfile, frames: int, seed):
    """(sent symbol indices per layer, post-equalization noise v) of each row block of a run,
    in order; v is `post_eq_noise` at the config's loaded bins."""
    if profile.n != scheme_cfg.n:
        raise ValueError(f"channel profile has N = {profile.n} but the scheme has N = {scheme_cfg.n}")
    rows = max(1, _BLOCK_ELEMS // scheme_cfg.n)
    for size, rng in _batches(frames, seed):
        sym_idx = draw_symbols(scheme_cfg, rng, size)
        for lo in range(0, size, rows):
            sent = [idx[lo:lo + rows] for idx in sym_idx]
            yield sent, post_eq_noise(profile, rng, len(sent[0]), scheme_cfg.loaded_bins)


def run_point(scheme_cfg: SchemeConfig, profile: ChannelProfile, frames: int, seed,
              instrument: bool = False, probe_bin: int | None = None):
    """Monte Carlo run at a single operating point.

    Returns a dict with per-layer error counts, overall and per-layer SER with
    their standard errors (sample SD of the per-frame SER over sqrt(frames);
    nan for one frame), and (when instrumented) per-frame delta/error powers
    and probe-bin clipping-noise samples per layer. A probe bin implies instrumentation,
    which measures ACO layers only: it rejects a config with a DCO or PAM layer.
    """
    instrument = instrument or probe_bin is not None
    if instrument and any(sp.kind != "aco" for sp in scheme_cfg.layers):
        raise ValueError("an instrumented run measures ACO layers only, not a DCO or PAM layer")
    frame_err, noise = [], []
    for sent, v in _blocks(scheme_cfg, profile, frames, seed):
        det_idx, errors = _detect(scheme_cfg, sent, v)
        frame_err.append(errors)
        if instrument:
            noise.append(layer_noise(scheme_cfg, sent, det_idx, probe_bin))
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
    `ks` to N(0,1), with the normalized samples. The KS distance of sorted samples
    x_(1..n) is max_i max(i/n - Phi(x_(i)), Phi(x_(i)) - (i-1)/n), as `scipy.stats.kstest`
    forms it; `scipy.stats` itself would more than double the process's start-up.
    """
    from scipy.special import ndtr

    centered = probe - probe.mean(axis=1, keepdims=True)
    var = np.mean(np.abs(centered) ** 2, axis=1)
    if not np.all(var > 0):  # one frame, or no detection error on a layer
        raise ValueError(f"layer {np.argmin(var > 0) + 1} has no clipping-noise spread at {gamma_db:g}"
                         f" dB in {probe.shape[1]} frame(s): use a lower SNR or more --runs")
    rho = (centered @ centered.conj().T) / probe.shape[1]
    rho /= np.sqrt(np.outer(var, var))
    sd = np.std(np.concatenate([probe.real, probe.imag], axis=1), axis=1, keepdims=True)
    norm_re, norm_im = probe.real / sd, probe.imag / sd
    cdf = ndtr(np.sort(np.stack([norm_re, norm_im], axis=1), axis=-1))  # (T, 2, frames)
    steps = np.arange(probe.shape[1] + 1) / probe.shape[1]
    ks = np.maximum((steps[1:] - cdf).max(axis=-1), (cdf - steps[:-1]).max(axis=-1))
    return {"rho": rho, "ks": [tuple(pair) for pair in ks], "normalized_re": norm_re,
            "normalized_im": norm_im}


def _probed_layers(n: int, probe_bin: int) -> int:
    """Largest T whose layers 1..T all have the probe bin in their affected
    sets (zero if none): the multiples of 2^t hold it for t below its layer index."""
    if not 0 < probe_bin < n or probe_bin == n // 2:
        return 0
    return layer_index(probe_bin, n) - 1


def measure_power_relations(scheme: str, p_eff: float, n: int = 1024, M: int = 64,
                            frames: int = 1000, seed: int = 0, layers: int | None = None) -> PowerPair:
    """Monte Carlo estimate of (P_elec, P_opt) of a transmitter at the given
    effective power, for comparison against the closed forms."""
    cfg = SchemeConfig.uniform(scheme, n, M, p_eff, layers)
    sq_sum = mean_sum = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        for size, rng in _batches(frames, seed):
            x = modulate(cfg, draw_symbols(cfg, rng, size))
            sq_sum += float(np.sum(x ** 2))
            mean_sum += float(np.sum(x))
    if not np.isfinite(sq_sum + mean_sum):
        raise ValueError(f"the transmitted power overflows at P_eff = {p_eff:g}")
    return PowerPair(sq_sum / (frames * n), mean_sum / (frames * n))
