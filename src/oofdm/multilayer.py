"""Multi-layer optical OFDM: one superposition transmitter for every scheme, a bin-domain
iterative receiver, and the residual clipping noise (RCN) of its decisions.

A layer whose bins are all multiples of L has a frame of period N/L; a config's layers have
nested periods (L at least doubles from layer to layer, and an ACO layer loads odd multiples
of its L only), and only the last may be DCO or PAM. Each layer is synthesized and clipped on
one period from its per-bin tables, its bins written and read through one column index: a
basic slice when they are equally spaced, as on every uniform and RCN-aware layer, else an
index array. `modulate` sends frames x; the receiver never forms x: a layer observes its own
sent symbols plus the spectrum of the noise and of the clipping residue of each earlier
layer's wrong decisions, so only the rows that erred are remodulated, on half a period. Its
bins, scaled by 1/sqrt(P_s) (a zero-clipped layer is loaded at 2*sqrt(P_s), and clipping
halves its bins), are detected in one quantizer call. `layer_noise` measures the RCN of
zero-clipped (ACO and PAM) layers from the sent and detected indices on each layer's period
too, tiling only the RCN and the squared detection error to full length.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constellation import quantize, unit_alphabet
from .modems import _loadable, laco_layers, layer_kinds

DCO_BIAS = 3.0  # in frame standard deviations, as the closed-form DCO relations assume


@dataclass(frozen=True)
class LayerSpec:
    """Per-layer loading: independent data bins (k < N/2, mirrors implied),
    constellation order and effective power per bin."""
    kind: str               # "aco" | "dco" | "pam" clipping behavior
    bins: np.ndarray        # independent subcarrier indices, ascending
    M: np.ndarray           # constellation order per bin
    power: np.ndarray       # effective power P_s(k) per bin; `tables` adds the clipping gain

    @cached_property
    def fold(self) -> int:
        """Largest power of two L dividing every bin: the layer frame has period N/L."""
        acc = int(np.bitwise_or.reduce(self.bins))
        return acc & -acc

    @cached_property
    def tables(self) -> "LayerTables":
        """Per-bin mapping and detection tables, built on first use."""
        orders, pos = np.unique(self.M, return_inverse=True)
        alphabets = [unit_alphabet(self.kind, int(order)) for order in orders]
        start = np.cumsum([0] + [c.points.size for c in alphabets])[:-1]
        d_min, m_i, m_q = (np.array([getattr(c, a) for c in alphabets], dtype=float)[pos]
                           for a in ("d_min", "m_i", "m_q"))
        root = np.sqrt(self.power)
        amp = (1.0 if self.kind == "dco" else 2.0) * root / self.fold
        gain = 1.0 / root
        return LayerTables(_columns(self.bins // self.fold),
                           np.concatenate([c.points for c in alphabets]), start[pos], amp,
                           np.column_stack((gain, gain)), np.column_stack((d_min, d_min)),
                           np.column_stack((m_i - 1, m_q - 1)), m_q)


def _columns(cols: np.ndarray):
    """`cols` as slice(first, last + 1, step) when equally spaced (a single one counts),
    else unchanged: numpy indexes with either, and a slice skips the fancy-index gather."""
    step = int(cols[1] - cols[0]) if cols.size > 1 else 1
    if step > 0 and np.array_equal(cols, np.arange(cols[0], cols[-1] + 1, step)):
        return slice(int(cols[0]), int(cols[-1]) + 1, step)
    return cols


@dataclass(frozen=True)
class LayerTables:
    """One layer's per-bin tables, in bin order; (n_j, 2) ones hold a value per
    axis, contiguous so that they run over (F, n_j, 2) (re, im) pairs in one pass."""
    cols: slice | np.ndarray  # bins // L in one period's half spectrum; a slice if equally spaced
    alphabet: np.ndarray   # unit-power alphabets of the layer's orders, concatenated
    offset: np.ndarray     # start of each bin's alphabet in `alphabet`
    amp: np.ndarray        # load scale 2*sqrt(P_s)/L, sqrt(P_s)/L for DCO
    gain: np.ndarray       # (n_j, 2) observation scale 1/sqrt(P_s)
    d_min: np.ndarray      # (n_j, 2) minimum distance of the unit alphabet
    top: np.ndarray        # (n_j, 2) highest level index per axis, (m_i - 1, m_q - 1)
    m_q: np.ndarray        # levels on the Q axis


@dataclass(frozen=True)
class SchemeConfig:
    n: int
    layers: list

    def __post_init__(self):
        for sp in self.layers:
            for order in sorted(set(sp.M.tolist())):  # np.unique would import numpy.ma
                unit_alphabet(sp.kind, int(order))  # rejects an order off the grid
        bins = np.concatenate([[1]] + [sp.bins for sp in self.layers])  # one reduction per bound
        power = np.concatenate([[0.0]] + [sp.power for sp in self.layers])
        if not (all(sp.bins.size for sp in self.layers) and bins.min() >= 1
                and bins.max() < self.n // 2):
            raise ValueError("a layer needs independent bins in [1, n/2)")
        if not (power.min() >= 0.0 and power.max() < np.inf):  # a NaN makes the minimum NaN
            raise ValueError("per-bin effective power must be finite and non-negative")
        folds = [sp.fold for sp in self.layers]
        if folds != sorted(set(folds)):
            raise ValueError(f"layer periods must be nested: fold factors {folds} do not increase")
        if any(sp.kind == "aco" and np.any((sp.bins & sp.fold) == 0) for sp in self.layers):
            raise ValueError("an ACO layer loads odd multiples of its fold factor only")
        if any(sp.kind != "aco" for sp in self.layers[:-1]):
            raise ValueError("only the last layer may be a DCO or PAM layer")

    @property
    def n_loaded(self) -> int:
        """Loaded effective subcarriers counting both Hermitian mirrors."""
        return int(sum(2 * len(sp.bins) for sp in self.layers))

    @cached_property
    def loaded_bins(self) -> np.ndarray:
        """Every layer's bins, in layer order."""
        return np.concatenate([sp.bins for sp in self.layers])

    @classmethod
    def uniform(cls, scheme: str, n: int, M: int, p_eff: float,
                layers: int | None = None) -> "SchemeConfig":
        """Equal per-subcarrier effective power eps = N^2 * p_eff / N' on the N' effective
        subcarriers (both mirrors counted), each carrying constellation order M.

        A single-layer scheme (aco, dco, pam) gives a one-layer config; the layer count
        applies to LACO only. A zero-clipped (ACO) layer j holds the bins of layer index j;
        a DCO or PAM layer, last in its scheme, every bin of layer index j or more.
        """
        kinds = layer_kinds(scheme, n, layers)
        k, t = _loadable(n)
        k, t = k[k < n // 2], t[k < n // 2]
        bins = [k[t == j] if kind == "aco" else k[t >= j] for j, kind in enumerate(kinds, 1)]
        n_prime = 2 * sum(len(b) for b in bins)
        eps = n ** 2 * float(p_eff) / n_prime  # a Python float overflows to inf silently
        return cls(n, [LayerSpec(kind, b, np.full(b.shape, M, dtype=np.int64), np.full(b.shape, eps))
                       for kind, b in zip(kinds, bins)])

    @classmethod
    def from_allocation(cls, n: int, bits, powers) -> "SchemeConfig":
        """LACO config from per-subcarrier bit loading B(k) and effective
        power P_s(k) (full-length arrays); unloaded bins are skipped."""
        bits = np.asarray(bits)
        powers = np.asarray(powers)
        k, t = _loadable(n)
        loaded = (k < n // 2) & (bits[k] > 0)
        k, t = k[loaded], t[loaded]
        specs = []
        for j in range(1, laco_layers(n) + 1):
            indep = k[t == j]  # LACO layer j holds the bins of layer index j
            if indep.size:
                specs.append(LayerSpec("aco", indep, 2 ** bits[indep].astype(np.int64), powers[indep]))
        return cls(n, specs)


def _synthesize(spec: LayerSpec, idx, n: int):
    """One period (length n/L) of the real frames loading symbols `idx`; the
    division of the load scale by L is exact as L is a power of two."""
    tab, L = spec.tables, spec.fold
    half = np.zeros((len(idx), n // (2 * L) + 1), dtype=complex)
    half[:, tab.cols] = tab.alphabet[idx + tab.offset] * tab.amp
    return np.fft.irfft(half, n // L)


def draw_symbols(config: SchemeConfig, rng, frames: int) -> list:
    """Random symbol indices per layer (frames, n_j), one uniform draw per bin in layer order
    from `rng`, so the stream layout does not depend on how bins group by order. A draw is
    below 1 and every order a power of two, so draw * M is exact and its index below M."""
    return [(rng.random((frames, len(spec.M))) * spec.M).astype(np.int64) for spec in config.layers]


def modulate(config: SchemeConfig, sym_idx) -> np.ndarray:
    """The (F, N) frames loading `sym_idx`: map, synthesize and clip each layer on one
    period, then add the layers in layer order onto the first layer's frame, tiled to
    full length if shorter."""
    if not config.layers:
        raise ValueError("the config loads no subcarrier: nothing to transmit")
    n, parts = config.n, []
    for spec, idx in zip(config.layers, sym_idx):
        s = _synthesize(spec, idx, n)
        if spec.kind == "dco":  # the last layer, biased by DCO_BIAS SDs of its own frame
            s += DCO_BIAS * np.std(s, axis=-1, keepdims=True)
        parts.append(np.maximum(s, 0.0, out=s))
    x = parts[0] if parts[0].shape[-1] == n else np.tile(parts[0], n // parts[0].shape[-1])
    for x_j in parts[1:]:
        periods = x.reshape(len(x), -1, x_j.shape[-1])
        periods += x_j[:, None]
    return x


def _detect(config: SchemeConfig, sent_idx, noise) -> list:
    """Detected symbol indices (F, n_j) of each layer of a block that sent `sent_idx`, with the
    noise as `channel.post_eq_noise` draws it: white (F, N) frames, overwritten, or V(k). A
    layer observes its own symbols plus the spectrum acc, on the multiples of `step` not yet
    read, of the noise and of each earlier layer's clipping residue (|s| - |s_hat|)/2, of
    period N/(2L), on its rows that erred; a DCO frame joins the noise whole. So the decisions
    are those on the frames x + v, up to rounding (|s|/2 is real at a PAM layer's bins)."""
    n, frames, det_idx, last, step = config.n, len(noise), [], config.layers[-1], 1
    if last.kind == "dco":  # sent as `modulate` sends it
        frame = _synthesize(last, sent_idx[-1], n)
        frame += DCO_BIAS * np.std(frame, axis=-1, keepdims=True)
        np.maximum(frame, 0.0, out=frame)
    if noise.ndim == 2:  # in time, where the DCO frame joins before the one FFT
        if last.kind == "dco":
            noise.reshape(frames, last.fold, -1)[:] += frame[:, None]
        acc = np.fft.rfft(noise)
    else:
        acc = np.zeros((frames, n // 2 + 1), dtype=complex)
        acc[:, config.loaded_bins] = noise.view(complex)[..., 0]
        if last.kind == "dco":
            acc[:, ::last.fold] += last.fold * np.fft.rfft(frame)
    frame = None  # freed before the layers allocate theirs
    for spec, sent in zip(config.layers, sent_idx):
        own = None if spec.kind == "dco" else sent  # a DCO layer's own term is in acc
        det_idx.append(_decide(acc[:, ::spec.fold // step], spec.tables, own))
        if len(det_idx) == len(config.layers):
            break  # nothing reads the last layer's residue
        rows = (det_idx[-1] != sent).any(axis=1)
        rows = slice(None) if rows.all() else np.flatnonzero(rows)  # a view beats a gather
        acc, step = np.ascontiguousarray(acc[:, ::2 * spec.fold // step]), 2 * spec.fold
        resid = np.abs(_synthesize(spec, sent[rows], n)[:, :n // step])  # one period at a time
        resid -= np.abs(_synthesize(spec, det_idx[-1][rows], n)[:, :n // step])
        acc[rows] += spec.fold * np.fft.rfft(resid)
    return det_idx


def _decide(band, tab: LayerTables, sent):
    """Decisions on the layer's bins of `band` scaled by `gain`, plus the unit symbols `sent`."""
    obs = np.ascontiguousarray(band[:, tab.cols]).view(float).reshape(len(band), -1, 2)
    obs *= tab.gain
    if sent is not None:  # None when `band` holds the layer's own term
        obs += tab.alphabet[sent + tab.offset].view(float).reshape(obs.shape)
    return quantize(obs, tab.d_min, tab.top, tab.m_q)


def layer_noise(config: SchemeConfig, sent_idx, det_idx, probe_bin: int | None = None):
    """Per-frame RCN power mean(delta_t^2), error power mean(e_t^2) and RCN sample FFT(delta_t)
    at `probe_bin` (or None) of each layer, as (J, F) arrays, from sent and detected indices.
    Every layer is taken as zero-clipped (ACO or PAM), so delta_t = (|s_t| - |s_t + e_t|)/2;
    `run_point` rejects a config with a DCO layer. delta_t and e_t^2 are formed on one
    period and then tiled: elementwise steps commute with tiling, so the results equal
    those of full-length frames bit for bit."""
    ph = None if probe_bin is None else np.exp(-2j * np.pi * probe_bin * np.arange(config.n) / config.n)
    delta_power, err_power, probe = [], [], []
    for spec, sent, det in zip(config.layers, sent_idx, det_idx):  # one layer's frames at a time
        s, s_hat = (_synthesize(spec, idx, config.n) for idx in (sent, det))
        e = s_hat - s
        delta = np.tile(0.5 * (np.abs(s) - np.abs(s + e)), spec.fold)
        delta_power.append(np.mean(delta ** 2, axis=-1))
        err_power.append(np.mean(np.tile(e ** 2, spec.fold), axis=-1))
        probe.append(None if ph is None else delta @ ph)
    return np.array(delta_power), np.array(err_power), None if ph is None else np.array(probe)
