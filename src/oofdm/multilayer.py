"""Multi-layer optical OFDM: one superposition transmitter for every scheme, a
detect-only iterative receiver, and the residual clipping noise (RCN) of its decisions.

A layer whose bins are all multiples of L has a frame of period N/L; a
config's layers have nested periods (L never decreases from layer to layer),
and only the last may be DCO or PAM. Each layer is synthesized, clipped and
remodulated on one period, mapped by one gather from its per-bin tables. The
receiver only detects: it keeps the residual folded onto the current layer's
period, takes its real FFT, scales the layer's bins by 2 to undo the clipping
attenuation (a bias-clipped DCO layer is detected unscaled), detects them in
one quantizer call and, but for the last layer, subtracts L times the layer
remodulated. `layer_noise` measures the RCN from the sent and detected indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constellation import Constellation, quantize
from .modems import effective_subcarriers, laco_layers, layer_kinds

DCO_BIAS = 3.0  # in frame standard deviations, as the closed-form DCO relations assume


@dataclass(frozen=True)
class LayerSpec:
    """Per-layer loading: independent data bins (k < N/2, mirrors implied),
    constellation order and frequency-domain symbol power per bin."""
    kind: str               # "aco" | "dco" | "pam" clipping behavior
    bins: np.ndarray        # independent subcarrier indices, ascending
    M: np.ndarray           # constellation order per bin
    sym_power: np.ndarray   # E|S_j(k)|^2 per bin

    @cached_property
    def fold(self) -> int:
        """Largest power of two L dividing every bin: the layer frame has period N/L."""
        acc = int(np.bitwise_or.reduce(self.bins))
        return acc & -acc

    @cached_property
    def tables(self) -> "LayerTables":
        """Per-bin mapping and detection tables, built on first use."""
        make = Constellation.pam if self.kind == "pam" else Constellation.qam
        orders, pos = np.unique(self.M, return_inverse=True)
        alphabets = [make(int(order), 1.0) for order in orders]
        start = np.cumsum([0] + [c.M for c in alphabets])[:-1]
        d_min, m_i, m_q = (np.array([getattr(c, a) for c in alphabets], dtype=float)[pos]
                           for a in ("d_min", "m_i", "m_q"))
        root = np.sqrt(self.sym_power)
        gain = (1.0 if self.kind == "dco" else 2.0) / root
        return LayerTables(self.bins // self.fold, np.concatenate([c.points for c in alphabets]),
                           start[pos], root / self.fold, np.column_stack((gain, gain)),
                           np.column_stack((d_min, d_min)), np.column_stack((m_i - 1, m_q - 1)), m_q)


@dataclass(frozen=True)
class LayerTables:
    """One layer's per-bin tables, in bin order; (n_j, 2) ones hold a value per
    axis, contiguous so that they run over (F, n_j, 2) (re, im) pairs in one pass."""
    cols: np.ndarray       # bins // L: columns in the half spectrum of one period
    alphabet: np.ndarray   # unit-power alphabets of the layer's orders, concatenated
    offset: np.ndarray     # start of each bin's alphabet in `alphabet`
    amp: np.ndarray        # load scale sqrt(P_s)/L
    gain: np.ndarray       # (n_j, 2) observation scale 2/sqrt(P_s), 1/sqrt(P_s) for DCO
    d_min: np.ndarray      # (n_j, 2) minimum distance of the unit alphabet
    top: np.ndarray        # (n_j, 2) highest level index per axis, (m_i - 1, m_q - 1)
    m_q: np.ndarray        # levels on the Q axis


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str
    n: int
    layers: list

    def __post_init__(self):
        for sp in self.layers:
            if not (sp.bins.size and sp.bins.min() >= 1 and sp.bins.max() < self.n // 2):
                raise ValueError("a layer needs independent bins in [1, n/2)")
        folds = [sp.fold for sp in self.layers]
        if folds != sorted(folds):
            raise ValueError(f"layer periods must be nested: fold factors {folds} decrease")
        if any(sp.kind != "aco" for sp in self.layers[:-1]):
            raise ValueError("only the last layer may be a DCO or PAM layer")

    @property
    def n_loaded(self) -> int:
        """Loaded effective subcarriers counting both Hermitian mirrors."""
        return int(sum(2 * len(sp.bins) for sp in self.layers))

    @classmethod
    def uniform(cls, scheme: str, n: int, M, p_eff: float,
                layers: int | None = None) -> "SchemeConfig":
        """Equal per-subcarrier effective power over all effective subcarriers.

        A single-layer scheme (aco, dco, pam) gives a one-layer config; the
        layer count applies to LACO only. M may be a scalar or a per-layer
        sequence. The per-subcarrier effective power is eps = N^2 * p_eff / N';
        clipped layers carry symbol power 4*eps (detection recovers S/2), a DCO
        layer carries eps.
        """
        scheme = scheme.lower()
        kinds = layer_kinds(scheme, n, layers)
        j_count = len(kinds)
        orders = [M] * j_count if np.isscalar(M) else list(M)
        if len(orders) != j_count:
            raise ValueError("per-layer order list does not match the layer count")
        bins = [effective_subcarriers(scheme, j + 1, n) for j in range(j_count)]
        n_prime = sum(len(b) for b in bins)
        eps = n ** 2 * p_eff / n_prime
        specs = []
        for kind, order, ks in zip(kinds, orders, bins):
            indep = ks[ks < n // 2]
            power = eps if kind == "dco" else 4.0 * eps
            specs.append(LayerSpec(kind, indep,
                                   np.full(indep.shape, order, dtype=np.int64),
                                   np.full(indep.shape, power)))
        return cls(scheme, n, specs)

    @classmethod
    def from_allocation(cls, n: int, bits, powers) -> "SchemeConfig":
        """LACO config from per-subcarrier bit loading B(k) and effective
        power P_s(k) (full-length arrays); unloaded bins are skipped."""
        bits = np.asarray(bits)
        powers = np.asarray(powers)
        specs = []
        for j in range(1, laco_layers(n) + 1):
            ks = effective_subcarriers("laco", j, n)
            indep = ks[(ks < n // 2) & (bits[ks] > 0)]
            if len(indep) == 0:
                continue
            specs.append(LayerSpec("aco", indep, 2 ** bits[indep].astype(np.int64),
                                   4.0 * powers[indep]))
        return cls("laco", n, specs)


@dataclass
class TxBatch:
    """One batch of transmitted frames plus ground truth."""
    x: np.ndarray                 # (F, N) nonnegative signal
    sym_idx: list                 # per layer (F, n_j) symbol indices
    bias: np.ndarray | None       # (F,) DCO bias, if any


def _synthesize(spec: LayerSpec, idx, n: int):
    """One period (length n/L) of the real frames loading symbols `idx`; the
    scale sqrt(P_s)/L is exact as L is a power of two."""
    tab, L = spec.tables, spec.fold
    half = np.zeros((len(idx), n // (2 * L) + 1), dtype=complex)
    half[:, tab.cols] = tab.alphabet[idx + tab.offset] * tab.amp
    return np.fft.irfft(half, n // L)


def _observations(spectrum, tables: LayerTables):
    """The layer's bins as float (re, im) pairs (F, n_j, 2) scaled by `gain`:
    numpy divides complex by real through the reciprocal, so this is 2*Y/sqrt(P_s)."""
    obs = np.take(spectrum, tables.cols, axis=1).view(float).reshape(len(spectrum), -1, 2)
    obs *= tables.gain
    return obs


def draw_symbols(config: SchemeConfig, rng, frames: int) -> list:
    """Random symbol indices per layer (frames, n_j), one uniform draw per bin in layer order
    from `rng`, so the stream layout does not depend on how bins group by order."""
    return [np.minimum((rng.random((frames, len(spec.M))) * spec.M).astype(np.int64), spec.M - 1)
            for spec in config.layers]


def modulate(config: SchemeConfig, sym_idx) -> TxBatch:
    """Map, synthesize and clip each layer on one period, then add the layers
    in layer order onto the first layer's frame tiled to full length."""
    if not config.layers:
        raise ValueError("the config loads no subcarrier: nothing to transmit")
    n, parts, bias = config.n, [], None
    for spec, idx in zip(config.layers, sym_idx):
        s = _synthesize(spec, idx, n)
        if spec.kind == "dco":  # the last layer, clipped at a per-frame bias
            bias = DCO_BIAS * np.std(s, axis=-1)
            s += bias[:, None]
        parts.append(np.maximum(s, 0.0, out=s))
    x = np.tile(parts[0], n // parts[0].shape[-1])
    for x_j in parts[1:]:
        periods = x.reshape(len(x), -1, x_j.shape[-1])
        periods += x_j[:, None]
    return TxBatch(x, sym_idx, bias)


def transmit(config: SchemeConfig, rng, frames: int) -> TxBatch:
    """Draw random symbols for every layer and superpose the layer signals."""
    return modulate(config, draw_symbols(config, rng, frames))


def receive(y, config: SchemeConfig) -> list:
    """Iterative layer-by-layer detection of an equalized frame batch: the
    detected symbol indices (F, n_j) of each layer."""
    resid = np.atleast_2d(np.asarray(y, dtype=float)).copy()  # folded as layers go
    n, frames, det_idx = config.n, resid.shape[0], []
    for spec in config.layers:
        tab, L = spec.tables, spec.fold
        if resid.shape[-1] > n // L:
            resid = resid.reshape(frames, -1, n // L).sum(axis=1)
        det_idx.append(quantize(_observations(np.fft.rfft(resid), tab), tab.d_min, tab.top, tab.m_q))
        if len(det_idx) == len(config.layers):
            break  # nothing reads the last layer's residual
        x_hat = _synthesize(spec, det_idx[-1], n)
        np.maximum(x_hat, 0.0, out=x_hat)  # zero-clipped: only the last layer may be DCO
        resid -= x_hat if L == 1 else L * x_hat  # resid holds the sum of L periods
    return det_idx


def _full_frames(spec: LayerSpec, idx, n: int, bias):
    """One layer's full-length pre-clipping and clipped frames (F, N)."""
    s = _synthesize(spec, idx, n)
    x = np.maximum(s + bias[:, None] if spec.kind == "dco" else s, 0.0)
    return np.tile(s, spec.fold), np.tile(x, spec.fold)


def layer_frames(config: SchemeConfig, sym_idx, bias=None):
    """Full-length pre-clipping and clipped frames s, x (per layer (F, N)) loading `sym_idx`;
    a DCO layer is clipped at the per-frame `bias` it then needs."""
    frames = [_full_frames(spec, idx, config.n, bias) for spec, idx in zip(config.layers, sym_idx)]
    return [s for s, _ in frames], [x for _, x in frames]


def layer_noise(config: SchemeConfig, truth: TxBatch, det_idx, probe_bin: int | None = None):
    """Per-frame RCN power mean(delta_t^2), error power mean(e_t^2) and RCN sample FFT(delta_t)
    at `probe_bin` (or None) of each layer, as (J, F) arrays, from sent and detected indices."""
    ph = None if probe_bin is None else np.exp(-2j * np.pi * probe_bin * np.arange(config.n) / config.n)
    delta_power, err_power, probe = [], [], []
    for spec, sent, det in zip(config.layers, truth.sym_idx, det_idx):  # one layer's frames at a time
        (s, x), (s_hat, x_hat) = (_full_frames(spec, idx, config.n, truth.bias) for idx in (sent, det))
        e = s_hat - s
        if spec.kind == "dco":
            # bias-clipped layer: residual after subtraction, shifted
            # so that the three-term decomposition stays exact
            delta = x - x_hat + 0.5 * e
        else:
            delta = 0.5 * (np.abs(s) - np.abs(s + e))
        delta_power.append(np.mean(delta ** 2, axis=-1))
        err_power.append(np.mean(e ** 2, axis=-1))
        probe.append(None if ph is None else delta @ ph)
    return np.array(delta_power), np.array(err_power), None if ph is None else np.array(probe)
