"""Multi-layer optical OFDM: one superposition transmitter for every scheme, a
detect-only iterative receiver, and the residual clipping noise (RCN) of its decisions.

A layer whose bins are all multiples of L has a frame of period N/L; a
config's layers have nested periods (L never decreases from layer to layer),
and only the last may be DCO or PAM. Each layer is synthesized, clipped and
remodulated on one period from its per-bin tables, its bins written and read
through one column index: a basic slice when they are equally spaced, as on
every uniform and RCN-aware layer, else an index array. The receiver only
detects: it keeps the residual folded onto the current layer's period, takes
its real FFT, scales the layer's bins by 1/sqrt(P_s) (a zero-clipped layer is
loaded at 2*sqrt(P_s), and clipping halves its bins), detects them in one
quantizer call and, but for the last layer, subtracts L times the layer
remodulated. `layer_noise` measures the RCN from the sent and detected indices on
each layer's period too, tiling only the RCN and the squared detection error to
full length.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constellation import quantize, unit_alphabet
from .modems import _loadable, effective_subcarriers, laco_layers, layer_kinds

DCO_BIAS = 3.0  # in frame standard deviations, as the closed-form DCO relations assume
# Longest layer period added tiled to full length: adding through a periods view
# loops over the period innermost, which is slower for a period of a few samples.
_SHORT_PERIOD = 16


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
        start = np.cumsum([0] + [c.M for c in alphabets])[:-1]
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
    scheme: str
    n: int
    layers: list

    def __post_init__(self):
        for sp in self.layers:
            if not (sp.bins.size and sp.bins.min() >= 1 and sp.bins.max() < self.n // 2):
                raise ValueError("a layer needs independent bins in [1, n/2)")
            for order in sorted(set(sp.M.tolist())):  # np.unique would import numpy.ma
                unit_alphabet(sp.kind, int(order))  # rejects an order off the grid
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
        sequence. Every layer carries the per-subcarrier effective power
        eps = N^2 * p_eff / N'.
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
            specs.append(LayerSpec(kind, indep,
                                   np.full(indep.shape, order, dtype=np.int64),
                                   np.full(indep.shape, eps)))
        return cls(scheme, n, specs)

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
        return cls("laco", n, specs)


@dataclass
class TxBatch:
    """One batch of transmitted frames plus ground truth."""
    x: np.ndarray                 # (F, N) nonnegative signal
    sym_idx: list                 # per layer (F, n_j) symbol indices
    bias: np.ndarray | None       # (F,) DCO bias, if any


def _synthesize(spec: LayerSpec, idx, n: int):
    """One period (length n/L) of the real frames loading symbols `idx`; the
    division of the load scale by L is exact as L is a power of two."""
    tab, L = spec.tables, spec.fold
    half = np.zeros((len(idx), n // (2 * L) + 1), dtype=complex)
    half[:, tab.cols] = tab.alphabet[idx + tab.offset] * tab.amp
    return np.fft.irfft(half, n // L)


def _observations(spectrum, tables: LayerTables):
    """The layer's bins as float (re, im) pairs (F, n_j, 2) scaled by `gain`:
    numpy divides complex by real through the reciprocal, so this is Y/sqrt(P_s).
    A sliced block is copied, as `view(float)` needs a contiguous last axis."""
    obs = np.ascontiguousarray(spectrum[:, tables.cols]).view(float).reshape(len(spectrum), -1, 2)
    obs *= tables.gain
    return obs


def draw_symbols(config: SchemeConfig, rng, frames: int) -> list:
    """Random symbol indices per layer (frames, n_j), one uniform draw per bin in layer order
    from `rng`, so the stream layout does not depend on how bins group by order."""
    return [np.minimum((rng.random((frames, len(spec.M))) * spec.M).astype(np.int64), spec.M - 1)
            for spec in config.layers]


def modulate(config: SchemeConfig, sym_idx) -> TxBatch:
    """Map, synthesize and clip each layer on one period, then add the layers
    in layer order onto the first layer's frame, tiled to full length if shorter."""
    if not config.layers:
        raise ValueError("the config loads no subcarrier: nothing to transmit")
    n, parts, bias = config.n, [], None
    for spec, idx in zip(config.layers, sym_idx):
        s = _synthesize(spec, idx, n)
        if spec.kind == "dco":  # the last layer, clipped at a per-frame bias
            bias = DCO_BIAS * np.std(s, axis=-1)
            s += bias[:, None]
        parts.append(np.maximum(s, 0.0, out=s))
    x = parts[0] if parts[0].shape[-1] == n else np.tile(parts[0], n // parts[0].shape[-1])
    for x_j in parts[1:]:
        period = x_j.shape[-1]
        if period <= _SHORT_PERIOD:
            x += np.tile(x_j, n // period)
        else:
            periods = x.reshape(len(x), -1, period)
            periods += x_j[:, None]
    return TxBatch(x, sym_idx, bias)


def transmit(config: SchemeConfig, rng, frames: int) -> TxBatch:
    """Draw random symbols for every layer and superpose the layer signals."""
    return modulate(config, draw_symbols(config, rng, frames))


def receive(y, config: SchemeConfig) -> list:
    """Iterative layer-by-layer detection of an equalized frame batch: the
    detected symbol indices (F, n_j) of each layer. `y` is left unchanged."""
    return _detect(np.atleast_2d(np.asarray(y, dtype=float)).copy(), config)


def _detect(resid, config: SchemeConfig) -> list:
    """`receive` on a float (F, N) batch, which it overwrites with the residual
    (folded onto each layer's period as layers go)."""
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


def layer_frames(config: SchemeConfig, sym_idx, bias=None):
    """Full-length pre-clipping and clipped frames s, x (per layer (F, N)) loading `sym_idx`;
    a DCO layer is clipped at the per-frame `bias` it then needs."""
    s_all, x_all = [], []
    for spec, idx in zip(config.layers, sym_idx):
        s = _synthesize(spec, idx, config.n)
        x = np.maximum(s + bias[:, None] if spec.kind == "dco" else s, 0.0)
        s_all.append(np.tile(s, spec.fold))
        x_all.append(np.tile(x, spec.fold))
    return s_all, x_all


def layer_noise(config: SchemeConfig, truth: TxBatch, det_idx, probe_bin: int | None = None):
    """Per-frame RCN power mean(delta_t^2), error power mean(e_t^2) and RCN sample FFT(delta_t)
    at `probe_bin` (or None) of each layer, as (J, F) arrays, from sent and detected indices.
    delta_t and e_t^2 are formed on one period and then tiled: elementwise steps commute with
    tiling, so the results equal those of full-length frames bit for bit."""
    ph = None if probe_bin is None else np.exp(-2j * np.pi * probe_bin * np.arange(config.n) / config.n)
    delta_power, err_power, probe = [], [], []
    for spec, sent, det in zip(config.layers, truth.sym_idx, det_idx):  # one layer's frames at a time
        s, s_hat = (_synthesize(spec, idx, config.n) for idx in (sent, det))
        e = s_hat - s
        if spec.kind == "dco":
            # bias-clipped layer: residual after subtraction, shifted
            # so that the three-term decomposition stays exact
            x, x_hat = (np.maximum(v + truth.bias[:, None], 0.0) for v in (s, s_hat))
            delta = x - x_hat + 0.5 * e
        else:
            delta = 0.5 * (np.abs(s) - np.abs(s + e))
        delta = np.tile(delta, spec.fold)
        delta_power.append(np.mean(delta ** 2, axis=-1))
        err_power.append(np.mean(np.tile(e ** 2, spec.fold), axis=-1))
        probe.append(None if ph is None else delta @ ph)
    return np.array(delta_power), np.array(err_power), None if ph is None else np.array(probe)
