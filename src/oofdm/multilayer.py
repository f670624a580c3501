"""Multi-layer optical OFDM: the one superposition transmitter for every
scheme (single-layer ACO/DCO/PAM-DMT and layered ADO/HACO/LACO) and the
unified iterative receiver with residual-clipping-noise instrumentation.

A layer whose bins are all multiples of L has a frame of period N/L; a
config's layers have nested periods (L never decreases from layer to layer).
Each layer is synthesized, clipped and remodulated on one period, mapped by
one gather from its per-bin tables (built once per layer, whatever the mix of
orders). The receiver keeps the residual folded onto the current layer's
period: when the next period is shorter it adds up the periods of the
residual, takes the real FFT of that period, selects the layer's subcarriers,
scales them by 2 to undo the clipping attenuation (except for a bias-clipped
DCO layer, which is detected unscaled), detects all of them in one per-axis
quantizer call, remodulates the detected layer and subtracts L times it from
the folded residual (the last layer is remodulated only when instrumented).
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
    s: list | None = None         # per layer (F, N) pre-clipping frames
    x_layers: list | None = None  # per layer (F, N) transmitted components


def _draw_indices(rng, M, frames):
    # one uniform draw per bin keeps the stream layout independent of how
    # bins group by constellation order
    u = rng.random((frames, len(M)))
    return np.minimum((u * M).astype(np.int64), M - 1)


def _synthesize(spec: LayerSpec, idx, n: int):
    """One period (length n/L) of the real frames loading symbols `idx`; the
    scale sqrt(P_s)/L is exact as L is a power of two."""
    tab, L = spec.tables, spec.fold
    half = np.zeros((len(idx), n // (2 * L) + 1), dtype=complex)
    half[:, tab.cols] = tab.alphabet[idx + tab.offset] * tab.amp
    return np.fft.irfft(half, n // L)


def _clip(s, bias, keep: bool):
    """(s + bias)+ with a per-frame DCO bias, else (s)+ in place unless `keep`."""
    if bias is not None:
        s = s + bias[:, None]
    elif keep:
        s = s.copy()
    return np.maximum(s, 0.0, out=s)


def _observations(spectrum, tables: LayerTables):
    """The layer's bins as float (re, im) pairs (F, n_j, 2) scaled by `gain`:
    numpy divides complex by real through the reciprocal, so this is 2*Y/sqrt(P_s)."""
    obs = np.take(spectrum, tables.cols, axis=1).view(float).reshape(len(spectrum), -1, 2)
    obs *= tables.gain
    return obs


def draw_symbols(config: SchemeConfig, rng, frames: int) -> list:
    """Random symbol indices per layer (frames, n_j), drawn in layer order from `rng`."""
    return [_draw_indices(rng, spec.M, frames) for spec in config.layers]


def modulate(config: SchemeConfig, sym_idx, instrument: bool = False) -> TxBatch:
    """Map, synthesize and clip each layer on one period, then add the layers
    in layer order onto the first layer's frame tiled to full length."""
    if not config.layers:
        raise ValueError("the config loads no subcarrier: nothing to transmit")
    n = config.n
    parts, s_list, x_list = [], [], []
    bias = None
    for spec, idx in zip(config.layers, sym_idx):
        s = _synthesize(spec, idx, n)
        if spec.kind == "dco":
            bias = DCO_BIAS * np.std(s, axis=-1)
        x_j = _clip(s, bias if spec.kind == "dco" else None, instrument)
        parts.append(x_j)
        if instrument:
            s_list.append(np.tile(s, spec.fold))
            x_list.append(np.tile(x_j, spec.fold))
    x = np.tile(parts[0], n // parts[0].shape[-1])
    for x_j in parts[1:]:
        periods = x.reshape(len(x), -1, x_j.shape[-1])
        periods += x_j[:, None]
    return TxBatch(x, sym_idx, bias,
                   s_list if instrument else None,
                   x_list if instrument else None)


def transmit(config: SchemeConfig, rng, frames: int, instrument: bool = False) -> TxBatch:
    """Draw random symbols for every layer and superpose the layer signals."""
    return modulate(config, draw_symbols(config, rng, frames), instrument)


@dataclass
class RxResult:
    det_idx: list                       # per layer (F, n_j) detected indices
    errors: list | None = None          # per layer (F, n_j) bool, needs truth
    delta_power: np.ndarray | None = None   # (J, F) per-frame mean delta^2
    err_power: np.ndarray | None = None     # (J, F) per-frame mean e^2
    probe: np.ndarray | None = None         # (J, F) complex FFT(delta)[probe_bin]


def receive(y, config: SchemeConfig, truth: TxBatch | None = None,
            instrument: bool = False, probe_bin: int | None = None) -> RxResult:
    """Iterative layer-by-layer detection of an equalized frame batch.

    With `truth` supplied, detection errors are scored; a DCO layer needs it
    for the bias side information. With `instrument`, the per-layer residual
    clipping noise delta_t and detection error e_t are measured (requires a
    truth batch transmitted with instrument=True).
    """
    resid = np.atleast_2d(np.asarray(y, dtype=float)).copy()  # folded as layers go
    n = config.n
    frames = resid.shape[0]
    n_layers = len(config.layers)
    res = RxResult(det_idx=[])
    if truth is not None:
        res.errors = []
    if instrument:
        if truth is None or truth.s is None:
            raise ValueError("instrumented receive needs an instrumented truth batch")
        res.delta_power = np.zeros((n_layers, frames))
        res.err_power = np.zeros((n_layers, frames))
        if probe_bin is not None:
            res.probe = np.zeros((n_layers, frames), dtype=complex)
    if truth is None and any(spec.kind == "dco" for spec in config.layers):
        raise ValueError("a DCO layer needs the bias side information of a truth batch")

    for j, spec in enumerate(config.layers):
        tab, L = spec.tables, spec.fold
        if resid.shape[-1] > n // L:
            resid = resid.reshape(frames, -1, n // L).sum(axis=1)
        idx = quantize(_observations(np.fft.rfft(resid), tab), tab.d_min, tab.top, tab.m_q)
        res.det_idx.append(idx)
        if truth is not None:
            res.errors.append(idx != truth.sym_idx[j])
        if j == n_layers - 1 and not instrument:
            break  # nothing reads the last layer's residual

        s_hat = _synthesize(spec, idx, n)
        x_hat = _clip(s_hat, truth.bias if spec.kind == "dco" else None, instrument)
        resid -= x_hat if L == 1 else L * x_hat  # resid holds the sum of L periods
        if not instrument:
            continue
        s, s_hat, x_hat = truth.s[j], np.tile(s_hat, L), np.tile(x_hat, L)
        e = s_hat - s
        if spec.kind == "dco":
            # bias-clipped layer: residual after subtraction, shifted
            # so that the three-term decomposition stays exact
            delta = truth.x_layers[j] - x_hat + 0.5 * e
        else:
            delta = 0.5 * (np.abs(s) - np.abs(s + e))
        res.delta_power[j] = np.mean(delta ** 2, axis=-1)
        res.err_power[j] = np.mean(e ** 2, axis=-1)
        if probe_bin is not None:
            ph = np.exp(-2j * np.pi * probe_bin * np.arange(n) / n)
            res.probe[j] = delta @ ph
    return res
