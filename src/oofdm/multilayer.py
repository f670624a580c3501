"""Multi-layer optical OFDM: one superposition transmitter for every scheme, a bin-domain
iterative receiver, and the residual clipping noise (RCN) of its decisions.

A layer whose bins are all multiples of L has a frame of period N/L; a config's layers have
nested periods (L at least doubles from layer to layer, and an ACO layer loads odd multiples
of its L only), and only the last may be DCO or PAM. Each layer is synthesized and clipped on
one period from its per-bin tables, its bins written and read through one column index: a
basic slice when they are equally spaced, as on every uniform and RCN-aware layer, else an
index array. `modulate` sends frames x; the receiver never forms x: a layer observes its own
sent symbols plus the spectrum of the noise and of the clipping residue of each earlier
layer's wrong decisions. Its bins, scaled by 1/(sqrt(P_s) d_min) (a zero-clipped layer is
loaded at 2*sqrt(P_s), and clipping halves its bins) plus the sent symbols in these level
units, are rounded in one quantizer call. Only the rows that erred are remodulated, by one
complex inverse FFT of half a period (`_pair`), from which `layer_noise` measures the RCN of an
instrumented run's ACO layers too.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        top, root = np.column_stack((m_i - 1, m_q - 1)), np.sqrt(self.power)
        half = _columns(self.bins // self.fold // 2)  # (c - 1)/2 of odd c: `_pair`'s columns
        neg = slice(-1 - half.start, -1 - half.stop, -half.step) if isinstance(half, slice) else -1 - half
        return LayerTables(_columns(self.bins // self.fold), np.concatenate([c.points for c in alphabets]),
                           start[pos], (1.0 if self.kind == "dco" else 2.0) * root / self.fold,
                           1.0 / root / d_min, np.concatenate([c.levels for c in alphabets]),
                           0.5 * top.view(complex)[:, 0], d_min, top, m_q, half, neg)


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
    scale: np.ndarray      # observation scale to level units, 1/(sqrt(P_s) d_min)
    shifted: np.ndarray    # `alphabet` in level units (each point's `levels`), concatenated alike
    centre: np.ndarray     # (m_i - 1)/2 + i (m_q - 1)/2, the origin in level units
    d_min: np.ndarray      # minimum distance of the unit alphabet
    top: np.ndarray        # (n_j, 2) highest level index per axis, (m_i - 1, m_q - 1)
    m_q: np.ndarray        # levels on the Q axis
    pos: slice | np.ndarray  # an ACO layer's odd column c at (c - 1)/2 in `_pair`'s transform,
    neg: slice | np.ndarray  # its negative at -1 - (c - 1)/2, in bin order (a slice runs down)


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


def _detect(config: SchemeConfig, sent_idx, noise):
    """Detected symbol indices (F, n_j) and symbol errors per row (F,) of each layer of a block
    that sent `sent_idx`, with the noise as `channel.post_eq_noise` draws it: white (F, N) frames,
    overwritten, or V(k). A layer observes its own symbols plus the spectrum acc, on the multiples
    of `step` not yet read, of the noise and of each earlier layer's clipping residue
    (|s| - |s_hat|)/2, of period N/(2L), on its rows that erred; a DCO frame joins the noise
    whole. So the decisions are those on x + v, up to rounding (|s|/2 is real at PAM bins)."""
    n, frames, det_idx, errors, last, step = config.n, len(noise), [], [], config.layers[-1], 1
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
        det = _decide(acc[:, ::spec.fold // step], spec.tables, None if spec.kind == "dco" else sent)
        det_idx.append(det)
        errors.append(np.count_nonzero(det != sent, axis=1))
        if len(det_idx) == len(config.layers):
            break  # nothing reads the last layer's residue
        acc, step = np.ascontiguousarray(acc[:, ::2 * spec.fold // step]), 2 * spec.fold
        erred = np.flatnonzero(errors[-1])
        if erred.size:  # a layer without errors leaves no residue
            rows = slice(None) if erred.size == frames else erred  # a view beats a gather
            y = _pair(spec, sent[rows], det[rows], n)
            parts = np.abs(y.view(float), out=y.view(float)).reshape(len(y), -1, 2)
            acc[rows] += np.fft.rfft(parts[..., 0] - parts[..., 1])  # of L (|s| - |s_hat|)
    return det_idx, errors


@lru_cache(maxsize=None)
def _twiddle(p: int) -> np.ndarray:
    """exp(2 pi i m / p) on the half period m < p/2, read-only; one per period length."""
    w = np.exp(2j * np.pi * np.arange(p // 2) / p)
    w.flags.writeable = False
    return w


def _pair(spec: LayerSpec, sent, det, n: int):
    """y = L (s + i s_hat) on the half period m < P/2 of an ACO layer's frames of period P = n/L
    loading `sent` and `det`, from one complex inverse FFT of length P/2: on odd harmonics
    c < P/2 alone, s + i s_hat = w^m IDFT(Y)(m)/2, w = exp(2 pi i/P), where Y holds a + i a_hat
    at (c - 1)/2 and conj(a - i a_hat) at -1 - (c - 1)/2. With the factor L and the 1/2 the loads
    are amp L/2 = sqrt(P_s), exact as L is a power of two."""
    tab, L = spec.tables, spec.fold
    a, b = (tab.alphabet[idx + tab.offset] for idx in (sent, det))
    a *= tab.amp * (L / 2)
    b *= tab.amp * (0.5j * L)
    a, b = a + b, np.conjugate(np.subtract(a, b, out=a), out=a)  # b's buffer freed before y exists
    y = np.zeros((len(sent), n // (2 * L)), dtype=complex)
    y[:, tab.pos], y[:, tab.neg], a, b = a, b, None, None  # and both before the transform
    return np.multiply(np.fft.ifft(y, out=y), _twiddle(n // L), out=y)


def _decide(band, tab: LayerTables, sent):
    """Decisions on the layer's bins of `band` in level units, plus the symbols `sent` if given."""
    level = np.multiply(band[:, tab.cols], tab.scale, order="C")
    level += tab.centre if sent is None else tab.shifted[sent + tab.offset]
    return quantize(level.view(float).reshape(len(band), -1, 2), tab.top, tab.m_q)


def layer_noise(config: SchemeConfig, sent_idx, det_idx, probe_bin: int | None = None):
    """Per-frame RCN power mean(delta_t^2), error power mean(e_t^2) and RCN sample FFT(delta_t)
    at `probe_bin` (or None) of each ACO layer (`run_point` rejects any other), as (J, F) arrays.
    On the half period N/(2L), over which delta_t and e_t^2 repeat, y = L (s_t + i s_hat_t) from
    `_pair` gives delta_t = (|Re y| - |Im y|)/(2L) and e_t = (Im y - Re y)/L; the N-point FFT at k
    is 2L times the half-period sum if 2L divides k, else 0. Error-free rows read exactly 0."""
    delta_power, err_power = np.zeros((2, len(config.layers), len(sent_idx[0])))
    probe = None if probe_bin is None else np.zeros(delta_power.shape, dtype=complex)
    for j, (spec, sent, det) in enumerate(zip(config.layers, sent_idx, det_idx)):
        rows = np.flatnonzero(np.count_nonzero(det != sent, axis=1))
        if rows.size:  # an error-free row has s_hat = s
            y, two_l = _pair(spec, sent[rows], det[rows], config.n), 2 * spec.fold
            err_power[j, rows] = np.mean((y.imag - y.real) ** 2, axis=-1) / spec.fold ** 2
            resid = np.abs(y.real) - np.abs(y.imag)  # 2L delta_t
            delta_power[j, rows] = np.mean(resid ** 2, axis=-1) / two_l ** 2
            if probe is not None and probe_bin % two_l == 0:
                probe[j, rows] = resid @ np.exp(-2j * np.pi * probe_bin * np.arange(y.shape[-1]) / config.n)
    return delta_power, err_power, probe
