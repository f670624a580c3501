"""Test oracles: the complex loads of symbol indices, each layer's full-length
frames, and the per-layer signals of a receive, rebuilt from its decisions,
with the per-frame powers of `layer_noise` checked against them, to rounding,
on configs of ACO layers."""

import numpy as np

from oofdm.constellation import unit_alphabet
from oofdm.multilayer import DCO_BIAS, SchemeConfig, _synthesize, layer_noise


def layer_frames(config: SchemeConfig, sym_idx):
    """Full-length pre-clipping and clipped frames s, x (per layer (F, N)) loading `sym_idx`,
    each layer clipped as `modulate` clips it."""
    s_all, x_all = [], []
    for spec, idx in zip(config.layers, sym_idx):
        s = _synthesize(spec, idx, config.n)
        x = np.maximum(s + DCO_BIAS * np.std(s, axis=-1, keepdims=True) if spec.kind == "dco" else s,
                       0.0)
        s_all.append(np.tile(s, spec.fold))
        x_all.append(np.tile(x, spec.fold))
    return s_all, x_all


def layer_loads(spec, idx):
    """Complex loads (F, n_j) of symbol indices `idx` on a layer, bin by bin:
    the point of the bin's unit-power alphabet scaled by 2*sqrt(P_s), or by
    sqrt(P_s) on a DCO layer (zero-clipping halves the data bins)."""
    points = [unit_alphabet(spec.kind, int(m)).points[i] for m, i in zip(spec.M, idx.T)]
    return np.stack(points, axis=-1) * ((1.0 if spec.kind == "dco" else 2.0) * np.sqrt(spec.power))


def layer_signals(y, config, truth, det_idx):
    """Per-layer detection error e_t, residual clipping noise delta_t and the
    residual y_t after subtracting the remodulated layers 1..t.

    `truth` is the transmitted batch and `det_idx` the decisions of
    `receive(y, config)`; on a config without a DCO layer, asserts that the
    delta and error powers of `layer_noise` are the per-frame means of delta_t^2
    and e_t^2. A detected DCO layer is clipped at the transmitted bias, DCO_BIAS
    standard deviations of the sent pre-clipping frame, and its delta_t keeps
    the three-term decomposition of the residual exact.
    """
    s, x = layer_frames(config, truth.sym_idx)
    s_hat, x_hat = layer_frames(config, det_idx)
    for j, spec in enumerate(config.layers):
        if spec.kind == "dco":
            bias = DCO_BIAS * np.std(s[j][:, : config.n // spec.fold], axis=-1, keepdims=True)
            x_hat[j] = np.maximum(s_hat[j] + bias, 0.0)
    e, delta, y_resid = [], [], []
    y_cur = np.atleast_2d(np.asarray(y, dtype=float))
    for j, spec in enumerate(config.layers):
        e.append(s_hat[j] - s[j])
        if spec.kind == "dco":
            delta.append(x[j] - x_hat[j] + 0.5 * e[j])
        else:
            delta.append(0.5 * (np.abs(s[j]) - np.abs(s[j] + e[j])))
        y_cur = y_cur - x_hat[j]
        y_resid.append(y_cur)
    if any(spec.kind != "aco" for spec in config.layers):
        return e, delta, y_resid  # layer_noise measures ACO layers only
    want = [np.mean(d ** 2, axis=-1) for d in delta], [np.mean(ej ** 2, axis=-1) for ej in e], None
    assert_layer_noise_close(layer_noise(config, truth.sym_idx, det_idx), want, config.n)
    return e, delta, y_resid


def assert_layer_noise_close(got, want, n):
    """`layer_noise` arrays `got` equal reference (delta power, error power, probe) arrays
    `want`, (J, F) each or a None probe, to rounding: both powers within 1e-13 of the row's
    error power mean(e_t^2), which is at least 4 mean(delta_t^2), and the probe within 1e-12 of
    its bound on the row, N sqrt(mean(e_t^2))/2 >= sum |e_t|/2 >= |Delta_t(k)|. So a row
    without an error must read exactly 0."""
    err = np.asarray(want[1])
    for name, g, w, tol in zip(("delta power", "error power", "probe"), got, want,
                               (1e-13 * err, 1e-13 * err, 1e-12 * n * np.sqrt(err) / 2)):
        if w is not None:
            excess = np.abs(g - np.asarray(w)) - tol
            assert np.all(excess <= 0), f"{name} off by {excess.max():.3g} past its tolerance"
