"""Test oracles: the complex loads of symbol indices, and the per-layer
signals of a receive, rebuilt from its decisions, with the per-frame powers
of `layer_noise` checked against them."""

import numpy as np

from oofdm.constellation import Constellation
from oofdm.multilayer import layer_frames, layer_noise


def layer_loads(spec, idx):
    """Complex loads (F, n_j) of symbol indices `idx` on a layer, bin by bin:
    the point of the bin's unit-power alphabet scaled by sqrt(P_s)."""
    make = Constellation.pam if spec.kind == "pam" else Constellation.qam
    points = [make(int(m), 1.0).points[i] for m, i in zip(spec.M, idx.T)]
    return np.stack(points, axis=-1) * np.sqrt(spec.sym_power)


def layer_signals(y, config, truth, det_idx):
    """Per-layer detection error e_t, residual clipping noise delta_t and the
    residual y_t after subtracting the remodulated layers 1..t.

    `truth` is the transmitted batch and `det_idx` the decisions of
    `receive(y, config)`; asserts that the delta and error powers of
    `layer_noise` are the per-frame means of delta_t^2 and e_t^2.
    """
    s, x = layer_frames(config, truth.sym_idx, truth.bias)
    s_hat, x_hat = layer_frames(config, det_idx, truth.bias)  # the transmitted bias
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
    delta_power, err_power, _ = layer_noise(config, truth, det_idx)
    np.testing.assert_array_equal(delta_power, [np.mean(d ** 2, axis=-1) for d in delta])
    np.testing.assert_array_equal(err_power, [np.mean(ej ** 2, axis=-1) for ej in e])
    return e, delta, y_resid
