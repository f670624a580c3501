"""Test oracles: the complex loads of symbol indices, and the per-layer
signals of an instrumented receive, rebuilt from its decisions, with the
receiver's per-frame powers checked against them."""

import numpy as np

from oofdm.constellation import Constellation
from oofdm.modems import clip
from oofdm.multilayer import modulate


def layer_loads(spec, idx):
    """Complex loads (F, n_j) of symbol indices `idx` on a layer, bin by bin:
    the point of the bin's unit-power alphabet scaled by sqrt(P_s)."""
    make = Constellation.pam if spec.kind == "pam" else Constellation.qam
    points = [make(int(m), 1.0).points[i] for m, i in zip(spec.M, idx.T)]
    return np.stack(points, axis=-1) * np.sqrt(spec.sym_power)


def layer_signals(y, config, truth, rx):
    """Per-layer detection error e_t, residual clipping noise delta_t and the
    residual y_t after subtracting the remodulated layers 1..t.

    `truth` is the instrumented transmitted batch and `rx` the instrumented
    receive of `y`; asserts that rx.delta_power and rx.err_power are the
    per-frame means of delta_t^2 and e_t^2.
    """
    remod = modulate(config, rx.det_idx, instrument=True)
    e, delta, y_resid = [], [], []
    y_cur = np.atleast_2d(np.asarray(y, dtype=float))
    for j, spec in enumerate(config.layers):
        s, s_hat = truth.s[j], remod.s[j]
        e.append(s_hat - s)
        if spec.kind == "dco":  # remodulated with the transmitted bias
            x_hat = clip(s_hat + truth.bias[:, None])
            delta.append(truth.x_layers[j] - x_hat + 0.5 * e[j])
        else:
            x_hat = remod.x_layers[j]
            delta.append(0.5 * (np.abs(s) - np.abs(s + e[j])))
        y_cur = y_cur - x_hat
        y_resid.append(y_cur)
    np.testing.assert_array_equal(rx.delta_power, [np.mean(d ** 2, axis=-1) for d in delta])
    np.testing.assert_array_equal(rx.err_power, [np.mean(ej ** 2, axis=-1) for ej in e])
    return e, delta, y_resid
