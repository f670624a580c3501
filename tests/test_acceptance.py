"""End-to-end acceptance suite.

Seven criteria covering the whole toolkit: closed-form power relations,
transmitter structural invariants, worst-case clipping-noise power, clipping
noise statistics, SER curves, the allocation closed loop, and oracle
equivalence of the analytic building blocks. Each test prints a single
PASS/FAIL line. Frame counts follow the reference experiments (10^4 frames,
N = 1024, unit noise power), so these tests take most of the suite's time.
"""

import numpy as np
import pytest
from layer_signals import layer_signals

from oofdm.allocate import allocate, waterfill
from oofdm.channel import (ChannelProfile, ExperimentConfig,
                           gamma_to_p_eff, measure_power_relations,
                           rcn_statistics, run_point)
from oofdm.constellation import Constellation, detection_error_power
from oofdm.modems import power_relations
from oofdm.multilayer import SchemeConfig, layer_frames, receive, transmit
from oofdm.rcn import worst_case_noise
from oofdm.ser import evaluate_ser

N = 1024
FRAMES = 10_000
FLAT = ChannelProfile.flat(N)
P_V = FLAT.bin_noise_power()


def _report(criterion: int, name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {name} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


# --------------------------------------------------------------------------
# shared Monte Carlo runs


@pytest.fixture(scope="module")
def rcn_runs():
    """Instrumented 64-QAM layered-ACO runs at effective SNR 0/10/20 dB with
    a probe at subcarrier 256, shared by criteria 3 and 4."""
    out = {}
    for gamma in (0.0, 10.0, 20.0):
        cfg = SchemeConfig.uniform("laco", N, 64, 10.0 ** (gamma / 10.0), layers=9)
        out[gamma] = run_point(cfg, FLAT, frames=FRAMES, seed=int(gamma) + 300,
                               instrument=True, probe_bin=256)
    return out


# --------------------------------------------------------------------------
# criterion 1: closed-form power relations vs Monte Carlo


def test_criterion_1_power_relations():
    cases = [("aco", None), ("dco", None), ("pam", None),
             ("ado", None), ("haco", None), ("laco", 9)]
    worst = 0.0
    for scheme, layers in cases:
        ref = power_relations(scheme, 1.0, layers)
        mc = measure_power_relations(scheme, 1.0, n=N, M=64, frames=1000,
                                     seed=17, layers=layers)
        rel_e = abs(mc["p_elec"] - ref.p_elec) / ref.p_elec
        rel_o = abs(mc["p_opt"] - ref.p_opt) / ref.p_opt
        worst = max(worst, rel_e, rel_o)
    _report(1, "electrical/optical power relations within 2% of closed forms",
            worst < 0.02, f"worst relative error {worst:.4f}")


# --------------------------------------------------------------------------
# criterion 2: structural invariants


def test_criterion_2_structural_invariants():
    rng = np.random.default_rng(23)
    checks = []

    # clipping a layered frame keeps its noise off the odd bins
    cfg = SchemeConfig.uniform("laco", N, 16, 10.0, layers=9)
    tx = transmit(cfg, rng, 50)
    s_layers, x_layers = layer_frames(cfg, tx.sym_idx)
    D1 = np.fft.fft(x_layers[0] - s_layers[0] / 2.0)
    odd = np.arange(1, N, 2)
    leak = np.max(np.abs(D1[:, odd])) / np.max(np.abs(D1))
    checks.append(("aco clip noise on even bins", leak < 1e-12))

    # pre-clipping half-frame antisymmetry of layer 1
    s = s_layers[0]
    asym = np.max(np.abs(s[:, : N // 2] + s[:, N // 2:])) / np.max(np.abs(s))
    checks.append(("aco antisymmetry", asym < 1e-9))

    # PAM-DMT clipping noise purely real in frequency
    haco = SchemeConfig.uniform("haco", N, 16, 10.0)
    txh = transmit(haco, rng, 50)
    s_layers, x_layers = layer_frames(haco, txh.sym_idx)
    D2 = np.fft.fft(x_layers[1] - s_layers[1] / 2.0)
    pam_resid = np.max(np.abs(D2.imag)) / np.max(np.abs(D2))
    checks.append(("pam clip noise real", pam_resid < 1e-9))

    # DCO residual clip rate below 0.2% with the 3-sigma bias
    ado = SchemeConfig.uniform("ado", N, 16, 10.0)
    txa = transmit(ado, rng, 50)
    clip_rate = np.mean(layer_frames(ado, txa.sym_idx, txa.bias)[0][1] + txa.bias[:, None] < 0.0)
    checks.append(("dco clip rate < 0.2%", clip_rate < 0.002))

    # |delta_t| <= |e_t|/2 on every simulated frame of a noisy run
    y = tx.x + rng.standard_normal(tx.x.shape)
    e, delta, _ = layer_signals(y, cfg, tx, receive(y, cfg))
    bound_ok = all(np.all(np.abs(delta[j]) <= 0.5 * np.abs(e[j]) + 1e-12)
                   for j in range(9))
    checks.append(("|delta| <= |e|/2", bound_ok))

    failed = [name for name, ok in checks if not ok]
    _report(2, "transmitter/receiver structural invariants",
            not failed, "all hold" if not failed else f"failed: {failed}")


# --------------------------------------------------------------------------
# criterion 3: worst-case clipping-noise power vs reference data


def test_criterion_3_rcn_power(rcn_runs):
    est_ref = {0.0: 0.192746, 10.0: 0.455389, 20.0: 0.241588}
    meas_ref = {0.0: 0.218357, 10.0: 0.426956, 20.0: 0.235394}
    worst_est = worst_meas = 0.0
    for gamma in (0.0, 10.0, 20.0):
        cfg = SchemeConfig.uniform("laco", N, 64, 10.0 ** (gamma / 10.0), layers=9)
        est = worst_case_noise(cfg, P_V, rims=3).delta_powers[0]
        meas = float(np.mean(rcn_runs[gamma]["delta_power"][0]))
        worst_est = max(worst_est, abs(est - est_ref[gamma]) / est_ref[gamma])
        worst_meas = max(worst_meas, abs(meas - meas_ref[gamma]) / meas_ref[gamma])
    cfg0 = SchemeConfig.uniform("laco", N, 64, 1.0, layers=9)
    rims = [worst_case_noise(cfg0, P_V, rims=r).delta_powers[0] for r in (1, 2, 3)]
    ordered = rims[0] < rims[1] < rims[2]
    ok = worst_est < 0.05 and worst_meas < 0.05 and ordered
    _report(3, "layer-1 worst-case clipping-noise power within 5% of references",
            ok, f"estimate err {worst_est:.4f}, measured err {worst_meas:.4f}, "
                f"rim ordering {'holds' if ordered else 'broken'}")


# --------------------------------------------------------------------------
# criterion 4: clipping-noise statistics


def test_criterion_4_rcn_statistics():
    worst_rho = worst_ks = 0.0
    for gamma in (0.0, 20.0):
        cfg = ExperimentConfig(scheme="laco", n=N, M=64, layers=9,
                               gammas=(gamma,), gamma_effective=True,
                               frames=FRAMES, seed=int(gamma) + 500)
        row = rcn_statistics(cfg, probe_bin=256)[0]
        rho = np.abs(row["rho"] - np.diag(np.diag(row["rho"])))
        worst_rho = max(worst_rho, float(rho.max()))
        # Gaussianity is claimed for layers with at least 32 subcarriers
        # (layers 1..5 at N = 1024)
        worst_ks = max(worst_ks, max(max(pair) for pair in row["ks"][:5]))
    ok = worst_rho < 0.05 and worst_ks < 0.03
    _report(4, "cross-layer decorrelation and Gaussianity at the probe bin",
            ok, f"max |rho| {worst_rho:.4f} (< 0.05), max KS {worst_ks:.4f} (< 0.03)")


# --------------------------------------------------------------------------
# criterion 5: SER curves


def _sim(scheme, gamma, layers, seed):
    cfg = SchemeConfig.uniform(scheme, N, 16,
                               gamma_to_p_eff(scheme, gamma, 1.0, layers), layers)
    return cfg, run_point(cfg, FLAT, frames=FRAMES, seed=seed)


def test_criterion_5_ser_curves():
    # spot checks against reference values, 3 standard errors
    spots = [("laco", 20.0, 9, 0.166472), ("laco", 24.0, 9, 3.366145e-3),
             ("ado", 24.0, None, 3.2317e-2), ("haco", 30.0, None, 1.25225e-3)]
    spot_ok = True
    spot_detail = []
    for scheme, gamma, layers, ref in spots:
        _, point = _sim(scheme, gamma, layers, seed=int(gamma) * 7)
        se = np.sqrt(max(ref * (1 - ref), 1e-12) / FRAMES)
        hit = abs(point["ser"] - ref) <= 3 * se
        spot_ok &= hit
        spot_detail.append(f"{scheme}@{gamma:g}dB {point['ser']:.3e} vs {ref:.3e}")

    # theory tracks simulation over the 5..30 dB range
    grids = {"laco": ((6, 10, 14, 18, 22, 26, 30), 9),
             "ado": ((6, 10, 14, 18, 24, 28), None),
             "haco": ((10, 14, 18, 22, 26, 30), None)}
    track_ok = True
    worst_gap = 0.0
    for scheme, (grid, layers) in grids.items():
        for gamma in grid:
            cfg, point = _sim(scheme, gamma, layers, seed=1000 + gamma)
            theory = evaluate_ser(cfg, P_V, "rcn_aware").overall
            p_hat = max(point["ser"], theory, 1e-4)  # guard near-zero SER
            se = np.sqrt(p_hat * (1 - p_hat) / FRAMES)
            gap = abs(theory - point["ser"]) / (3 * se)
            worst_gap = max(worst_gap, gap)
            track_ok &= gap <= 1.0

    # ignoring the clipping-noise floor underestimates the high-SNR error rate
    cfg20 = SchemeConfig.uniform("laco", N, 16,
                                 gamma_to_p_eff("laco", 20.0, 1.0, 9), 9)
    unaware = evaluate_ser(cfg20, P_V, "rcn_unaware").overall
    sim20 = _sim("laco", 20.0, 9, seed=140)[1]["ser"]
    under_ok = sim20 >= 2.0 * unaware

    ok = spot_ok and track_ok and under_ok
    _report(5, "simulated/theoretical SER agreement",
            ok, f"spots [{'; '.join(spot_detail)}], worst tracking gap "
                f"{worst_gap:.2f}x3SE, unaware ratio {sim20 / unaware:.2f}")


# --------------------------------------------------------------------------
# criterion 6: allocation closed loop


def test_criterion_6_allocation_closed_loop():
    channel = ChannelProfile.exponential(N)
    target = 1e-2
    n_loadable = N - 2
    aware_ok = True
    unaware_exceeds = False
    bits_ok = True
    conv_ok = True
    details = []
    for gamma in (6, 10, 14, 18, 22, 26):
        p_eff = 10.0 ** (gamma / 10.0)
        res = {m: allocate(channel, p_eff, target, mode=m)
               for m in ("rcn_aware", "rcn_unaware")}
        conv_ok &= res["rcn_aware"].converged and res["rcn_aware"].iterations <= 5
        # two outer iterations already land within 1% of the converged loading
        two = allocate(channel, p_eff, target, mode="rcn_aware", max_iters=2)
        conv_ok &= abs(two.total_bits - res["rcn_aware"].total_bits) <= \
            0.01 * res["rcn_aware"].total_bits
        bits_ok &= res["rcn_aware"].total_bits <= res["rcn_unaware"].total_bits
        sers = {}
        for mode, r in res.items():
            cfg = SchemeConfig.from_allocation(N, r.bits, r.powers)
            sers[mode] = run_point(cfg, channel, frames=FRAMES,
                                   seed=600 + gamma)["ser"]
        avg_bits = res["rcn_aware"].total_bits / n_loadable
        # 2- and 8-QAM dominated loadings fall outside the square-QAM gap
        # approximation, so those grid points are excluded from the SER check
        if round(avg_bits) not in (1, 3):
            aware_ok &= sers["rcn_aware"] <= 1.1 * target
        unaware_exceeds |= sers["rcn_unaware"] > target
        details.append(f"{gamma}dB aware {sers['rcn_aware']:.4f}/"
                       f"unaware {sers['rcn_unaware']:.4f}")
    ok = aware_ok and unaware_exceeds and bits_ok and conv_ok
    _report(6, "clipping-noise-aware allocation meets the SER target",
            ok, f"target {target:g}: {'; '.join(details)}; "
                f"unaware exceeds at some point: {unaware_exceeds}")


# --------------------------------------------------------------------------
# criterion 7: oracle equivalence of the analytic building blocks


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    # d_min/sigma >= 2 everywhere; the smallest grid needs a little more
    # headroom before the three-rim truncation error drops below 5%
    for M, ratio in ((4, 2.8), (16, 2.5), (64, 2.0)):
        c = Constellation.qam(M, float(M))
        d = c.d_min
        sigma2 = (d / ratio) ** 2
        nobs = 10 ** 6
        idx = rng.integers(0, M, nobs)
        noise = np.sqrt(sigma2 / 2) * (rng.standard_normal(nobs)
                                       + 1j * rng.standard_normal(nobs))
        det = c.detect(c.points[idx] + noise)
        mc = np.mean(np.abs(c.points[det] - c.points[idx]) ** 2)
        est = detection_error_power(d, sigma2, M, rims=3)
        worst_rel = max(worst_rel, abs(est - mc) / mc)

    def bisect(q, budget, iters=200):
        lo, hi = 0.0, budget + float(np.max(q))
        for _ in range(iters):
            mu = 0.5 * (lo + hi)
            lo, hi = (mu, hi) if np.sum(np.maximum(0.0, mu - q)) <= budget \
                else (lo, mu)
        return np.maximum(0.0, 0.5 * (lo + hi) - q)

    worst_obj = 0.0
    for _ in range(5):
        q = rng.uniform(0.1, 10.0, 64)
        budget = rng.uniform(1.0, 100.0)
        p = waterfill(np.ones(64), q, np.arange(64), budget)
        p_ref = bisect(q, budget)
        worst_obj = max(worst_obj, abs(np.sum(np.log1p(p / q))
                                       - np.sum(np.log1p(p_ref / q))))
    ok = worst_rel < 0.05 and worst_obj <= 1e-8
    _report(7, "analytic models match brute-force oracles",
            ok, f"detection-error power err {worst_rel:.4f} (< 5%), "
                f"waterfill objective gap {worst_obj:.2e} (<= 1e-8)")
