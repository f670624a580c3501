"""Record the reference values the benchmark's correctness checks compare to.

    python3 perfbench/make_reference.py

For every mc_uniform_flat point it makes REF_OPS `channel.run_point` calls
exactly like the workload's ops (MC_FRAMES frames each, default batch) and
records the mean of their SERs and the standard deviation of the per-op SER,
which the per-op check uses as its standard error. The spread is measured
rather than taken as binomial: symbol errors within a frame are not
independent (a wrong decision on one layer propagates to the next), so
`sqrt(p(1-p)/symbols)` would be far too small. It also records the largest
|z| among its own ops, from which the check's tolerance `workloads.SER_Z`
was chosen, and the worst_case_noise bin powers of the uniform LACO-9 config.
Run it only on a commit whose results are trusted; the output overwrites
perfbench/reference.json.
"""
import json

import bootstrap  # noqa: F401  (thread caps and sys.path, before numpy)
import numpy as np

import workloads as wl
from workloads import _lib

REF_OPS = 100
SEED = 20050621


def main():
    profile = _lib("channel").ChannelProfile.flat(wl.N)
    ser = {}
    for k, (scheme, gamma) in enumerate(wl.MC_POINTS):
        cfg = wl.mc_config(scheme, gamma)
        ops = np.array([_lib("channel").run_point(cfg, profile, wl.MC_FRAMES, (SEED, k, i))["ser"]
                        for i in range(REF_OPS)])
        mean, sd = float(ops.mean()), float(ops.std(ddof=1))
        key = wl.point_key(scheme, gamma)
        ser[key] = {"ser": mean, "op_sd": sd, "ops": REF_OPS,
                    "op_z_max_abs": float(np.max(np.abs(ops - mean)) / sd)}
        print(key, ser[key], flush=True)
    p_v = profile.bin_noise_power()
    bin_powers = _lib("rcn").worst_case_noise(wl.wcn_config(), p_v).bin_powers
    ref = {
        "ser": ser,
        "worst_case_noise": {"config": f"laco, N={wl.N}, {wl.M_QAM}-QAM, "
                                       f"{wl.LACO_LAYERS} layers, p_eff={wl.WCN_P_EFF}, "
                                       "flat unit-noise channel",
                             "bin_powers": [float(b) for b in bin_powers]},
        "frames_per_op": wl.MC_FRAMES,
        "seed": SEED,
    }
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
