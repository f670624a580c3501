"""Multi-layer optical OFDM simulation and analysis toolkit."""

__version__ = "0.1.0"

from .allocate import AllocationResult, allocate, snr_gap, waterfill
from .channel import (ChannelProfile, ExperimentConfig, gamma_to_p_eff,
                      measure_power_relations, measure_rcn_power,
                      rcn_statistics, run_ser_experiment)
from .constellation import (Constellation, avg_neighbor_counts,
                            detection_error_power, min_distance,
                            rim_probabilities, ser_pam, ser_qam)
from .modems import (PowerTriple, affected_subcarriers, effective_subcarriers,
                     power_relations)
from .multilayer import (LayerSpec, SchemeConfig, TxBatch, layer_frames, layer_noise,
                         receive, transmit)
from .numerics import qfunc, qfunc_inv
from .rcn import NoiseProfile, worst_case_noise
from .ser import SerReport, evaluate_ser
