"""Multi-layer optical OFDM simulation and analysis toolkit."""

__version__ = "0.1.0"

from .allocate import AllocationResult, allocate, snr_gap, waterfill
from .channel import (ChannelProfile, gamma_to_p_eff, measure_power_relations,
                      rcn_statistics)
from .constellation import (Constellation, detection_error_power, min_distance,
                            ser_pam, ser_qam, unit_alphabet)
from .modems import (PowerTriple, affected_subcarriers, effective_subcarriers,
                     power_relations)
from .multilayer import (LayerSpec, SchemeConfig, layer_frames, layer_noise, receive,
                         transmit)
from .numerics import qfunc, qfunc_inv
from .rcn import NoiseProfile, worst_case_noise
from .ser import SerReport, evaluate_ser
