"""Multi-layer optical OFDM simulation and analysis toolkit."""

__version__ = "0.1.0"

from .allocate import allocate
from .channel import ChannelProfile, gamma_to_p_eff, measure_power_relations
from .constellation import min_distance
from .modems import power_relations
from .multilayer import SchemeConfig
from .rcn import worst_case_noise
from .ser import evaluate_ser
