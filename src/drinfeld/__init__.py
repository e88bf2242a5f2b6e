"""Exact arithmetic for Drinfeld modules over F_q[theta].

Layers, bottom up: finite residue fields (ff), Laurent series in 1/theta
with certified precision caps (laurent), series and rational functions in
the deformation variable t (tate), shadowed partitions (partitions),
Drinfeld modules with exponential/logarithm coefficients (modules), the
deformed logarithm and generating-function identities (agf), and periods,
quasi-periods and the Legendre relation (periods).
"""

from .ff import FieldParams, Field
from .laurent import LaurentElem, SeriesParams
from .tate import TateRational, TateSeries
from .partitions import (ShadowedPartition, count_partitions,
                         enumerate_partitions)
from .modules import BracketFrac, DrinfeldModule, bracket, carlitz
from .agf import (DeformedLog, OmegaCarlitz, b_seq, carlitz_pi,
                  check_main_theorem, omega_carlitz, x_phi)
from .periods import (TorsionData, carlitz_period_routes, legendre_check,
                      newton_slopes, period_from_torsion, quasi_periods,
                      torsion_roots)
from .verify import PRESETS, PRESET_ORDER, preset_session, run_all

__all__ = [
    "FieldParams", "Field",
    "LaurentElem", "SeriesParams",
    "TateRational", "TateSeries",
    "ShadowedPartition", "count_partitions", "enumerate_partitions",
    "BracketFrac", "DrinfeldModule", "bracket", "carlitz",
    "DeformedLog", "OmegaCarlitz", "b_seq", "carlitz_pi",
    "check_main_theorem", "omega_carlitz", "x_phi",
    "TorsionData", "carlitz_period_routes", "legendre_check",
    "newton_slopes", "period_from_torsion", "quasi_periods",
    "torsion_roots",
    "PRESETS", "PRESET_ORDER", "preset_session", "run_all",
]
