"""Analytic micro-architecture cost simulator (substrate).

The paper measures hardware CPU counters of compiled C++; from Python we
cannot measure our own operators' machine behaviour, so counters are
*derived* from code structure by this model (see DESIGN.md §2 and §5).
Hardware constants come from the paper's Table 4.
"""
from .hardware import KNL, SKYLAKE, THREADRIPPER, Hardware
from .model import CostModel, Counters, RandAccess, Trace, evaluate

__all__ = [
    "Hardware",
    "SKYLAKE",
    "THREADRIPPER",
    "KNL",
    "CostModel",
    "Counters",
    "RandAccess",
    "Trace",
    "evaluate",
]
