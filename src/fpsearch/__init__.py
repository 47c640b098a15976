"""Fixed-point quantum search at desk scale.

Closed-form angle schedules with a guaranteed final success amplitude,
simulation both in the two-dimensional invariant subspace and on the full
2^n-amplitude register, and exhaustive verification of the quasi-Chebyshev,
tiling and tangent-sum identities the guarantee rests on.
"""

from .complexpoly import chebyshev_T
from .schedule import SearchParams, make_schedule, schedule_for
from .sim2d import run_search, success_probability_closed
from .statevector import MarkedSet, run_full_search

__version__ = "0.1.0"

__all__ = [
    "MarkedSet",
    "SearchParams",
    "chebyshev_T",
    "make_schedule",
    "run_full_search",
    "run_search",
    "schedule_for",
    "success_probability_closed",
]
