"""Closed-form angle schedules for the fixed-point search iteration.

For a lower bound w on the marked amplitude and an iteration count l, the
schedule is

    alpha_k = 2 arccot(w tan((2k-1) pi / L)),
    beta_k  = -2 arccot(w tan(2k pi / L)),        k = 1..l,  L = 2l + 1,

together with the equivalent recursion phases

    phi_n = 2 arctan(w tan(n pi / L)),            n = 1..2l,

which satisfy phi_{2k-1} = pi - alpha_k and phi_{2k} = beta_k + pi.  With
gamma = sqrt(1 - w^2) these phi_n are exactly the twist angles of the
quasi-Chebyshev recursion, which is what makes the failure amplitude a
Chebyshev ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexpoly import EVAL_MAX_DEGREE

# the largest l whose degree L = 2l + 1 chebyshev_T still evaluates
MAX_ITERATIONS = (EVAL_MAX_DEGREE - 1) // 2


def check_w_l(w: float, l: int | None = None) -> None:
    """Reject w outside (0, 1) and, when given, l outside 1..MAX_ITERATIONS."""
    if not 0.0 < w < 1.0:
        raise ValueError(f"w must be in (0, 1), got {w}")
    if l is not None and not 1 <= l <= MAX_ITERATIONS:
        raise ValueError(f"l must be in 1..{MAX_ITERATIONS}, got {l}")


@dataclass(frozen=True)
class SearchParams:
    """Search guarantee inputs: amplitude lower bound w, failure bound delta."""

    w: float
    delta: float

    def __post_init__(self):
        check_w_l(self.w)
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")


def min_iterations(params: SearchParams) -> int:
    """Smallest iteration count honouring the guarantee: ceil(ln(2/delta) / (2w)).

    Never less than 1; a zero-iteration schedule guarantees nothing.
    """
    return max(1, math.ceil(math.log(2.0 / params.delta) / (2.0 * params.w)))


def arccot(y: float) -> float:
    """Inverse cotangent on the (0, pi) branch: pi/2 - arctan(y).

    Strictly decreasing, arccot(0) = pi/2.  This is the unique branch for
    which pi - 2 arccot(z) = 2 arctan(z) at every finite z, the identity the
    schedule's alpha/phi relation relies on.
    """
    return 0.5 * math.pi - math.atan(y)


@dataclass(frozen=True)
class AngleSchedule:
    """Angle sequence driving the search.

    ``alpha[k-1]`` and ``beta[k-1]`` hold alpha_k and beta_k; ``phi[n-1]``
    holds the recursion phase phi_n.  Angles are stored unreduced (beta_1 may
    be -3pi/2): only e^{i beta} matters downstream and reduction would
    obscure the defining formulas.
    """

    w: float
    l: int
    alpha: np.ndarray
    beta: np.ndarray
    phi: np.ndarray
    delta: float | None = None

    @property
    def L(self) -> int:
        return 2 * self.l + 1

    def to_dict(self) -> dict:
        """JSON-ready representation (angles in radians)."""
        out: dict = {"w": self.w}
        if self.delta is not None:
            out["delta"] = self.delta
        out["l"] = self.l
        out["L"] = self.L
        out["alpha_radians"] = self.alpha.tolist()
        out["beta_radians"] = self.beta.tolist()
        out["phi_radians"] = self.phi.tolist()
        return out


def make_schedule(w: float, l: int, delta: float | None = None) -> AngleSchedule:
    """Build the closed-form schedule for amplitude bound w and l iterations.

    ``delta`` is carried along for bookkeeping only; it does not affect the
    angles.
    """
    check_w_l(w, l)
    L = 2 * l + 1
    # L odd means the tangent argument never hits pi/2, so every entry is finite
    alpha = np.array(
        [2.0 * arccot(w * math.tan((2 * k - 1) * math.pi / L)) for k in range(1, l + 1)]
    )
    beta = np.array(
        [-2.0 * arccot(w * math.tan(2 * k * math.pi / L)) for k in range(1, l + 1)]
    )
    phi = np.array(
        [2.0 * math.atan(w * math.tan(n * math.pi / L)) for n in range(1, 2 * l + 1)]
    )
    return AngleSchedule(w=w, l=l, alpha=alpha, beta=beta, phi=phi, delta=delta)


def schedule_for(params: SearchParams) -> AngleSchedule:
    """Schedule at the minimal iteration count for (w, delta)."""
    return make_schedule(params.w, min_iterations(params), delta=params.delta)
