"""Closed-form angle schedules for the fixed-point search iteration.

For a lower bound w on the marked amplitude and an iteration count l, the
schedule is

    alpha_k = 2 arccot(w tan((2k-1) pi / L)),
    beta_k  = -2 arccot(w tan(2k pi / L)),        k = 1..l,  L = 2l + 1.

A schedule stores alpha and beta; l, L and the recursion phases
phi_{2k-1} = pi - alpha_k, phi_{2k} = beta_k + pi are derived from them.  Here
phi_n = 2 arctan(w tan(n pi / L)), n = 1..2l, which with gamma = sqrt(1 - w^2)
are exactly the twist angles of the quasi-Chebyshev recursion: this is what
makes the failure amplitude a Chebyshev ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexpoly import EVAL_MAX_DEGREE, check_int, check_real, check_scalar, tan_table

# the largest l whose degree L = 2l + 1 chebyshev_T still evaluates
MAX_ITERATIONS = (EVAL_MAX_DEGREE - 1) // 2


def check_unit(value: float, name: str) -> float:
    """Read w, delta or lambda, a real number in (0, 1), as a Python float."""
    return check_scalar(value, f"{name} must be a real number in (0, 1)", lambda v: 0.0 < v < 1.0)


def check_w_l(w: float, l: int) -> int:
    """Reject w outside (0, 1) and l that is not an integer in 1..MAX_ITERATIONS; returns l as a Python int."""
    check_unit(w, "w")
    return check_int(l, f"l must be an integer in 1..{MAX_ITERATIONS}", 1, MAX_ITERATIONS)


@dataclass(frozen=True)
class SearchParams:
    """Search guarantee inputs: amplitude lower bound w, failure bound delta."""

    w: float
    delta: float

    def __post_init__(self):
        check_unit(self.w, "w")
        check_unit(self.delta, "delta")


def _iteration_bound(params: SearchParams) -> float:
    # ln(2/delta) / (2w); inf at the smallest subnormal w.  2/delta overflows below
    # delta = 2/DBL_MAX, about 1.1e-308, where ln 2 - ln delta is still finite
    ratio = 2.0 / params.delta
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(2.0) - math.log(params.delta)
    return log_ratio / (2.0 * params.w)


def min_iterations(params: SearchParams) -> int:
    """Smallest iteration count honouring the guarantee: ceil(ln(2/delta) / (2w)).

    Never less than 1; a zero-iteration schedule guarantees nothing.
    """
    bound = _iteration_bound(params)
    if not math.isfinite(bound):
        raise ValueError(
            f"w = {params.w} and delta = {params.delta} give an infinite iteration count ln(2/delta) / (2w)"
        )
    return max(1, math.ceil(bound))


def arccot(y):
    """Inverse cotangent on the (0, pi) branch: pi/2 - arctan(y), scalar or elementwise.

    Strictly decreasing, arccot(0) = pi/2.  This is the unique branch for
    which pi - 2 arccot(z) = 2 arctan(z) at every finite z, the identity the
    schedule's alpha/phi relation relies on.
    """
    return 0.5 * math.pi - np.arctan(y)


@dataclass(frozen=True)
class AngleSchedule:
    """Angle sequence driving the search; ``l``, ``L`` and ``phi`` are derived from the angles.

    ``alpha[k-1]`` and ``beta[k-1]`` hold alpha_k and beta_k, k = 1..l, and ``phi[n-1]``
    the recursion phase phi_n.  Angles are stored unreduced (beta_1 may be -3pi/2): only
    e^{i beta} matters downstream and reduction would obscure the defining formulas.
    """

    w: float
    alpha: np.ndarray
    beta: np.ndarray
    delta: float | None = None

    def __post_init__(self):
        check_unit(self.w, "w")
        # delta is bookkeeping only, but to_dict reports it
        if self.delta is not None:
            check_unit(self.delta, "delta")
        # lists become float arrays; a float array is kept as it is, without a copy
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, check_real(getattr(self, name), f"{name} must be an array of real numbers"))
        # the search zips alpha with beta, so a short array would silently drop iterations
        shapes = self.alpha.shape, self.beta.shape
        if len(shapes[0]) != 1 or shapes[0] != shapes[1]:
            raise ValueError(f"alpha and beta must be 1-D with equal shapes, got {shapes[0]} and {shapes[1]}")
        if not (np.isfinite(self.alpha).all() and np.isfinite(self.beta).all()):
            raise ValueError("alpha and beta must be finite real numbers")

    @property
    def l(self) -> int:
        return len(self.alpha)

    @property
    def L(self) -> int:
        return 2 * self.l + 1

    @property
    def phi(self) -> np.ndarray:
        """Recursion phases phi_1..phi_2l: pi - alpha_k and beta_k + pi, interleaved."""
        return np.column_stack((math.pi - self.alpha, self.beta + math.pi)).ravel()

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
    l = check_w_l(w, l)
    # t[n] = w tan(n pi / L): alpha_k takes n = 2k - 1, beta_k takes n = 2k
    t = w * tan_table(2 * l + 1)
    alpha = 2.0 * arccot(t[1::2])
    beta = -2.0 * arccot(t[2::2])
    return AngleSchedule(w=w, alpha=alpha, beta=beta, delta=delta)


def schedule_for(params: SearchParams) -> AngleSchedule:
    """Schedule at the minimal iteration count for (w, delta).

    Raises ValueError naming w, delta and the cap when that count exceeds MAX_ITERATIONS.
    """
    # compared before rounding: the count can have hundreds of digits, or be inf
    if _iteration_bound(params) > MAX_ITERATIONS:
        raise ValueError(
            f"w = {params.w} and delta = {params.delta} need more than {MAX_ITERATIONS} iterations, the cap on l"
        )
    return make_schedule(params.w, min_iterations(params), delta=params.delta)
