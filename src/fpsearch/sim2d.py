"""Search dynamics in the two-dimensional invariant subspace.

Every generalized iteration preserves the plane spanned by the normalized
unmarked projection |r> and marked projection |t> of the initial state, so
the whole search reduces to products of 2x2 matrices.  With x the unmarked
overlap of the initial state the final unmarked amplitude is the
quasi-Chebyshev value a_L(x), giving the closed-form success amplitude

    P(lambda) = sqrt(1 - T_L^2(sqrt(1-lambda^2)/gamma) / T_L^2(1/gamma)),

with gamma = sqrt(1 - w^2) and lambda = sqrt(1 - x^2).

Global phases are kept throughout (the e^{i beta} factor is not dropped), so
the matrix product matches the defining operator expression exactly; tests
compare magnitudes only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .complexpoly import chebyshev_T
from .schedule import AngleSchedule, check_w_l


@dataclass(frozen=True)
class TwoDimState:
    """Amplitudes on the unmarked (|r>) and marked (|t>) directions."""

    r_amp: complex
    t_amp: complex

    def norm(self) -> float:
        return math.hypot(abs(self.r_amp), abs(self.t_amp))


def _check_x(x, name: str = "x") -> None:
    # both overlaps, x and lambda, lie in [0, 1]; an array is checked by its extremes (NaN if any entry is)
    if isinstance(x, np.ndarray) and x.ndim:
        for value in (np.min(x), np.max(x)):
            _check_x(value, name)
    elif not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {x}")


def rotation_R(x: float) -> np.ndarray:
    """Reflection sending |r> to the initial state: [[x, s], [s, -x]], s = sqrt(1-x^2).

    Real, symmetric and involutive.
    """
    _check_x(x)
    s = math.sqrt(max(0.0, 1.0 - x * x))
    return np.array([[x, s], [s, -x]], dtype=complex)


def _marked_phase(phi: float) -> np.ndarray:
    # diag(1, e^{-i phi}): phase on the marked direction only
    return np.array([[1.0, 0.0], [0.0, cmath.exp(-1j * phi)]], dtype=complex)


def iteration_G(x: float, alpha: float, beta: float) -> np.ndarray:
    """One generalized iteration restricted to the invariant plane.

    Equals e^{i beta} R(x) diag(1, e^{-i beta}) R(x) diag(1, e^{i alpha}),
    i.e. the initial-state phase shift by beta composed with the marked-state
    phase shift by alpha.  Unitary for all inputs.
    """
    R = rotation_R(x)
    return cmath.exp(1j * beta) * (R @ _marked_phase(beta) @ R @ _marked_phase(-alpha))


def run_search(x: float, schedule: AngleSchedule) -> TwoDimState:
    """Apply the scheduled iterations, index 1 first, to the initial state R(x)|r>."""
    _check_x(x)
    state = rotation_R(x)[:, 0].copy()
    for k in range(schedule.l):
        state = iteration_G(x, schedule.alpha[k], schedule.beta[k]) @ state
    return TwoDimState(r_amp=complex(state[0]), t_amp=complex(state[1]))


def success_probability_closed(lam, w: float, l: int):
    """Closed-form final marked amplitude P(lambda) for the (w, l) schedule.

    Scalar lambda gives a float, an array of lambda an array of the same
    shape.  Returns amplitude norms in [0, 1], not probabilities; square them
    to compare with full-space simulation output.
    """
    lams = np.asarray(lam, dtype=float)
    _check_x(lams, "lambda")
    check_w_l(w, l)
    gamma = math.sqrt(1.0 - w * w)
    L = 2 * l + 1
    x = np.sqrt(np.maximum(0.0, 1.0 - lams * lams))
    ratio = chebyshev_T(L, x / gamma) / chebyshev_T(L, 1.0 / gamma)
    # the ratio can exceed 1 by roundoff only when it is 1 up to eps; fmax also
    # turns the NaN of a cosh overflow into 0 (ROADMAP item 3)
    out = np.sqrt(np.fmax(0.0, 1.0 - ratio * ratio))
    return float(out) if out.ndim == 0 else out


def classic_grover_optimal(lam: float) -> int:
    """Optimal stop time of the plain search: round(pi / (4 arcsin lambda) - 1/2).

    Half-integer ties round to the even neighbour (Python's round); the
    result is floored at 0.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must be in (0, 1), got {lam}")
    return max(0, round(math.pi / (4.0 * math.asin(lam)) - 0.5))
