"""Chebyshev and quasi-Chebyshev polynomials.

The quasi-Chebyshev polynomial is the complex odd polynomial of odd degree
L = 2l + 1 produced by a phase-twisted three-term recursion.  It collapses to
the ordinary Chebyshev polynomial T_L(x) when gamma = 1 and in general equals
T_L(x/gamma) / T_L(1/gamma).  This module also carries the numerator /
denominator split of that ratio: the numerator polynomial satisfies
N_L(x) = gamma^L T_L(x/gamma) and the denominator constant satisfies
D_L(gamma) = gamma^L T_L(1/gamma).

Complex scalars are Python ``complex``; coefficient vectors are numpy arrays
of ``complex128`` indexed by degree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Dense coefficient extraction is capped at desk scale; evaluation-only
# operations accept any degree up to EVAL_MAX_DEGREE.
COEFF_MAX_DEGREE = 41
EVAL_MAX_DEGREE = 100_000


def check_gamma(gamma: float) -> None:
    """Reject gamma = sqrt(1 - w^2) outside (0, 1]."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")


@dataclass(frozen=True)
class QuasiChebParams:
    """Parameters of the twisted recursion: gamma in (0, 1] and odd degree L."""

    gamma: float
    L: int

    def __post_init__(self):
        check_gamma(self.gamma)
        if self.L < 1 or self.L % 2 == 0:
            raise ValueError(f"L must be a positive odd integer, got {self.L}")

    @property
    def l(self) -> int:
        return (self.L - 1) // 2

    def tan_multiple(self, n: int) -> float:
        """tan(n pi / L), periodic in n; finite for every n because L is odd."""
        return math.tan((n % self.L) * math.pi / self.L)

    def twist(self, n: int) -> float:
        """Scaled tangent t_n = sqrt(1 - gamma^2) * tan(n pi / L)."""
        return math.sqrt(1.0 - self.gamma * self.gamma) * self.tan_multiple(n)


def chebyshev_T(L: int, x):
    """Chebyshev polynomial of the first kind T_L, scalar or elementwise.

    Evaluates cos(L arccos x) on [-1, 1] and sign(x)^L cosh(L arccosh |x|)
    outside.  Both branches stay accurate at degrees where the monomial
    expansion of T_L has long lost all its digits.
    """
    if L < 0:
        raise ValueError(f"degree must be >= 0, got {L}")
    if L > EVAL_MAX_DEGREE:
        raise ValueError(f"degree capped at {EVAL_MAX_DEGREE}, got {L}")
    arr = np.asarray(x, dtype=float)
    out = np.empty_like(arr)
    inside = np.abs(arr) <= 1.0
    out[inside] = np.cos(L * np.arccos(arr[inside]))
    outer = arr[~inside]
    out[~inside] = np.sign(outer) ** L * np.cosh(L * np.arccosh(np.abs(outer)))
    if np.ndim(x) == 0:
        return float(out)
    return out


def phi_angle(params: QuasiChebParams, n: int) -> float:
    """Twist angle phi_n = 2 arctan(sqrt(1 - gamma^2) tan(n pi / L)).

    Defined for n = 1..2l; the result lies in (-pi, pi).  The unit phase
    e^{-i phi_n} equals (1 - i t_n) / (1 + i t_n).
    """
    if not 1 <= n <= 2 * params.l:
        raise ValueError(f"n must be in 1..{2 * params.l}, got {n}")
    return 2.0 * math.atan(params.twist(n))


def quasi_cheb_recursive(params: QuasiChebParams, x):
    """Degree-L value of the twisted recursion at x (scalar or array).

    Runs a_0 = 1, a_1 = x, a_{n+1} = x (1 + e^{-i phi_n}) a_n - e^{-i phi_n}
    a_{n-1} through n = 2l.  The result is real up to roundoff; the imaginary
    residue stays below 1e-9 * (1 + |a_L|).
    """
    arr = np.asarray(x, dtype=complex)
    if np.any(np.abs(arr) > 10.0):
        raise ValueError("recursion evaluation is guarded to |x| <= 10")
    a_prev = np.ones_like(arr)
    a = arr.copy()
    for n in range(1, params.L):
        e = cmath.exp(-1j * phi_angle(params, n))
        a_prev, a = a, arr * (1.0 + e) * a - e * a_prev
    if np.ndim(x) == 0:
        return complex(a)
    return a


def quasi_cheb_closed(params: QuasiChebParams, x):
    """Closed form T_L(x/gamma) / T_L(1/gamma) of the recursion value.

    Bounded by 1 / T_L(1/gamma) whenever |x| <= gamma.
    """
    g = params.gamma
    return chebyshev_T(params.L, np.asarray(x, dtype=float) / g) / chebyshev_T(
        params.L, 1.0 / g
    )


def _raised(coeffs: np.ndarray) -> np.ndarray:
    # multiply a coefficient vector by x (length stays L + 1)
    out = np.zeros_like(coeffs)
    out[1:] = coeffs[:-1]
    return out


def _check_coeff_degree(L: int) -> None:
    if L > COEFF_MAX_DEGREE:
        raise ValueError(f"coefficient extraction capped at L <= {COEFF_MAX_DEGREE}, got {L}")


def quasi_cheb_coeffs(params: QuasiChebParams) -> np.ndarray:
    """Complex coefficient vector (index = degree) of the degree-L recursion.

    Even-degree coefficients vanish up to roundoff: the polynomial is odd.
    """
    _check_coeff_degree(params.L)
    L = params.L
    a_prev = np.zeros(L + 1, dtype=complex)
    a_prev[0] = 1.0
    a = np.zeros(L + 1, dtype=complex)
    a[1] = 1.0
    for n in range(1, L):
        e = cmath.exp(-1j * phi_angle(params, n))
        a_prev, a = a, (1.0 + e) * _raised(a) - e * a_prev
    return a


def n_poly_coeffs(params: QuasiChebParams) -> np.ndarray:
    """Coefficients of the numerator polynomial N_L.

    N_0 = 1, N_1 = x, N_{n+1} = 2x N_n - (1 - i t_n)(1 + i t_{n-1}) N_{n-1};
    once the imaginary parts cancel this equals gamma^L T_L(x/gamma)
    coefficientwise.
    """
    _check_coeff_degree(params.L)
    L = params.L
    n_prev = np.zeros(L + 1, dtype=complex)
    n_prev[0] = 1.0
    n_cur = np.zeros(L + 1, dtype=complex)
    n_cur[1] = 1.0
    for n in range(1, L):
        factor = (1.0 - 1j * params.twist(n)) * (1.0 + 1j * params.twist(n - 1))
        n_prev, n_cur = n_cur, 2.0 * _raised(n_cur) - factor * n_prev
    return n_cur


def d_product(params: QuasiChebParams) -> complex:
    """Denominator constant D_L(gamma) = prod_{n=0}^{L-1} (1 + i t_n).

    The factors pair off (t_{L-n} = -t_n, t_0 = 0), so the product is real
    and positive; it equals gamma^L T_L(1/gamma).
    """
    out = complex(1.0)
    for n in range(params.L):
        out *= 1.0 + 1j * params.twist(n)
    return out
