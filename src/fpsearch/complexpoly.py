"""Chebyshev and quasi-Chebyshev polynomials.

The quasi-Chebyshev polynomial is the complex odd polynomial of odd degree
L = 2l + 1 produced by a phase-twisted three-term recursion.  It collapses to
the ordinary Chebyshev polynomial T_L(x) when gamma = 1 and in general equals
T_L(x/gamma) / T_L(1/gamma).  This module also carries the numerator /
denominator split of that ratio: the numerator polynomial satisfies
N_L(x) = gamma^L T_L(x/gamma) and the denominator constant satisfies
D_L(gamma) = gamma^L T_L(1/gamma).  ``tan_table`` is the one source of the
tangents tan(n pi / L): the twists and twist angles here, the schedule angles
and the tiling weights are all taken from it.

Complex scalars are Python ``complex``; coefficient vectors are numpy arrays
of ``complex128`` indexed by degree.  ``check_int`` reads every count, and
``check_odd`` every odd count in a range, such as a degree L.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Dense coefficient extraction is capped at desk scale; evaluation-only
# operations accept any degree up to EVAL_MAX_DEGREE.
COEFF_MAX_DEGREE = 41
EVAL_MAX_DEGREE = 100_000


def check_int(value, what: str) -> int:
    """Read a count as a Python int; a float is never truncated, not even an integral one."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what}, got {value!r}") from None


def check_odd(value, lo: int, hi: int | None, what: str) -> int:
    """Read an odd count in lo..hi (no upper bound when hi is None) as a Python int."""
    n = check_int(value, what)
    if n % 2 == 0 or n < lo or (hi is not None and n > hi):
        raise ValueError(f"{what}, got {n}")
    return n


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
        object.__setattr__(self, "L", check_odd(self.L, 1, None, "L must be a positive odd integer"))

    @property
    def l(self) -> int:
        return (self.L - 1) // 2


def tan_table(L: int) -> np.ndarray:
    """tan(n pi / L) for n = 0..L-1; every entry is finite because L is odd."""
    return np.tan(np.arange(L) * math.pi / L)


def twists(params: QuasiChebParams) -> np.ndarray:
    """Scaled tangents t_n = sqrt(1 - gamma^2) tan(n pi / L) for n = 0..L-1."""
    return math.sqrt(1.0 - params.gamma * params.gamma) * tan_table(params.L)


def phi_angles(params: QuasiChebParams) -> np.ndarray:
    """Twist angles phi_n = 2 arctan(t_n) for n = 1..2l, phi_n at index n - 1.

    Each lies in (-pi, pi); the unit phase e^{-i phi_n} equals
    (1 - i t_n) / (1 + i t_n).
    """
    return 2.0 * np.arctan(twists(params)[1:])


def chebyshev_T(L: int, x):
    """Chebyshev polynomial of the first kind T_L, scalar or elementwise.

    Evaluates cos(L arccos x) on [-1, 1] and sign(x)^L cosh(L arccosh |x|)
    outside.  Both branches stay accurate at degrees where the monomial
    expansion of T_L has long lost all its digits.
    """
    L = check_int(L, "degree must be an integer")
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
    for e in np.exp(-1j * phi_angles(params)):
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


def _coefficients(params: QuasiChebParams, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    # p_0 = 1, p_1 = x, p_{n+1} = b_n x p_n - c_n p_{n-1} through n = 2l, on
    # length-(L + 1) coefficient vectors indexed by degree
    L = params.L
    if L > COEFF_MAX_DEGREE:
        raise ValueError(f"coefficient extraction capped at L <= {COEFF_MAX_DEGREE}, got {L}")
    p_prev, p = np.eye(2, L + 1, dtype=complex)
    for b_n, c_n in zip(b, c):
        shifted = np.zeros(L + 1, dtype=complex)
        shifted[1:] = p[:-1]
        p_prev, p = p, b_n * shifted - c_n * p_prev
    return p


def quasi_cheb_coeffs(params: QuasiChebParams) -> np.ndarray:
    """Complex coefficient vector (index = degree) of the degree-L recursion.

    Even-degree coefficients vanish up to roundoff: the polynomial is odd.
    """
    e = np.exp(-1j * phi_angles(params))
    return _coefficients(params, 1.0 + e, e)


def n_poly_coeffs(params: QuasiChebParams) -> np.ndarray:
    """Coefficients of the numerator polynomial N_L.

    N_0 = 1, N_1 = x, N_{n+1} = 2x N_n - (1 - i t_n)(1 + i t_{n-1}) N_{n-1};
    once the imaginary parts cancel this equals gamma^L T_L(x/gamma)
    coefficientwise.
    """
    t = twists(params)
    return _coefficients(params, np.full(params.L - 1, 2.0), (1.0 - 1j * t[1:]) * (1.0 + 1j * t[:-1]))


def d_product(params: QuasiChebParams) -> complex:
    """Denominator constant D_L(gamma) = prod_{n=0}^{L-1} (1 + i t_n).

    The factors pair off (t_{L-n} = -t_n, t_0 = 0), so the product is real
    and positive; it equals gamma^L T_L(1/gamma).
    """
    return complex(np.prod(1.0 + 1j * twists(params)))
