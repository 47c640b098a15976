"""Exhaustive tiling and tangent-identity oracles on a cycle of L positions.

The numerator polynomial N_L(x) of the quasi-Chebyshev ratio counts weighted
tilings: cover L positions arranged on a circle ("L-star") by squares (one
position, weight 2x) and dominos (two consecutive positions <n, n-1>, wrap
allowed).  Summing all tiling weights gives 2 N_L(x); forbidding the wrapping
domino and halving the square weight at position 0 ("modified" tilings of the
cut-open L-line) gives N_L(x) itself.  Two domino weightings matter:

    variant A:  -(1 - i w t(n)) (1 + i w t(n-1))   on <n, n-1>,
    variant B:  -(1 - w) (1 + w)                   everywhere,

with t(n) = tan(n pi / L) and w = sqrt(1 - gamma^2).  Their total weights
agree coefficientwise in w, which is what pins N_L(x) to gamma^L T_L(x/gamma).
Everything here is verified by brute-force enumeration at desk scale, not by
re-proving the identities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .complexpoly import QuasiChebParams, check_gamma, n_poly_coeffs

MAX_ENUM_L = 15
MAX_WEIGHT_L = 13
MAX_COMPARE_L = 11
MAX_TANGENT_L = 25
MAX_VIETA_L = 15

COEFF_TOL = 1e-8


def _check_L(L: int, cap: int, what: str) -> None:
    if L % 2 == 0 or not 3 <= L <= cap:
        raise ValueError(f"{what} supports odd L in 3..{cap}, got {L}")


def _check_variant(variant: str) -> None:
    if variant not in ("A", "B"):
        raise ValueError(f"variant must be 'A' or 'B', got {variant!r}")


def tan_table(L: int) -> np.ndarray:
    """tan(n pi / L) for n = 0..L-1; every entry is finite because L is odd."""
    return np.tan(np.arange(L) * math.pi / L)


def domino_weights(L: int, variant: str, w: float) -> np.ndarray:
    """Weight of the domino on <d, d-1> for every start position d in [L].

    Variant A gives -(1 - i w t(d)) (1 + i w t(d-1)); variant B the constant
    -(1 - w) (1 + w).
    """
    _check_variant(variant)
    if variant == "B":
        return np.full(L, -(1.0 - w) * (1.0 + w), dtype=complex)
    t = tan_table(L)
    return -(1.0 - 1j * w * t) * (1.0 + 1j * w * np.roll(t, 1))


def combinations_array(L: int, k: int) -> np.ndarray:
    """Every k-subset of [L] as one row of a (binom(L, k), k) array, in itertools order."""
    count = math.comb(L, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(L), k))
    dtype = np.min_scalar_type(L - 1)
    return np.fromiter(flat, dtype=dtype, count=count * k).reshape(count, k)


@dataclass(frozen=True)
class Tiling:
    """Cover of L cyclic positions by squares and dominos.

    A domino at position n covers <n, n-1> (mod L); every position not under
    a domino carries an implied square.  The set of domino start positions is
    the canonical encoding, which makes set-equality checks O(1) per tiling.
    """

    L: int
    dominoes: frozenset

    def __post_init__(self):
        if self.L < 3 or self.L % 2 == 0:
            raise ValueError(f"L must be odd and >= 3, got {self.L}")
        dom = frozenset(int(d) % self.L for d in self.dominoes)
        object.__setattr__(self, "dominoes", dom)
        for d in dom:
            if (d + 1) % self.L in dom:
                raise ValueError(f"overlapping dominoes at positions {d}, {(d + 1) % self.L}")

    @property
    def squares(self) -> tuple:
        covered = set()
        for d in self.dominoes:
            covered.add(d)
            covered.add((d - 1) % self.L)
        return tuple(p for p in range(self.L) if p not in covered)

    @property
    def pieces(self) -> tuple:
        """Ordered (kind, position) pairs; each position covered exactly once."""
        out = [("domino", d) for d in self.dominoes]
        out.extend(("square", p) for p in self.squares)
        return tuple(sorted(out, key=lambda kp: kp[1]))

    def wraps(self) -> bool:
        """True when a domino covers <0, L-1>."""
        return 0 in self.dominoes


def _tiling_bits(L: int, wrap: bool) -> np.ndarray:
    # (tilings, L) boolean matrix, one row per valid domino bitmask in
    # increasing order: bit d marks a domino on <d, d-1>, two dominos overlap
    # exactly when bits d and d+1 (mod L) are both set, and the line forbids bit 0
    masks = np.arange(1 << L, dtype=np.int64)
    rotated = ((masks << 1) | (masks >> (L - 1))) & ((1 << L) - 1)
    valid = (masks & rotated) == 0
    if not wrap:
        valid &= (masks & 1) == 0
    return ((masks[valid, None] >> np.arange(L)) & 1).astype(bool)


def enumerate_tilings(L: int, wrap: bool) -> list:
    """All tilings of the L-star (wrap=True) or the cut-open L-line (wrap=False).

    Exhaustive and duplicate-free, in increasing order of the domino bitmask.
    The line variant forbids the domino covering <0, L-1>.
    """
    _check_L(L, MAX_ENUM_L, "enumeration")
    bits = _tiling_bits(L, wrap)
    return [Tiling(L=L, dominoes=frozenset(np.flatnonzero(row).tolist())) for row in bits]


@dataclass(frozen=True)
class WeightModel:
    """Weight assignment for tiling pieces.

    Squares weigh 2x, or x at position 0 when ``modified`` is set (the
    cut-open line convention).  Domino weights follow the variant, with w
    standing in for sqrt(1 - gamma^2).
    """

    variant: str
    w: float
    x: float
    modified: bool = False

    def __post_init__(self):
        _check_variant(self.variant)


def tiling_weight(tiling: Tiling, model: WeightModel) -> complex:
    """Product of the piece weights of ``tiling`` under ``model``."""
    dom = domino_weights(tiling.L, model.variant, model.w)
    out = complex(1.0)
    for p in tiling.squares:
        out *= model.x if (model.modified and p == 0) else 2.0 * model.x
    for d in tiling.dominoes:
        out *= dom[d]
    return out


def _total_weight(L: int, gamma: float, x: float, wrap: bool) -> complex:
    # the variant-A weight of every tiling at once: (2x)^{n_sq} times the
    # weights of its dominos, with the square at position 0 of the line
    # (free exactly when no domino sits at 1) weighing x instead of 2x
    _check_L(L, MAX_WEIGHT_L, "the weight total")
    check_gamma(gamma)
    bits = _tiling_bits(L, wrap)
    dom = domino_weights(L, "A", math.sqrt(1.0 - gamma * gamma))
    squares = (2.0 * x) ** (L - 2 * np.count_nonzero(bits, axis=1))
    if not wrap:
        squares[~bits[:, 1]] *= 0.5
    return complex(np.sum(squares * np.prod(np.where(bits, dom, 1.0), axis=1)))


def total_star_weight(L: int, gamma: float, x: float) -> complex:
    """Sum of all L-star tiling weights; equals 2 N_L(x)."""
    return _total_weight(L, gamma, x, wrap=True)


def total_line_weight(L: int, gamma: float, x: float) -> complex:
    """Sum of all modified (cut-open line) tiling weights; equals N_L(x)."""
    return _total_weight(L, gamma, x, wrap=False)


def n_poly_value(L: int, gamma: float, x: float) -> complex:
    """Numerator polynomial N_L(x), the reference for the tiling totals."""
    return complex(npoly.polyval(x, n_poly_coeffs(QuasiChebParams(gamma=gamma, L=L))))


def _variant_sum(tilings, L: int, variant: str, w: float, n_s: int) -> complex:
    # square weights contribute (2x)^{n_s} with x = 1; w is a formal variable
    # here, so no range restriction applies
    dom = domino_weights(L, variant, w)
    total = 0j
    for tiling in tilings:
        piece = complex(2.0**n_s)
        for d in tiling.dominoes:
            piece *= dom[d]
        total += piece
    return total


def _variant_coeffs_nodes(tilings, L: int, variant: str, n_s: int, degree: int) -> np.ndarray:
    # recover the w-polynomial from values at Chebyshev nodes on [-1, 1];
    # symmetric nodes keep the Vandermonde solve well conditioned
    m = L + 2
    nodes = np.cos((2.0 * np.arange(m) + 1.0) * math.pi / (2.0 * m))
    values = np.array([_variant_sum(tilings, L, variant, w, n_s) for w in nodes])
    vander = npoly.polyvander(nodes, degree)
    coeffs, *_ = np.linalg.lstsq(vander, values, rcond=None)
    return coeffs


def _variant_coeffs_product(tilings, L: int, variant: str, n_s: int, degree: int) -> np.ndarray:
    # expand each tiling weight as an explicit product of linear factors in w
    t = tan_table(L)
    total = np.zeros(degree + 1, dtype=complex)
    for tiling in tilings:
        coeffs = np.array([2.0**n_s], dtype=complex)
        for d in tiling.dominoes:
            if variant == "A":
                factor = -npoly.polymul([1.0, -1j * t[d]], [1.0, 1j * t[(d - 1) % L]])
            else:
                factor = np.array([-1.0, 0.0, 1.0])
            coeffs = npoly.polymul(coeffs, factor)
        total[: len(coeffs)] += coeffs
    return total


@dataclass(frozen=True)
class CoefficientReport:
    """Outcome of comparing the two domino weightings coefficientwise in w."""

    L: int
    n_squares: int
    n_dominoes: int
    coeffs_a: np.ndarray
    coeffs_b: np.ndarray
    max_deviation: float
    max_odd_coefficient: float
    passes: bool


def coefficient_compare(L: int, n_s: int, method: str = "nodes") -> CoefficientReport:
    """Compare variant A and B total weights of all star tilings with n_s squares.

    Both totals are polynomials in w of degree 2 n_d (n_d = (L - n_s) / 2
    dominos); they must agree coefficient by coefficient, and every odd power
    of w must vanish.  ``method`` selects coefficient extraction by node
    evaluation plus a Vandermonde solve ("nodes", default) or by direct
    expansion of the linear factors ("product", the cross-check).
    """
    _check_L(L, MAX_COMPARE_L, "coefficient comparison")
    if n_s < 1 or n_s > L or (L - n_s) % 2:
        raise ValueError(f"n_s must be one of {{L, L-2, ..., 1}}, got {n_s}")
    if method not in ("nodes", "product"):
        raise ValueError(f"method must be 'nodes' or 'product', got {method!r}")
    n_d = (L - n_s) // 2
    tilings = [t for t in enumerate_tilings(L, wrap=True) if len(t.dominoes) == n_d]
    degree = 2 * n_d
    extract = _variant_coeffs_nodes if method == "nodes" else _variant_coeffs_product
    coeffs_a = extract(tilings, L, "A", n_s, degree)
    coeffs_b = extract(tilings, L, "B", n_s, degree)
    max_dev = float(np.max(np.abs(coeffs_a - coeffs_b)))
    max_odd = float(np.max(np.abs(coeffs_a[1::2]))) if degree >= 1 else 0.0
    return CoefficientReport(
        L=L,
        n_squares=n_s,
        n_dominoes=n_d,
        coeffs_a=coeffs_a,
        coeffs_b=coeffs_b,
        max_deviation=max_dev,
        max_odd_coefficient=max_odd,
        passes=max_dev <= COEFF_TOL and max_odd <= COEFF_TOL,
    )


def _check_subsets(L: int, subsets) -> np.ndarray:
    # one subset (1-D) or a batch of equal-size subsets (2-D, one per row)
    if not isinstance(subsets, (np.ndarray, list, tuple)):
        subsets = list(subsets)
    try:
        arr = np.asarray(subsets)
        ints = arr.astype(np.int64)
    except (TypeError, ValueError) as exc:
        raise ValueError("subsets must form a rectangular (S, k) array of integers") from exc
    if arr.dtype.kind not in "iu" and not np.array_equal(ints, arr):
        raise ValueError("subset entries must be integers")
    arr = ints
    if arr.ndim not in (1, 2):
        raise ValueError(f"subsets must be 1-D or 2-D, got {arr.ndim} dimensions")
    k = arr.shape[-1]
    if not 1 <= k <= L:
        raise ValueError(f"subset size must be in 1..{L}, got {k}")
    rows = arr.reshape(-1, k)
    if np.any((rows < 0) | (rows >= L)):
        raise ValueError(f"subset entries must lie in [0, {L})")
    ordered = np.sort(rows, axis=1)
    if np.any(ordered[:, 1:] == ordered[:, :-1]):
        raise ValueError("subset entries must be distinct")
    return arr


def tangent_sum_terms(L: int, subsets) -> np.ndarray:
    """The L shift products prod_m i tan((l_m + j) pi / L), one per j in [L].

    ``subsets`` is one subset {l_m} (any integer sequence), giving an (L,)
    array, or an (S, k) integer array of S subsets of equal size k, giving
    an (S, L) array whose row s holds the shift products of subset s.  One
    tangent table serves the whole batch, and the products are taken one
    subset column at a time, so temporaries stay O(S L).
    """
    _check_L(L, MAX_TANGENT_L, "the tangent sum")
    idx = _check_subsets(L, subsets)
    rows = idx.reshape(-1, idx.shape[-1])
    t = 1j * tan_table(L)
    shifts = np.arange(L)
    out = np.ones((rows.shape[0], L), dtype=complex)
    for column in rows.T:
        out *= t[(column[:, None] + shifts) % L]
    return out if idx.ndim == 2 else out[0]


def tangent_sum(L: int, subset) -> complex:
    """Sum over all L cyclic shifts of the tangent product for ``subset``.

    Equals L when the subset size is even and 0 when it is odd.  Individual
    terms can be large while the sum is O(L); tolerances should be taken
    relative to the largest term magnitude.
    """
    return complex(tangent_sum_terms(L, subset).sum())


def vieta_terms(L: int, k: int) -> np.ndarray:
    """Products prod i tan(d pi / L) over every k-subset of [L]."""
    _check_L(L, MAX_VIETA_L, "the subset sum")
    if not 0 <= k <= L:
        raise ValueError(f"k must be in 0..{L}, got {k}")
    t = 1j * tan_table(L)
    out = np.ones(math.comb(L, k), dtype=complex)
    for column in combinations_array(L, k).T:
        out *= t[column]
    return out


def vieta_sum(L: int, k: int) -> complex:
    """Sum of the k-subset tangent products; equals binom(L, k) for even k, 0 for odd."""
    return complex(vieta_terms(L, k).sum())


def rotation_orbit(tiling: Tiling, j: int) -> Tiling:
    """Shift every piece of the tiling by j positions around the circle."""
    return Tiling(L=tiling.L, dominoes=frozenset((d + j) % tiling.L for d in tiling.dominoes))


def reflect(tiling: Tiling) -> Tiling:
    """Mirror across the axis through position 0.

    Sends the square at n to L - n and the domino at n to L - n + 1; an
    involution that preserves variant-A weights.
    """
    L = tiling.L
    return Tiling(L=L, dominoes=frozenset((L - d + 1) % L for d in tiling.dominoes))


def star_line_partition(L: int) -> dict:
    """Split the star tilings into square-at-0, line-domino and wrap-domino parts.

    Returns the three disjoint sets {f(A), B, g(B)}: line tilings whose
    position 0 carries a square, line tilings with the domino on <1, 0>, and
    the reflections of the latter (exactly the wrap tilings).  Their union
    must reproduce the star tilings exactly once each.
    """
    line = enumerate_tilings(L, wrap=False)
    set_a = {t for t in line if 1 not in t.dominoes}
    set_b = {t for t in line if 1 in t.dominoes}
    return {"square_at_zero": set_a, "line_domino": set_b, "wrap_domino": {reflect(t) for t in set_b}}


def star_line_bijection_holds(L: int) -> bool:
    """Exact set equality f(A) | B | g(B) == all star tilings, no overlaps."""
    parts = star_line_partition(L)
    a, b, gb = parts["square_at_zero"], parts["line_domino"], parts["wrap_domino"]
    if a & b or a & gb or b & gb:
        return False
    return a | b | gb == set(enumerate_tilings(L, wrap=True))
