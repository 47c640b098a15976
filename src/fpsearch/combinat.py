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
Every tiling weight, a value at one w or the exact coefficients in w, comes
from one row product over the bit matrix of all tilings: the coefficients
are the domino quadratics multiplied out, not fitted to sampled values.
Everything here is verified by brute-force enumeration at desk scale, not by
re-proving the identities.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .complexpoly import QuasiChebParams, check_gamma, check_int, check_odd, n_poly_coeffs, tan_table

MAX_ENUM_L = 15
MAX_WEIGHT_L = 13
MAX_COMPARE_L = 11
MAX_TANGENT_L = 25
MAX_VIETA_L = 15

COEFF_TOL = 1e-8


def _check_L(L: int, cap: int, what: str) -> int:
    return check_odd(L, 3, cap, f"{what} supports odd L in 3..{cap}")


def _check_variant(variant: str) -> None:
    if variant not in ("A", "B"):
        raise ValueError(f"variant must be 'A' or 'B', got {variant!r}")


@functools.lru_cache(maxsize=64)
def _domino_table(L: int, variant: str, w: float | None = None) -> np.ndarray:
    # the domino on <d, d-1> weighs -(1 + p w)(1 + q w): p = -i t(d) and
    # q = i t(d-1) in variant A, p = -1 and q = 1 in variant B.  Row d holds
    # that weight at w, or its coefficients in w when w is None.  Cached
    # read-only, because one weight model serves every tiling of a check
    _check_variant(variant)
    if variant == "A":
        t = tan_table(L)
        p, q = -1j * t, 1j * np.roll(t, 1)
    else:
        p, q = np.full(L, -1.0), np.full(L, 1.0)
    if w is None:
        table = -np.stack([np.ones(L), p + q, p * q], axis=1)
    else:
        table = (-(1.0 + p * w) * (1.0 + q * w))[:, None]
    table.setflags(write=False)
    return table


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
        L = check_odd(self.L, 3, None, "L must be an odd integer >= 3")
        positions = [check_int(d, "domino positions must be integers") for d in self.dominoes]
        dom = frozenset(d % L for d in positions)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "dominoes", dom)
        for d in dom:
            if (d + 1) % L in dom:
                raise ValueError(f"overlapping dominoes at positions {d}, {(d + 1) % L}")

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
    L = _check_L(L, MAX_ENUM_L, "enumeration")
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


def _row_weights(bits: np.ndarray, dom: np.ndarray, x: float, modified: bool) -> np.ndarray:
    # weight of every tiling at once, one row of the (tilings, L) bit matrix
    # each, as coefficients in w (a single column when dom holds values at
    # one w).  A square weighs 2x, or x at position 0 when modified and
    # neither bit 0 nor bit 1 is set.  With L odd, a tiling is one square
    # plus L // 2 slots, each holding a domino or a pair of squares; the
    # slots multiply in one column of all rows at a time, dominos first in
    # increasing position, each step convolving the coefficients exactly
    rows, L = bits.shape
    m = dom.shape[1]
    factors = np.concatenate([dom, np.zeros((1, m))])
    factors[L, 0] = (2.0 * x) ** 2
    out = np.zeros((rows, 1 + (m - 1) * (L // 2)), dtype=complex)
    out[:, 0] = 2.0 * x
    if modified:
        out[~(bits[:, 0] | bits[:, 1]), 0] = x
    slots = np.sort(np.where(bits, np.arange(L), L), axis=1)[:, : L // 2]
    for factor in factors[slots].transpose(1, 0, 2):
        grown = factor[:, :1] * out
        for j in range(1, m):
            grown[:, j:] += factor[:, j, None] * out[:, :-j]
        out = grown
    return out


def tiling_weight(tiling: Tiling, model: WeightModel) -> complex:
    """Product of the piece weights of ``tiling`` under ``model``."""
    bits = np.array([[p in tiling.dominoes for p in range(tiling.L)]])
    dom = _domino_table(tiling.L, model.variant, model.w)
    return complex(_row_weights(bits, dom, model.x, model.modified)[0, 0])


def _total_weight(L: int, gamma: float, x: float, wrap: bool) -> complex:
    # variant A; the cut-open line (wrap=False) takes the modified squares
    L = _check_L(L, MAX_WEIGHT_L, "the weight total")
    check_gamma(gamma)
    dom = _domino_table(L, "A", math.sqrt(1.0 - gamma * gamma))
    return complex(np.sum(_row_weights(_tiling_bits(L, wrap), dom, x, not wrap)[:, 0]))


def total_star_weight(L: int, gamma: float, x: float) -> complex:
    """Sum of all L-star tiling weights; equals 2 N_L(x)."""
    return _total_weight(L, gamma, x, wrap=True)


def total_line_weight(L: int, gamma: float, x: float) -> complex:
    """Sum of all modified (cut-open line) tiling weights; equals N_L(x)."""
    return _total_weight(L, gamma, x, wrap=False)


def n_poly_value(L: int, gamma: float, x: float) -> complex:
    """Numerator polynomial N_L(x), the reference for the tiling totals."""
    return complex(npoly.polyval(x, n_poly_coeffs(QuasiChebParams(gamma=gamma, L=L))))


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


def coefficient_compare(L: int, n_s: int) -> CoefficientReport:
    """Compare variant A and B total weights of all star tilings with n_s squares.

    Both totals are polynomials in w of degree 2 n_d (n_d = (L - n_s) / 2
    dominos); they must agree coefficient by coefficient, and every odd power
    of w must vanish.  The coefficients are exact expansions, not fits: each
    tiling's domino quadratics are multiplied out, one domino column of all
    tilings at a time, and the products are summed over the tilings.
    """
    L = _check_L(L, MAX_COMPARE_L, "coefficient comparison")
    n_s = check_odd(n_s, 1, L, "n_s must be one of {L, L-2, ..., 1}")
    n_d = (L - n_s) // 2
    bits = _tiling_bits(L, wrap=True)
    bits = bits[bits.sum(axis=1) == n_d]
    degree = 2 * n_d
    coeffs_a, coeffs_b = (
        np.sum(_row_weights(bits, _domino_table(L, variant), 1.0, False), axis=0)[: degree + 1]
        for variant in "AB"
    )
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
    except (TypeError, ValueError) as exc:
        raise ValueError("subsets must form a rectangular (S, k) array of integers") from exc
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError("subset entries must be integers")
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
    return arr.astype(np.int64)


def _shift_products(L: int, rows: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    # out[s, j] = prod_m i tan((rows[s, m] + shifts[j]) pi / L).  Row a of the
    # (L, len(shifts)) circulant table holds i tan((a + shifts[j]) pi / L) for
    # every j, so each subset column multiplies in as one row gather
    t = 1j * tan_table(L)
    table = t[(np.arange(L)[:, None] + shifts) % L]
    out = np.ones((rows.shape[0], len(shifts)), dtype=complex)
    for column in rows.T:
        out *= table[column]
    return out


def tangent_sum_terms(L: int, subsets) -> np.ndarray:
    """The L shift products prod_m i tan((l_m + j) pi / L), one per j in [L].

    ``subsets`` is one subset {l_m} (any integer sequence), giving an (L,)
    array, or an (S, k) integer array of S subsets of equal size k, giving
    an (S, L) array whose row s holds the shift products of subset s.  One
    (L, L) circulant table, row a holding i tan((a + j) pi / L) for every
    shift j, serves the whole batch; each subset column multiplies in as one
    gather of table rows, so temporaries stay O(S L).
    """
    L = _check_L(L, MAX_TANGENT_L, "the tangent sum")
    idx = _check_subsets(L, subsets)
    out = _shift_products(L, idx.reshape(-1, idx.shape[-1]), np.arange(L))
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
    L = _check_L(L, MAX_VIETA_L, "the subset sum")
    k = check_int(k, f"k must be in 0..{L}")
    if not 0 <= k <= L:
        raise ValueError(f"k must be in 0..{L}, got {k}")
    return _shift_products(L, combinations_array(L, k), np.zeros(1, dtype=np.int64))[:, 0]


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
