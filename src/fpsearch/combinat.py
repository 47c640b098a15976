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
A tiling is a bool row, bit d marking a domino on <d, d-1>; a rotation or the
reflection of a whole (tilings, L) bit matrix is one column gather, and every
weight, a value at one w or the exact coefficients in w (the domino quadratics
multiplied out, not fitted), is one row product over the matrix.  Everything
here is verified by brute-force enumeration at desk scale, not by re-proving
the identities.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexpoly import check_int, check_odd, check_real, tan_table

MAX_ENUM_L = 15
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


def _read_bits(bits) -> tuple:
    # one tiling (1-D) or a (tilings, L) matrix of them, and L; dominos overlap when
    # bits d and d+1 (mod L) are both set.  numpy itself rejects a ragged list
    arr = np.asarray(bits)
    if arr.dtype != bool:
        raise ValueError(f"tilings must be a bool array, got dtype {arr.dtype}")
    if arr.ndim not in (1, 2):
        raise ValueError(f"tilings must be 1-D or 2-D, got {arr.ndim} dimensions")
    L = check_odd(arr.shape[-1], 3, None, "tilings must have an odd number L >= 3 of positions")
    if (arr[..., :-1] & arr[..., 1:]).any() or (arr[..., -1] & arr[..., 0]).any():
        raise ValueError("overlapping dominoes: some tiling sets bits d and d+1 (mod L)")
    return arr, L


def enumerate_tilings(L: int, wrap: bool) -> np.ndarray:
    """All tilings of the L-star (wrap=True) or the cut-open L-line (wrap=False).

    Returns the (tilings, L) bool matrix, bit d of a row marking a domino on
    <d, d-1>: exhaustive and duplicate-free, in increasing order of the mask
    sum_d 2^d bit_d.  The line forbids bit 0, the domino covering <0, L-1>.
    """
    L = _check_L(L, MAX_ENUM_L, "enumeration")
    masks = np.arange(1 << L, dtype=np.int64)
    rotated = ((masks << 1) | (masks >> (L - 1))) & ((1 << L) - 1)
    valid = (masks & rotated) == 0
    if not wrap:
        valid &= (masks & 1) == 0
    return ((masks[valid, None] >> np.arange(L)) & 1).astype(bool)


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
        for name in ("w", "x"):
            value = getattr(self, name)
            real = check_real(value, f"{name} must be a finite real number")
            if real.ndim or not math.isfinite(real):
                raise ValueError(f"{name} must be finite, got {value}")


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


def tiling_weight(bits, model: WeightModel):
    """Product of the piece weights of each tiling under ``model``.

    ``bits`` is one tiling (a bool row), giving a complex, or a (tilings, L)
    bit matrix, giving a (tilings,) array: every row is weighed in one pass.
    """
    bits, L = _read_bits(bits)
    dom = _domino_table(L, model.variant, model.w)
    weights = _row_weights(bits.reshape(-1, L), dom, model.x, model.modified)[:, 0]
    return weights if bits.ndim == 2 else complex(weights[0])


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
    bits = enumerate_tilings(L, wrap=True)
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
    try:
        if not isinstance(subsets, (np.ndarray, list, tuple)):
            subsets = list(subsets)
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


def _shift_products(L: int, rows: np.ndarray):
    # yields, after each column m of rows, the (S, L) products over columns
    # 0..m: out[s, j] = prod i tan((rows[s, m'] + j) pi / L), m' <= m.  Row a of
    # the (L, L) circulant table holds i tan((a + j) pi / L) for every shift j,
    # so each column multiplies in as one row gather.  Every column makes a
    # new array, so a yielded product is never overwritten by the next one
    t = 1j * tan_table(L)
    table = t[np.add.outer(np.arange(L), np.arange(L)) % L]
    out = np.ones((rows.shape[0], L), dtype=complex)
    for column in rows.T:
        out = out * table[column]
        yield out


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
    for out in _shift_products(L, idx.reshape(-1, idx.shape[-1])):
        pass
    return out if idx.ndim == 2 else out[0]


def tangent_prefix_terms(L: int, orders):
    """The shift products of every column prefix of ``orders``, from one running product.

    ``orders`` is an (S, m) integer array of S rows of m distinct entries of
    [L].  The returned iterator yields, for k = 1..m in turn, the (S, L)
    array ``tangent_sum_terms(L, orders[:, :k])``, bit for bit: the same
    factors multiply in the same order, but each prefix extends the one
    before it by one column.  Input is checked once, when called.
    """
    L = _check_L(L, MAX_TANGENT_L, "the tangent sum")
    idx = _check_subsets(L, orders)
    if idx.ndim != 2:
        raise ValueError(f"orders must be a 2-D (S, m) array, got {idx.ndim}-D input")
    return _shift_products(L, idx)


def tangent_sum(L: int, subset) -> complex:
    """Sum over all L cyclic shifts of the tangent product for ``subset``.

    Equals L when the subset size is even and 0 when it is odd.  Individual
    terms can be large while the sum is O(L); tolerances should be taken
    relative to the largest term magnitude.
    """
    return complex(tangent_sum_terms(L, subset).sum())


def _vieta_table(L: int):
    # products[mask] of every subset of [L], element d at bit L-1-d, and the
    # subset sizes: element d fills the odd multiples of 2^(L-1-d) from the
    # products of the elements before it, in place, so each product
    # multiplies its tangents in increasing d
    t = tan_table(L)
    products, sizes = np.ones(1 << L), np.zeros(1 << L, dtype=np.uint8)
    for d in range(L):
        step = 1 << (L - d)
        np.multiply(products[::step], t[d], out=products[step // 2 :: step])
        np.add(sizes[::step], 1, out=sizes[step // 2 :: step])
    return products, sizes


def _vieta_size(products: np.ndarray, sizes: np.ndarray, k: int) -> np.ndarray:
    # the size-k masks largest-first: the itertools order of the k-subsets
    return products[sizes == k][::-1] * (1 + 0j, 1j, -1 + 0j, -1j)[k % 4]


def vieta_terms_by_size(L: int):
    """``vieta_terms(L, k)`` for k = 0..L in turn, all from one pass over the 2^L subsets.

    The real products prod tan(d pi / L) of every subset are built by
    doubling: element d = 0, 1, .. joins as the new lowest bit of the subset
    mask (bit L-1-d), so each product multiplies its tangents in increasing
    d, and the size-k masks taken largest-first come in itertools order.
    Each size's products are then multiplied by i^k, which gives the same
    values as multiplying the factors i tan(d pi / L) one by one.
    """
    L = _check_L(L, MAX_VIETA_L, "the subset sum")
    products, sizes = _vieta_table(L)
    return (_vieta_size(products, sizes, k) for k in range(L + 1))


def vieta_terms(L: int, k: int) -> np.ndarray:
    """Products prod i tan(d pi / L) over every k-subset of [L], in itertools order.

    Taken from the one-pass table of ``vieta_terms_by_size``, for size k only.
    """
    L = _check_L(L, MAX_VIETA_L, "the subset sum")
    k = check_int(k, f"k must be in 0..{L}")
    if not 0 <= k <= L:
        raise ValueError(f"k must be in 0..{L}, got {k}")
    return _vieta_size(*_vieta_table(L), k)


def vieta_sum(L: int, k: int) -> complex:
    """Sum of the k-subset tangent products; equals binom(L, k) for even k, 0 for odd."""
    return complex(vieta_terms(L, k).sum())


def rotation_orbit(bits, j: int) -> np.ndarray:
    """Shift every piece of each tiling by j positions around the circle: bit d moves to d + j."""
    bits, L = _read_bits(bits)
    j = check_int(j, "the shift j must be an integer")
    return bits[..., (np.arange(L) - j) % L]


def reflect(bits) -> np.ndarray:
    """Mirror each tiling across the axis through position 0.

    Sends the square at n to L - n and the domino at n to L - n + 1; an
    involution that preserves variant-A weights.
    """
    bits, L = _read_bits(bits)
    return bits[..., (L + 1 - np.arange(L)) % L]


def star_line_partition(L: int) -> dict:
    """Split the star tilings into square-at-0, line-domino and wrap-domino parts.

    Returns the three bit matrices {f(A), B, g(B)}: line tilings whose
    position 0 carries a square, line tilings with the domino on <1, 0>, and
    the reflections of the latter (exactly the wrap tilings).  Their union
    must reproduce the star tilings exactly once each.
    """
    line = enumerate_tilings(L, wrap=False)
    on_one = line[:, 1]
    return {"square_at_zero": line[~on_one], "line_domino": line[on_one], "wrap_domino": reflect(line[on_one])}


def star_line_bijection_holds(L: int) -> bool:
    """Exact equality f(A) | B | g(B) == all star tilings, each exactly once.

    The star masks are distinct and sorted, so one comparison with the sorted
    masks of the three parts covers both disjointness and cover.
    """
    star = enumerate_tilings(L, wrap=True)
    place = 1 << np.arange(L)
    union = np.concatenate(list(star_line_partition(L).values()))
    return np.array_equal(np.sort(union @ place), star @ place)
