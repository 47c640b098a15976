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
``tiling_weight`` weighs variant A; variant B appears only in
``coefficient_compare``, which returns both coefficient tables, one row per
domino count.
A tiling is a bool row, bit d marking a domino on <d, d-1>; a rotation or the
reflection of a whole (tilings, L) bit matrix is one column gather, and every
weight, a value at one w or the exact coefficients in w (the domino quadratics
multiplied out, not fitted), is one row product over the matrix.  Everything
here is verified by brute-force enumeration at desk scale, not by re-proving
the identities.  This module computes; ``verify`` judges the results.
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


def _check_L(L: int, cap: int, what: str) -> int:
    return check_odd(L, 3, cap, f"{what} supports odd L in 3..{cap}")


@functools.lru_cache(maxsize=64)
def _domino_table(L: int, variant: str, w: float | None = None) -> np.ndarray:
    # the domino on <d, d-1> weighs -(1 + p w)(1 + q w): p = -i t(d) and
    # q = i t(d-1) in variant A, p = -1 and q = 1 in variant B.  Row d holds
    # that weight at w, or its coefficients in w when w is None.  Cached
    # read-only, because one weight model serves every tiling of a check
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
    """Every k-subset of [L], k in 0..L, as one row of a (binom(L, k), k) array, in itertools order."""
    L = _check_L(L, MAX_TANGENT_L, "combinations_array")
    k = check_int(k, f"k must be in 0..{L}")
    if not 0 <= k <= L:
        raise ValueError(f"k must be in 0..{L}, got {k}")
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
    """Variant-A weight assignment for tiling pieces.

    Squares weigh 2x, or x at position 0 when ``modified`` is set (the
    cut-open line convention).  Dominos take the variant-A weight, with w
    standing in for sqrt(1 - gamma^2), so w lies in [0, 1); |x| <= 10, the
    bound of ``quasi_cheb_recursive``.  Within these bounds and L <= 15 no
    tiling weighs more than 20^15, about 3.3e19, in magnitude.
    """

    w: float
    x: float
    modified: bool = False

    def __post_init__(self):
        for name in ("w", "x"):
            value = getattr(self, name)
            real = check_real(value, f"{name} must be a finite real number")
            if real.ndim or not math.isfinite(real):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.w < 1.0:
            raise ValueError(f"w must be in [0, 1), got {self.w}")
        if not abs(self.x) <= 10.0:
            raise ValueError(f"x must be in [-10, 10], got {self.x}")


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
    L is capped at ``MAX_ENUM_L``, as in ``enumerate_tilings``.
    """
    bits, L = _read_bits(bits)
    _check_L(L, MAX_ENUM_L, "tiling_weight")
    dom = _domino_table(L, "A", model.w)
    weights = _row_weights(bits.reshape(-1, L), dom, model.x, model.modified)[:, 0]
    return weights if bits.ndim == 2 else complex(weights[0])


def coefficient_compare(L: int) -> tuple:
    """The variant A and B total weights of the star tilings, by domino count, in w.

    Returns ``(coeffs_a, coeffs_b)``, two complex (L // 2 + 1, L) tables,
    lowest power first, squares weighing 2: row n_d totals the tilings with
    n_d dominos, and is zero past the power 2 n_d.  The identity says the
    tables agree coefficient by coefficient and every odd power of w
    vanishes; ``verify`` checks that.  The coefficients are exact
    expansions, not fits: each tiling's domino quadratics are multiplied
    out, one domino column of all tilings at a time, from one enumeration
    per table, and each row sums its tilings' products.
    """
    L = _check_L(L, MAX_COMPARE_L, "coefficient comparison")
    bits = enumerate_tilings(L, wrap=True)
    n_d = bits.sum(axis=1)
    tables = []
    for variant in "AB":
        weights = _row_weights(bits, _domino_table(L, variant), 1.0, False)
        tables.append(np.stack([np.sum(weights[n_d == k], axis=0) for k in range(L // 2 + 1)]))
    return tuple(tables)


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


def vieta_terms(L: int):
    """Products prod i tan(d pi / L) over every k-subset of [L], for k = 0..L in turn.

    Yields one array per size k, its subsets in itertools order, all from
    one pass over the 2^L subsets.  The real products prod tan(d pi / L) of
    every subset are built by doubling: element d = 0, 1, .. joins as the
    new lowest bit of the subset mask (bit L-1-d), so each product
    multiplies its tangents in increasing d, and the size-k masks taken
    largest-first come in itertools order.  Each size's products are then
    multiplied by i^k, which gives the same values as multiplying the
    factors i tan(d pi / L) one by one.  L is checked when called.
    """
    L = _check_L(L, MAX_VIETA_L, "the subset sum")
    # the product and size of every subset mask, filled in place: element d
    # writes the odd multiples of 2^(L-1-d) from the entries before it
    t = tan_table(L)
    products, sizes = np.ones(1 << L), np.zeros(1 << L, dtype=np.uint8)
    for d in range(L):
        step = 1 << (L - d)
        np.multiply(products[::step], t[d], out=products[step // 2 :: step])
        np.add(sizes[::step], 1, out=sizes[step // 2 :: step])
    return (products[sizes == k][::-1] * (1 + 0j, 1j, -1 + 0j, -1j)[k % 4] for k in range(L + 1))


def rotation_orbit(bits, j: int) -> np.ndarray:
    """Shift every piece of each tiling by j positions around the circle: bit d moves to d + j."""
    bits, L = _read_bits(bits)
    j = check_int(j, "the shift j must be an integer") % L
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
    reproduces the star tilings exactly once each, which ``verify`` checks.
    """
    line = enumerate_tilings(L, wrap=False)
    on_one = line[:, 1]
    return {"square_at_zero": line[~on_one], "line_domino": line[on_one], "wrap_domino": reflect(line[on_one])}
