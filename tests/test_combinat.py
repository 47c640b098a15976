"""Unit tests for the tiling enumeration and tangent-identity oracles."""

import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from fpsearch import combinat, verify
from fpsearch.combinat import (
    MAX_ENUM_L,
    MAX_TANGENT_L,
    MAX_VIETA_L,
    WeightModel,
    _row_weights,
    _shift_products,
    combinations_array,
    coefficient_compare,
    enumerate_tilings,
    reflect,
    rotation_orbit,
    star_line_partition,
    tangent_prefix_terms,
    tangent_sum_terms,
    tiling_weight,
    vieta_terms,
)
from fpsearch.complexpoly import QuasiChebParams, chebyshev_T, n_poly_coeffs, tan_table
from fpsearch.verify import COEFF_TOL

LUCAS = {3: 4, 5: 11, 7: 29, 9: 76, 11: 199, 13: 521, 15: 1364}


def _row(L, dominoes=()):
    # one tiling as a bool row: bit d marks the domino on <d, d-1>
    row = np.zeros(L, dtype=bool)
    row[list(dominoes)] = True
    return row


def _masks(bits):
    return bits @ (1 << np.arange(bits.shape[-1]))


def _squares(row):
    # the positions no domino covers: a domino at d covers d and d-1
    L = len(row)
    return [p for p in range(L) if not row[p] and not row[(p + 1) % L]]


class TestTiling:
    def test_rejects_overlapping_dominoes(self):
        # every public map reads its bit rows through one check
        bad = (
            _row(5, {1, 2}),  # both dominoes cover position 1
            _row(5, {0, 4}),  # the wrapping domino <0, 4> meets the one on <4, 3>
            np.stack([_row(5), _row(5, {2, 3})]),  # one bad row in a matrix
            np.array([0, 1, 0, 0, 0]),  # 0/1 integers are not bits
            np.zeros(5),
            np.zeros(4, dtype=bool),  # L must be odd and at least 3
            np.zeros(1, dtype=bool),
            np.zeros((), dtype=bool),  # one row or a matrix of rows, nothing else
            np.zeros((2, 2, 5), dtype=bool),
            [[True, False, False], [False]],
        )
        model = WeightModel(w=0.5, x=1.0)
        for bits in bad:
            with pytest.raises(ValueError):
                tiling_weight(bits, model)
            with pytest.raises(ValueError):
                rotation_orbit(bits, 1)
        # the shift is an integer; it is never truncated
        for j in (1.0, 1.5, True):
            with pytest.raises(ValueError):
                rotation_orbit(_row(5, {2}), j)
        assert np.array_equal(rotation_orbit([False, True, False, False, False], np.int64(6)), _row(5, {2}))
        # any integer is a rotation, by j mod L, also past the int64 range
        star = enumerate_tilings(7, wrap=True)
        for j in (2**70, -(2**70), np.uint64(2**63)):
            assert np.array_equal(rotation_orbit(star, j), rotation_orbit(star, int(j) % 7))
        # a ragged list, which numpy cannot shape, is named with the rule it breaks
        ragged = [[True, False, False], [False]]
        for read in (lambda b: tiling_weight(b, model), lambda b: rotation_orbit(b, 1), reflect):
            with pytest.raises(ValueError, match=re.escape(f"tilings must be a bool array, got {ragged!r}")):
                read(ragged)

    def test_pieces_cover_every_position_once(self):
        for L in (3, 7, 9):
            for row in enumerate_tilings(L, wrap=True):
                dominoes = np.flatnonzero(row)
                covered = [*dominoes, *((dominoes - 1) % L), *_squares(row)]
                assert sorted(covered) == list(range(L))

    def test_wrap_flag(self):
        # the wrap domino <0, L-1> is bit 0: the star rows that set it are the ones the line lacks
        for L in (3, 5, 9):
            star, line = enumerate_tilings(L, wrap=True), enumerate_tilings(L, wrap=False)
            assert not line[:, 0].any()
            assert np.array_equal(star[~star[:, 0]], line)


class TestEnumeration:
    def test_line_count_smallest(self):
        line = enumerate_tilings(3, wrap=False)
        assert line.dtype == bool and line.shape == (3, 3)

    def test_star_count_smallest(self):
        assert enumerate_tilings(3, wrap=True).shape == (4, 3)

    def test_counts_match_reference(self):
        # distinct tilings, in increasing mask order
        for L, count in LUCAS.items():
            masks = _masks(enumerate_tilings(L, wrap=True))
            assert len(masks) == count
            assert np.all(np.diff(masks) > 0)

    def test_line_domino_census(self):
        # exactly C(L - k, k) line tilings carry k dominos
        for L in (3, 5, 9, 15):
            dominoes = enumerate_tilings(L, wrap=False).sum(axis=1)
            for k in range(L // 2 + 1):
                assert np.count_nonzero(dominoes == k) == math.comb(L - k, k)

    def test_two_domino_star_instance_present(self):
        # the 5-star tiling with dominos on <2,1> and <0,4> and a square on <3>
        tilings = enumerate_tilings(5, wrap=True)
        target = _row(5, {0, 2})
        assert any(np.array_equal(row, target) for row in tilings)
        assert _squares(target) == [3]
        assert np.count_nonzero(tilings.sum(axis=1) == 2) == 5

    def test_capability_bounds(self):
        for L in (1, 2, 4, 17, 9.0):
            with pytest.raises(ValueError):
                enumerate_tilings(L, wrap=True)

    def test_matches_per_mask_loop(self):
        # reference: test every domino bitmask in increasing order, one at a time
        for L in range(3, 16, 2):
            full = (1 << L) - 1
            for wrap in (True, False):
                expected = []
                for mask in range(1 << L):
                    if not wrap and mask & 1:
                        continue
                    if mask & (((mask << 1) | (mask >> (L - 1))) & full):
                        continue
                    expected.append([bool(mask >> i & 1) for i in range(L)])
                assert np.array_equal(enumerate_tilings(L, wrap=wrap), np.array(expected))


class TestTilingWeight:
    def test_all_squares(self):
        model = WeightModel(w=0.6, x=0.7)
        assert tiling_weight(_row(5), model) == pytest.approx((2.0 * 0.7) ** 5)

    def test_two_domino_instance(self):
        # 2x (1 - i t_2)(1 + i t_1)(1 - i t_0)(1 + i t_4), t_n = w tan(n pi / 5)
        w, x = 0.6, 0.7
        t = [w * math.tan(n * math.pi / 5.0) for n in range(5)]
        expected = (
            2.0 * x * (1.0 - 1j * t[2]) * (1.0 + 1j * t[1]) * (1.0 - 1j * t[0]) * (1.0 + 1j * t[4])
        )
        got = tiling_weight(_row(5, {0, 2}), WeightModel(w=w, x=x))
        assert abs(got - expected) <= 1e-14

    def test_modified_square_weight(self):
        model = WeightModel(w=0.0, x=0.5, modified=True)
        # position 0 contributes x, the others 2x
        assert tiling_weight(_row(3), model) == pytest.approx(0.5 * 1.0 * 1.0)

    def test_matches_per_piece_product(self):
        # reference: the product of the piece weights taken one piece at a time
        L, w, x = 7, 0.6, -0.7
        t = [math.tan(n * math.pi / L) for n in range(L)]
        tilings = enumerate_tilings(L, wrap=True)
        # position 0 is covered by the domino at 1 (<1, 0>) or by the wrap domino at 0 (<0, 6>)
        assert tilings[:, 1].any() and tilings[:, 0].any()
        for modified in (False, True):
            model = WeightModel(w=w, x=x, modified=modified)
            for row in tilings:
                ref = complex(1.0)
                for p in _squares(row):
                    ref *= x if (modified and p == 0) else 2.0 * x
                for d in np.flatnonzero(row):
                    ref *= -(1.0 - 1j * w * t[d]) * (1.0 + 1j * w * t[(d - 1) % L])
                assert abs(tiling_weight(row, model) - ref) <= 1e-14 * abs(ref)

    def test_batch_matches_single_rows(self):
        # bit for bit: a matrix is weighed in one pass, each row as it would be alone
        models = (
            WeightModel(w=0.6, x=-0.7),
            WeightModel(w=0.3, x=0.5, modified=True),
            WeightModel(w=0.45, x=1.1),
        )
        for L in range(3, 16, 2):
            for wrap in (True, False):
                bits = enumerate_tilings(L, wrap=wrap)
                for model in models:
                    batch = tiling_weight(bits, model)
                    single = [tiling_weight(row, model) for row in bits]
                    assert batch.shape == (len(bits),) and batch.dtype == np.complex128
                    assert all(type(value) is complex for value in single)
                    assert np.array_equal(batch, single)

    # one message per input, for a type failure and a range failure alike
    RULES = {"w": "w must be a real number in [0, 1)", "x": "x must be a real number in [-10, 10]"}

    @pytest.mark.parametrize("field", ["w", "x"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_w_and_x(self, field, bad):
        # a NaN w would weigh every tiling nan+nanj, with no error
        values = {"w": 0.5, "x": 0.5, field: bad}
        with pytest.raises(ValueError, match=re.escape(f"{self.RULES[field]}, got {bad!r}")):
            WeightModel(**values)

    @pytest.mark.parametrize("field", ["w", "x"])
    @pytest.mark.parametrize("bad", ["0.5", 0.5 + 0.3j, None, [0.5, [0.5]]])
    def test_rejects_non_real_w_and_x(self, field, bad):
        values = {"w": 0.5, "x": 0.5, field: bad}
        with pytest.raises(ValueError, match=re.escape(f"{self.RULES[field]}, got {bad!r}")):
            WeightModel(**values)

    @pytest.mark.parametrize("field, bad", [("w", 1e200), ("x", 1e200), ("w", -0.1), ("w", 1.0), ("x", 11)])
    def test_rejects_out_of_range_w_and_x(self, field, bad):
        # unbounded, x = 1e200 overflows (2x)^2 with an OverflowError and w = 1e200 weighs tilings inf and NaN
        values = {"w": 0.5, "x": 0.5, field: bad}
        with pytest.raises(ValueError, match=re.escape(f"{self.RULES[field]}, got {bad!r}")):
            WeightModel(**values)

    def test_rejects_more_positions_than_enumeration(self):
        # the weight bound holds up to MAX_ENUM_L positions, so a 17-bit row is refused
        with pytest.raises(ValueError, match=f"tiling_weight supports odd L in 3..{MAX_ENUM_L}, got 17"):
            tiling_weight(_row(17, {3}), WeightModel(w=0.5, x=1.0))

    def test_weights_stay_finite_at_the_bounds(self):
        # at |x| = 10 every square weighs 20 and a domino less than 20^2, so no weight passes 20^15
        star = enumerate_tilings(MAX_ENUM_L, wrap=True)
        for x in (-10.0, 10.0):
            weights = tiling_weight(star, WeightModel(w=np.nextafter(1.0, 0.0), x=x))
            assert np.all(np.isfinite(weights))
            assert np.max(np.abs(weights)) <= 20.0**MAX_ENUM_L * (1.0 + 1e-12)


def _total(L, gamma, x, wrap):
    # all variant-A tiling weights of the star (wrap) or of the cut-open line, summed
    model = WeightModel(w=math.sqrt(1.0 - gamma * gamma), x=x, modified=not wrap)
    return complex(np.sum(tiling_weight(enumerate_tilings(L, wrap), model)))


def _numerator(L, gamma, x):
    return complex(npoly.polyval(x, n_poly_coeffs(QuasiChebParams(gamma=gamma, L=L))))


class TestWeightTotals:
    def test_domain(self):
        for wrap in (True, False):
            with pytest.raises(ValueError, match="got 9.0"):
                enumerate_tilings(9.0, wrap)

    def test_star_gamma_one_is_chebyshev(self):
        for x in np.linspace(-1.0, 1.0, 9):
            got = _total(3, 1.0, float(x), wrap=True)
            assert abs(got - 2.0 * chebyshev_T(3, float(x))) <= 1e-12

    def test_star_matches_numerator(self):
        got = _total(5, 0.8, 0.3, wrap=True)
        ref = 2.0 * _numerator(5, 0.8, 0.3)
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_star_at_one_is_denominator(self):
        got = _total(7, 0.5, 1.0, wrap=True)
        ref = 2.0 * 0.5**7 * chebyshev_T(7, 2.0)
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_line_gamma_one_is_chebyshev(self):
        for x in np.linspace(-1.0, 1.0, 9):
            got = _total(3, 1.0, float(x), wrap=False)
            assert abs(got - chebyshev_T(3, float(x))) <= 1e-12

    def test_line_matches_numerator(self):
        got = _total(5, 0.9, 0.25, wrap=False)
        ref = _numerator(5, 0.9, 0.25)
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_line_odd_in_x(self):
        assert abs(_total(3, 0.7, 0.0, wrap=False)) <= 1e-12

    def test_totals_match_per_tiling_sum(self):
        # only the summation order differs from adding tiling_weight one tiling at a time,
        # so the gap is bounded relative to the summed magnitudes, not to the (cancelling) total
        for L in range(3, 12, 2):
            for gamma in (0.3, 0.7, 1.0):
                w = math.sqrt(1.0 - gamma * gamma)
                for x in (-0.6, 0.2, 0.5, 1.0):
                    for wrap in (True, False):
                        model = WeightModel(w=w, x=x, modified=not wrap)
                        weights = [tiling_weight(t, model) for t in enumerate_tilings(L, wrap=wrap)]
                        scale = sum(abs(v) for v in weights)
                        assert abs(_total(L, gamma, x, wrap) - sum(weights)) <= 1e-12 * scale

    def test_grid_against_numerator(self):
        # the star = 2 N_L and line = N_L grid over L = 3..11, gamma in {0.3, 0.7, 1}, x in {0.2, 0.5, 1}
        result = verify.check_weight_totals(11)
        assert result.L == 11
        assert result.max_deviation <= 1e-9
        assert result.passed


class TestCoefficientCompare:
    def test_no_dominoes_trivial(self):
        # the one all-square tiling, squares weighing 2: a constant 2^5 in both variants
        coeffs_a, coeffs_b = coefficient_compare(5)
        assert coeffs_a.shape == coeffs_b.shape == (3, 5)
        assert np.array_equal(coeffs_a[0], [2.0**5, 0, 0, 0, 0])
        assert np.array_equal(coeffs_b[0], coeffs_a[0])

    def test_two_dominoes(self):
        coeffs_a, coeffs_b = coefficient_compare(5)
        # row n_d = 2: degree 2 n_d = 4 in w
        row_a, row_b = coeffs_a[2], coeffs_b[2]
        assert np.max(np.abs(row_a - row_b)) <= COEFF_TOL
        assert np.max(np.abs(row_a[1::2])) <= COEFF_TOL
        # constant term counts the 5 two-domino tilings, times the square weight
        assert row_a[0].real == pytest.approx(10.0, abs=1e-9)

    def test_reference_case(self):
        # row n_d = 3 of L = 9: the tilings with 3 squares
        coeffs_a, coeffs_b = coefficient_compare(9)
        assert np.max(np.abs(coeffs_a[3] - coeffs_b[3])) <= COEFF_TOL
        assert np.max(np.abs(coeffs_a[3, 1::2])) <= COEFF_TOL

    def test_exact_reference(self):
        # variant B weighs each of the `count` tilings 2^{n_s} (w^2 - 1)^{n_d}, so its
        # coefficients are binomials; every variant-A domino has constant term -1
        for L in range(3, 12, 2):
            coeffs_a, coeffs_b = coefficient_compare(L)
            for n_d in range(L // 2 + 1):
                n_s = L - 2 * n_d
                count = np.count_nonzero(enumerate_tilings(L, wrap=True).sum(axis=1) == n_d)
                expected_b = np.zeros(L)
                for j in range(n_d + 1):
                    expected_b[2 * j] = count * 2**n_s * math.comb(n_d, j) * (-1) ** (n_d - j)
                assert np.array_equal(coeffs_b[n_d], expected_b)
                assert coeffs_a[n_d, 0] == count * 2**n_s * (-1) ** n_d

    @pytest.mark.parametrize("L", range(3, combinat.MAX_COMPARE_L + 1, 2))
    def test_rows_sum_row_weights_of_their_tilings(self, L):
        # bit for bit: row n_d is np.sum over the rows of the n_d-domino tilings alone,
        # in enumeration order; a sum in another order, such as a one-hot matrix
        # product over all tilings, fails here at L = 11
        star = enumerate_tilings(L, wrap=True)
        for variant, table in zip("AB", coefficient_compare(L)):
            assert table.shape == (L // 2 + 1, L)
            for n_d, row in enumerate(table):
                bits = star[star.sum(axis=1) == n_d]
                weights = _row_weights(bits, combinat._domino_table(L, variant), 1.0, False)
                assert np.array_equal(row, np.sum(weights, axis=0))
                assert np.all(row[2 * n_d + 1 :] == 0.0)

    def test_full_grid(self):
        # every domino count at L = 3..9, judged by the verify check
        result = verify.check_coefficient_compare(9)
        assert result.L == 9
        assert result.passed

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            coefficient_compare(13)
        with pytest.raises(ValueError, match="got 9.0"):
            coefficient_compare(9.0)


class TestTangentSum:
    def test_reference_instance(self):
        assert abs(tangent_sum_terms(5, (0, 2)).sum() - 5.0) <= 1e-10

    def test_single_element_cancels(self):
        assert abs(tangent_sum_terms(5, (0,)).sum()) <= 1e-12

    def test_odd_subset_vanishes(self):
        terms = tangent_sum_terms(7, (1, 2, 3))
        assert abs(terms.sum()) <= 1e-10 * np.max(np.abs(terms))

    def test_full_subset_exactly_zero(self):
        assert tangent_sum_terms(9, range(9)).sum() == 0.0

    def test_size_l_minus_one_reduces_to_subset_sum(self):
        for L in (5, 7, 9):
            subset = [n for n in range(L) if n != 3]
            every_subset = list(vieta_terms(L))[L - 1]
            assert abs(tangent_sum_terms(L, subset).sum() - every_subset.sum()) <= 1e-9

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            tangent_sum_terms(5, (1, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tangent_sum_terms(5, (0, 5))

    def test_rejects_fractional_entries(self):
        with pytest.raises(ValueError):
            tangent_sum_terms(5, (0.5, 2))

    def test_batch_rejects_duplicates(self):
        with pytest.raises(ValueError):
            tangent_sum_terms(5, np.array([[0, 1], [2, 2]]))

    def test_batch_rejects_out_of_range(self):
        for bad in ([[0, 1], [4, 5]], [[0, 1], [-1, 2]]):
            with pytest.raises(ValueError):
                tangent_sum_terms(5, np.array(bad))

    def test_batch_rejects_malformed_input(self):
        malformed = ([[0, 1], [2]], np.zeros((2, 2, 2), dtype=int), np.zeros((3, 0), dtype=int), [[0.5, 1.0]])
        # entries are never truncated, not even integral floats
        for bad in (*malformed, [[1.0, 2.0]], np.array([2.0, 3.0])):
            with pytest.raises(ValueError):
                tangent_sum_terms(5, bad)

    def test_rejects_scalar_subsets(self):
        # a scalar is not a sequence of entries, so list() of it cannot read it
        with pytest.raises(ValueError, match="rectangular"):
            tangent_sum_terms(5, 3)
        with pytest.raises(ValueError, match="rectangular"):
            tangent_sum_terms(5, None)

    def test_batch_rows_match_single_calls(self):
        rng = np.random.default_rng(11)
        for L in (3, 9, 25):
            for k in (1, 2, L // 2, L):
                batch = np.array([rng.choice(L, size=k, replace=False) for _ in range(7)])
                terms = tangent_sum_terms(L, batch)
                assert terms.shape == (7, L)
                for row, subset in zip(terms, batch):
                    assert np.array_equal(row, tangent_sum_terms(L, list(subset)))

    def test_identity_exhaustive_small(self):
        for L in (3, 5, 7):
            for k in range(1, L + 1):
                expected = float(L) if k % 2 == 0 else 0.0
                for subset in combinations(range(L), k):
                    terms = tangent_sum_terms(L, subset)
                    tol = 1e-6 * max(np.max(np.abs(terms)), 1e-30)
                    gap = abs(terms.sum() - expected)
                    assert gap <= tol or gap == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(min_value=-1.4, max_value=1.4),
        y=st.floats(min_value=-1.4, max_value=1.4),
    )
    def test_tangent_subtraction_identity(self, x, y):
        # tan x - tan y = tan(x - y) (1 - i tan x * i tan y), away from poles
        if abs(abs(x - y) - math.pi / 2.0) < 0.05:
            return
        lhs = math.tan(x) - math.tan(y)
        rhs = math.tan(x - y) * (1.0 - (1j * math.tan(x)) * (1j * math.tan(y)))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


class TestVietaSum:
    def test_empty_product(self):
        assert vieta_terms(5)[0].sum() == 1.0

    def test_reference_binomial(self):
        assert abs(list(vieta_terms(5))[2].sum() - 10.0) <= 1e-9

    def test_odd_size_vanishes(self):
        terms = list(vieta_terms(7))[5]
        assert abs(terms.sum()) <= 1e-6 * np.sum(np.abs(terms))

    def test_identity_grid(self):
        for L in (3, 5, 7, 9, 11):
            for k, terms in enumerate(vieta_terms(L)):
                expected = math.comb(L, k) if k % 2 == 0 else 0.0
                scale = max(1.0, float(np.sum(np.abs(terms))))
                assert abs(terms.sum() - expected) / scale <= 1e-6

    def test_terms_match_per_combination_product(self):
        for L in range(3, 12, 2):
            t = 1j * np.tan(np.arange(L) * math.pi / L)
            for k, terms in enumerate(vieta_terms(L)):
                ref = np.array([np.prod(t[list(comb)]) for comb in combinations(range(L), k)])
                np.testing.assert_allclose(terms, ref, rtol=1e-14, atol=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            vieta_terms(17)
        with pytest.raises(ValueError, match="got 9.0"):
            vieta_terms(9.0)
        # the subset size is read where it is an argument, by combinations_array
        with pytest.raises(ValueError, match=r"k must be in 0\.\.5, got 6"):
            combinations_array(5, 6)

    @pytest.mark.parametrize(
        "L, k", [(5, 2.0), (5.0, 2), (5, True), (2**70, 1), (5, 6), (5, -1), (4, 1), (27, 1)]
    )
    def test_combinations_array_rejects_bad_counts(self, L, k):
        # counts are read by check_int, never truncated, and L and k must lie in range
        with pytest.raises(ValueError):
            combinations_array(L, k)


def _add_modulo_gather(L, rows, shifts):
    # the shift-product loop before the circulant table: each subset column
    # adds the shifts, reduces the sum mod L and gathers from the tangent table
    t = 1j * tan_table(L)
    out = np.ones((rows.shape[0], len(shifts)), dtype=complex)
    for column in rows.T:
        out *= t[(column[:, None] + shifts) % L]
    return out


class TestShiftProducts:
    @pytest.mark.parametrize("L", range(3, MAX_TANGENT_L + 1, 2))
    def test_matches_add_modulo_gather(self, L):
        # bit-identical: the same factors, multiplied in the same order; one
        # running product yields the products of every column prefix
        rng = np.random.default_rng(L)
        orders = rng.permuted(np.tile(np.arange(L), (40, 1)), axis=1)
        # kept in a list: a later prefix must not overwrite an earlier one
        prefixes = list(_shift_products(L, orders))
        assert len(prefixes) == L
        sizes = list(vieta_terms(L)) if L <= MAX_VIETA_L else None
        for k in range(L + 1):
            rows = orders[:, :k]
            if k:
                reference = _add_modulo_gather(L, rows, np.arange(L))
                assert np.array_equal(prefixes[k - 1], reference)
                assert np.array_equal(tangent_sum_terms(L, rows), reference)
            if L <= MAX_VIETA_L:
                every_subset = combinations_array(L, k).astype(np.int64)
                reference = _add_modulo_gather(L, every_subset, np.zeros(1, dtype=np.int64))[:, 0]
                assert np.array_equal(sizes[k], reference)


class TestTangentPrefixTerms:
    @pytest.mark.parametrize("L", range(3, MAX_TANGENT_L + 1, 2))
    def test_matches_tangent_sum_terms_of_each_prefix(self, L):
        orders = np.random.default_rng(L).permuted(np.tile(np.arange(L), (30, 1)), axis=1)
        count = 0
        for k, terms in enumerate(tangent_prefix_terms(L, orders), 1):
            assert terms.shape == (30, L)
            assert np.array_equal(terms, tangent_sum_terms(L, orders[:, :k]))
            count += 1
        assert count == L

    def test_rejects_bad_input_when_called(self):
        # checked once, before the first product, not when the iterator is first read
        for bad in ([[0, 1], [2, 2]], [[0, 5]], [[0.5, 1.0]], [0, 1], np.zeros((2, 2, 2), dtype=int)):
            with pytest.raises(ValueError):
                tangent_prefix_terms(5, bad)
        with pytest.raises(ValueError):
            tangent_prefix_terms(27, [[0, 1]])


class TestVietaBySize:
    @pytest.mark.parametrize("L", range(3, MAX_VIETA_L + 1, 2))
    def test_matches_per_k_products_over_combinations(self, L):
        # bit-identical to multiplying i tan(d pi / L) column by column over the
        # itertools-ordered subsets, one k at a time
        t = 1j * tan_table(L)
        sizes = list(vieta_terms(L))
        assert len(sizes) == L + 1
        for k, terms in enumerate(sizes):
            rows = combinations_array(L, k)
            reference = np.ones(len(rows), dtype=complex)
            for column in rows.T:
                reference = reference * t[column]
            assert terms.dtype == np.complex128
            assert np.array_equal(terms, reference)

    def test_rejects_bad_L_when_called(self):
        for bad in (17, 4, 1, 5.0):
            with pytest.raises(ValueError):
                vieta_terms(bad)


class TestRotationsAndReflection:
    def test_zero_shift_identity(self):
        tiling = _row(5, {0, 2})
        assert np.array_equal(rotation_orbit(tiling, 0), tiling)
        star = enumerate_tilings(5, wrap=True)
        assert np.array_equal(rotation_orbit(star, 0), star)

    def test_reference_shift(self):
        shifted = rotation_orbit(_row(5, {0, 2}), 1)
        assert np.flatnonzero(shifted).tolist() == [1, 3]

    def test_group_action(self):
        tiling = _row(7, {1, 4})
        star = enumerate_tilings(7, wrap=True)
        for j in range(7):
            assert np.array_equal(rotation_orbit(rotation_orbit(tiling, j), 7 - j), tiling)
            for k in range(7):
                assert np.array_equal(rotation_orbit(rotation_orbit(star, j), k), rotation_orbit(star, j + k))

    def test_orbit_partition(self):
        # reference: collect each orbit as a set of masks, one tiling at a time
        for L in (3, 5, 7, 9):
            star = enumerate_tilings(L, wrap=True)
            seen = set()
            for row in star:
                if int(_masks(row)) in seen:
                    continue
                orbit = {int(_masks(rotation_orbit(row, j))) for j in range(L)}
                assert not orbit & seen
                seen |= orbit
            assert seen == set(_masks(star).tolist())

    def test_reflection_involution(self):
        # the domino at d goes to L - d + 1 (mod L): here 1 -> 0 and 4 -> 4
        assert np.array_equal(reflect(_row(7, {1, 4})), _row(7, {0, 4}))
        for L in (3, 5, 7, 9):
            star = enumerate_tilings(L, wrap=True)
            assert np.array_equal(reflect(reflect(star)), star)
            assert np.array_equal(np.sort(_masks(reflect(star))), _masks(star))

    def test_reflection_preserves_variant_a_weight(self):
        model = WeightModel(w=0.45, x=0.9)
        for L in (5, 7, 9):
            star = enumerate_tilings(L, wrap=True)
            assert np.all(np.abs(tiling_weight(star, model) - tiling_weight(reflect(star), model)) <= 1e-10)


class TestStarLineBijection:
    def test_partition_shapes(self):
        parts = star_line_partition(5)
        line = enumerate_tilings(5, wrap=False)
        split = np.concatenate([parts["square_at_zero"], parts["line_domino"]])
        assert np.array_equal(np.sort(_masks(split)), _masks(line))
        # the reflected part is exactly the wrap tilings
        star = enumerate_tilings(5, wrap=True)
        assert np.array_equal(np.sort(_masks(parts["wrap_domino"])), _masks(star[star[:, 0]]))

    def test_set_equality(self):
        # L = 3..11, judged by the verify check
        result = verify.check_bijection(11)
        assert result.L == 11
        assert result.passed
