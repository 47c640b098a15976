"""Unit tests for the tiling enumeration and tangent-identity oracles."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsearch.combinat import (
    COEFF_TOL,
    MAX_TANGENT_L,
    MAX_VIETA_L,
    Tiling,
    WeightModel,
    _shift_products,
    combinations_array,
    coefficient_compare,
    enumerate_tilings,
    n_poly_value,
    reflect,
    rotation_orbit,
    star_line_bijection_holds,
    star_line_partition,
    tangent_sum,
    tangent_sum_terms,
    tiling_weight,
    total_line_weight,
    total_star_weight,
    vieta_sum,
    vieta_terms,
)
from fpsearch.complexpoly import chebyshev_T, tan_table

LUCAS = {3: 4, 5: 11, 7: 29, 9: 76, 11: 199, 13: 521, 15: 1364}


class TestTiling:
    def test_rejects_overlapping_dominoes(self):
        with pytest.raises(ValueError):
            Tiling(L=5, dominoes=frozenset({1, 2}))
        with pytest.raises(ValueError):
            Tiling(L=5, dominoes=frozenset({0, 4}))
        # positions and L must be integers; they are never truncated
        for L, dominoes in ((5, {2.9}), (5, {1.5}), (5, {2.0}), (5.5, set()), (5.0, set())):
            with pytest.raises(ValueError):
                Tiling(L=L, dominoes=frozenset(dominoes))
        assert Tiling(L=np.int64(5), dominoes=frozenset({np.int64(7)})) == Tiling(L=5, dominoes=frozenset({2}))

    def test_pieces_cover_every_position_once(self):
        for tiling in enumerate_tilings(7, wrap=True):
            covered = []
            for kind, pos in tiling.pieces:
                covered.append(pos)
                if kind == "domino":
                    covered.append((pos - 1) % 7)
            assert sorted(covered) == list(range(7))

    def test_wrap_flag(self):
        assert Tiling(L=5, dominoes=frozenset({0})).wraps()
        assert not Tiling(L=5, dominoes=frozenset({2})).wraps()


class TestEnumeration:
    def test_line_count_smallest(self):
        assert len(enumerate_tilings(3, wrap=False)) == 3

    def test_star_count_smallest(self):
        assert len(enumerate_tilings(3, wrap=True)) == 4

    def test_counts_match_reference(self):
        for L, count in LUCAS.items():
            star = enumerate_tilings(L, wrap=True)
            assert len(star) == count
            assert len(set(star)) == count

    def test_line_domino_census(self):
        # exactly C(L - k, k) line tilings carry k dominos
        for L in (3, 5, 9, 15):
            tilings = enumerate_tilings(L, wrap=False)
            for k in range(L // 2 + 1):
                assert sum(1 for t in tilings if len(t.dominoes) == k) == math.comb(L - k, k)

    def test_two_domino_star_instance_present(self):
        # the 5-star tiling with dominos on <2,1> and <0,4> and a square on <3>
        tilings = enumerate_tilings(5, wrap=True)
        target = Tiling(L=5, dominoes=frozenset({0, 2}))
        assert target in tilings
        assert target.squares == (3,)
        assert sum(1 for t in tilings if len(t.dominoes) == 2) == 5

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
                    expected.append(Tiling(L=L, dominoes=frozenset(i for i in range(L) if mask >> i & 1)))
                assert enumerate_tilings(L, wrap=wrap) == expected


class TestTilingWeight:
    def test_all_squares(self):
        tiling = Tiling(L=5, dominoes=frozenset())
        model = WeightModel(variant="A", w=0.6, x=0.7)
        assert tiling_weight(tiling, model) == pytest.approx((2.0 * 0.7) ** 5)

    def test_two_domino_instance(self):
        # 2x (1 - i t_2)(1 + i t_1)(1 - i t_0)(1 + i t_4), t_n = w tan(n pi / 5)
        w, x = 0.6, 0.7
        t = [w * math.tan(n * math.pi / 5.0) for n in range(5)]
        expected = (
            2.0 * x * (1.0 - 1j * t[2]) * (1.0 + 1j * t[1]) * (1.0 - 1j * t[0]) * (1.0 + 1j * t[4])
        )
        tiling = Tiling(L=5, dominoes=frozenset({0, 2}))
        got = tiling_weight(tiling, WeightModel(variant="A", w=w, x=x))
        assert abs(got - expected) <= 1e-14

    def test_single_domino_variant_b(self):
        for L in (5, 9):
            tiling = Tiling(L=L, dominoes=frozenset({3}))
            w, x = 0.4, 1.1
            got = tiling_weight(tiling, WeightModel(variant="B", w=w, x=x))
            assert got == pytest.approx((2.0 * x) ** (L - 2) * -(1.0 - w * w))

    def test_modified_square_weight(self):
        tiling = Tiling(L=3, dominoes=frozenset())
        model = WeightModel(variant="A", w=0.0, x=0.5, modified=True)
        # position 0 contributes x, the others 2x
        assert tiling_weight(tiling, model) == pytest.approx(0.5 * 1.0 * 1.0)

    def test_matches_per_piece_product(self):
        # reference: the product of the piece weights taken one piece at a time
        L, w, x = 7, 0.6, -0.7
        t = [math.tan(n * math.pi / L) for n in range(L)]
        tilings = enumerate_tilings(L, wrap=True)
        # position 0 is covered by the domino at 1 (<1, 0>) or by the wrap domino at 0 (<0, 6>)
        assert any(1 in tiling.dominoes for tiling in tilings)
        assert any(0 in tiling.dominoes for tiling in tilings)
        for variant in ("A", "B"):
            for modified in (False, True):
                model = WeightModel(variant=variant, w=w, x=x, modified=modified)
                for tiling in tilings:
                    ref = complex(1.0)
                    for p in tiling.squares:
                        ref *= x if (modified and p == 0) else 2.0 * x
                    for d in tiling.dominoes:
                        if variant == "A":
                            ref *= -(1.0 - 1j * w * t[d]) * (1.0 + 1j * w * t[(d - 1) % L])
                        else:
                            ref *= -(1.0 - w) * (1.0 + w)
                    assert abs(tiling_weight(tiling, model) - ref) <= 1e-14 * abs(ref)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            WeightModel(variant="C", w=0.5, x=1.0)


class TestWeightTotals:
    def test_domain(self):
        for total in (total_star_weight, total_line_weight):
            with pytest.raises(ValueError, match="got 9.0"):
                total(9.0, 0.5, 0.3)

    def test_star_gamma_one_is_chebyshev(self):
        for x in np.linspace(-1.0, 1.0, 9):
            got = total_star_weight(3, 1.0, float(x))
            assert abs(got - 2.0 * chebyshev_T(3, float(x))) <= 1e-12

    def test_star_matches_numerator(self):
        got = total_star_weight(5, 0.8, 0.3)
        ref = 2.0 * n_poly_value(5, 0.8, 0.3)
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_star_at_one_is_denominator(self):
        got = total_star_weight(7, 0.5, 1.0)
        ref = 2.0 * 0.5**7 * chebyshev_T(7, 2.0)
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_line_gamma_one_is_chebyshev(self):
        for x in np.linspace(-1.0, 1.0, 9):
            got = total_line_weight(3, 1.0, float(x))
            assert abs(got - chebyshev_T(3, float(x))) <= 1e-12

    def test_line_matches_numerator(self):
        got = total_line_weight(5, 0.9, 0.25)
        ref = n_poly_value(5, 0.9, 0.25)
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_line_odd_in_x(self):
        assert abs(total_line_weight(3, 0.7, 0.0)) <= 1e-12

    def test_totals_match_per_tiling_sum(self):
        # only the summation order differs from adding tiling_weight one tiling at a time,
        # so the gap is bounded relative to the summed magnitudes, not to the (cancelling) total
        for L in range(3, 12, 2):
            for gamma in (0.3, 0.7, 1.0):
                w = math.sqrt(1.0 - gamma * gamma)
                for x in (-0.6, 0.2, 0.5, 1.0):
                    for total, wrap in ((total_star_weight, True), (total_line_weight, False)):
                        model = WeightModel(variant="A", w=w, x=x, modified=not wrap)
                        weights = [tiling_weight(t, model) for t in enumerate_tilings(L, wrap=wrap)]
                        scale = sum(abs(v) for v in weights)
                        assert abs(total(L, gamma, x) - sum(weights)) <= 1e-12 * scale

    def test_grid_against_numerator(self):
        for L in (3, 5, 7, 9, 11):
            for gamma in (0.3, 0.7, 1.0):
                for x in (0.2, 0.5, 1.0):
                    ref = n_poly_value(L, gamma, x)
                    scale = 1.0 + abs(ref)
                    assert abs(total_star_weight(L, gamma, x) - 2.0 * ref) / scale <= 1e-9
                    assert abs(total_line_weight(L, gamma, x) - ref) / scale <= 1e-9


class TestCoefficientCompare:
    def test_no_dominoes_trivial(self):
        report = coefficient_compare(5, 5)
        assert report.n_dominoes == 0
        assert report.max_deviation <= 1e-10
        assert report.passes

    def test_two_dominoes(self):
        report = coefficient_compare(5, 1)
        assert report.n_dominoes == 2
        assert report.passes
        # constant term counts the 5 two-domino tilings, times the square weight
        assert report.coeffs_a[0].real == pytest.approx(10.0, abs=1e-9)

    def test_reference_case(self):
        report = coefficient_compare(9, 3)
        assert report.max_deviation <= COEFF_TOL
        assert report.max_odd_coefficient <= COEFF_TOL

    def test_exact_reference(self):
        # variant B weighs each of the `count` tilings 2^{n_s} (w^2 - 1)^{n_d}, so its
        # coefficients are binomials; every variant-A domino has constant term -1
        for L in range(3, 12, 2):
            for n_s in range(1, L + 1, 2):
                n_d = (L - n_s) // 2
                count = sum(1 for t in enumerate_tilings(L, wrap=True) if len(t.dominoes) == n_d)
                report = coefficient_compare(L, n_s)
                expected_b = np.zeros(2 * n_d + 1)
                for j in range(n_d + 1):
                    expected_b[2 * j] = count * 2**n_s * math.comb(n_d, j) * (-1) ** (n_d - j)
                assert np.array_equal(report.coeffs_b, expected_b)
                assert report.coeffs_a[0] == count * 2**n_s * (-1) ** n_d

    def test_full_grid(self):
        for L in (3, 5, 7, 9):
            for n_s in range(1, L + 1, 2):
                assert coefficient_compare(L, n_s).passes

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            coefficient_compare(5, 2)
        with pytest.raises(ValueError):
            coefficient_compare(13, 1)
        with pytest.raises(ValueError, match="got 3.0"):
            coefficient_compare(9, 3.0)


class TestTangentSum:
    def test_reference_instance(self):
        assert abs(tangent_sum(5, (0, 2)) - 5.0) <= 1e-10

    def test_single_element_cancels(self):
        assert abs(tangent_sum(5, (0,))) <= 1e-12

    def test_odd_subset_vanishes(self):
        value = tangent_sum(7, (1, 2, 3))
        max_term = np.max(np.abs(tangent_sum_terms(7, (1, 2, 3))))
        assert abs(value) <= 1e-10 * max_term

    def test_full_subset_exactly_zero(self):
        assert tangent_sum(9, range(9)) == 0.0

    def test_size_l_minus_one_reduces_to_subset_sum(self):
        for L in (5, 7, 9):
            subset = [n for n in range(L) if n != 3]
            assert abs(tangent_sum(L, subset) - vieta_sum(L, L - 1)) <= 1e-9

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            tangent_sum(5, (1, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tangent_sum(5, (0, 5))

    def test_rejects_fractional_entries(self):
        with pytest.raises(ValueError):
            tangent_sum(5, (0.5, 2))

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
        assert vieta_sum(5, 0) == 1.0

    def test_reference_binomial(self):
        assert abs(vieta_sum(5, 2) - 10.0) <= 1e-9

    def test_odd_size_vanishes(self):
        terms = vieta_terms(7, 5)
        assert abs(terms.sum()) <= 1e-6 * np.sum(np.abs(terms))

    def test_identity_grid(self):
        for L in (3, 5, 7, 9, 11):
            for k in range(L + 1):
                terms = vieta_terms(L, k)
                expected = math.comb(L, k) if k % 2 == 0 else 0.0
                scale = max(1.0, float(np.sum(np.abs(terms))))
                assert abs(terms.sum() - expected) / scale <= 1e-6

    def test_terms_match_per_combination_product(self):
        for L in range(3, 12, 2):
            t = 1j * np.tan(np.arange(L) * math.pi / L)
            for k in range(L + 1):
                ref = np.array([np.prod(t[list(comb)]) for comb in combinations(range(L), k)])
                np.testing.assert_allclose(vieta_terms(L, k), ref, rtol=1e-14, atol=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            vieta_sum(5, 6)
        with pytest.raises(ValueError):
            vieta_sum(17, 1)
        with pytest.raises(ValueError, match="got 2.0"):
            vieta_terms(9, 2.0)


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
        # bit-identical: the same factors, multiplied in the same order
        rng = np.random.default_rng(L)
        for k in range(L + 1):
            rows = rng.permuted(np.tile(np.arange(L), (40, 1)), axis=1)[:, :k]
            for shifts in (np.arange(L), np.zeros(1, dtype=np.int64)):
                assert np.array_equal(_shift_products(L, rows, shifts), _add_modulo_gather(L, rows, shifts))
            if k:
                assert np.array_equal(tangent_sum_terms(L, rows), _add_modulo_gather(L, rows, np.arange(L)))
            if L <= MAX_VIETA_L:
                every_subset = combinations_array(L, k).astype(np.int64)
                reference = _add_modulo_gather(L, every_subset, np.zeros(1, dtype=np.int64))[:, 0]
                assert np.array_equal(vieta_terms(L, k), reference)


class TestRotationsAndReflection:
    def test_zero_shift_identity(self):
        tiling = Tiling(L=5, dominoes=frozenset({0, 2}))
        assert rotation_orbit(tiling, 0) == tiling

    def test_reference_shift(self):
        shifted = rotation_orbit(Tiling(L=5, dominoes=frozenset({0, 2})), 1)
        assert shifted.dominoes == frozenset({1, 3})

    def test_group_action(self):
        tiling = Tiling(L=7, dominoes=frozenset({1, 4}))
        for j in range(7):
            assert rotation_orbit(rotation_orbit(tiling, j), 7 - j) == tiling

    def test_orbit_partition(self):
        for L in (3, 5, 7, 9):
            tilings = set(enumerate_tilings(L, wrap=True))
            seen = set()
            for tiling in tilings:
                if tiling in seen:
                    continue
                orbit = {rotation_orbit(tiling, j) for j in range(L)}
                assert not orbit & seen
                seen |= orbit
            assert seen == tilings

    def test_reflection_involution(self):
        for L in (3, 5, 7, 9):
            for tiling in enumerate_tilings(L, wrap=True):
                assert reflect(reflect(tiling)) == tiling

    def test_reflection_preserves_variant_a_weight(self):
        model = WeightModel(variant="A", w=0.45, x=0.9)
        for L in (5, 7, 9):
            for tiling in enumerate_tilings(L, wrap=True):
                mirrored = reflect(tiling)
                assert abs(tiling_weight(tiling, model) - tiling_weight(mirrored, model)) <= 1e-10


class TestStarLineBijection:
    def test_partition_shapes(self):
        parts = star_line_partition(5)
        line = set(enumerate_tilings(5, wrap=False))
        assert parts["square_at_zero"] | parts["line_domino"] == line
        # the reflected part is exactly the wrap tilings
        assert all(t.wraps() for t in parts["wrap_domino"])

    def test_set_equality(self):
        for L in (3, 5, 7, 9, 11):
            assert star_line_bijection_holds(L)
