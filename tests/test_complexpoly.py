"""Unit tests for Chebyshev / quasi-Chebyshev evaluation and coefficients."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from fpsearch.complexpoly import (
    COEFF_MAX_DEGREE,
    EVAL_MAX_DEGREE,
    QuasiChebParams,
    check_int,
    check_scalar,
    chebyshev_T,
    complement,
    d_product,
    n_poly_coeffs,
    phi_angles,
    quasi_cheb_closed,
    quasi_cheb_coeffs,
    quasi_cheb_recursive,
    twists,
)


def cheb_value_oracle(L, x):
    """Independent value oracle: the plain three-term recurrence."""
    if L == 0:
        return 1.0
    t_prev, t_cur = 1.0, x
    for _ in range(L - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return t_cur


def cheb_coeffs_oracle(L):
    """Independent coefficient oracle: integer recurrence on coefficient vectors."""
    c_prev = np.zeros(L + 1)
    c_prev[0] = 1.0
    if L == 0:
        return c_prev
    c_cur = np.zeros(L + 1)
    c_cur[1] = 1.0
    for _ in range(L - 1):
        nxt = np.zeros(L + 1)
        nxt[1:] = 2.0 * c_cur[:-1]
        nxt -= c_prev
        c_prev, c_cur = c_cur, nxt
    return c_cur


class TestCheckInt:
    @pytest.mark.parametrize("value", [5, np.int64(5), np.uint8(5)])
    def test_integers_come_back_as_python_int(self, value):
        out = check_int(value, "n must be an integer")
        assert type(out) is int and out == 5

    @pytest.mark.parametrize("value", [5.0, np.float64(5.0), 5.5, "5", None, True, np.True_])
    def test_non_integers_raise_naming_the_value(self, value):
        with pytest.raises(ValueError) as info:
            check_int(value, "n must be an integer")
        assert str(info.value) == f"n must be an integer, got {value!r}"

    @pytest.mark.parametrize("value, lo, hi", [(-1, 0, None), (4, None, 3), (np.int64(9), 2, 8)])
    def test_range_is_read_with_the_type(self, value, lo, hi):
        with pytest.raises(ValueError) as info:
            check_int(value, "n must be in the range", lo, hi)
        assert str(info.value) == f"n must be in the range, got {int(value)}"
        assert check_int(value, "n must be in the range", value, value) == value


class TestCheckScalar:
    def test_returns_a_python_float(self):
        out = check_scalar(np.float32(0.5), "v must be in (0, 1)", lambda v: 0.0 < v < 1.0)
        assert type(out) is float and out == 0.5

    @pytest.mark.parametrize(
        "value", [0.0, 1.0, math.nan, math.inf, -math.inf, np.array([0.5]), "0.5", None, [0.5, [0.5]]]
    )
    def test_outside_or_not_a_real_scalar_raises_naming_the_value(self, value):
        with pytest.raises(ValueError) as info:
            check_scalar(value, "v must be in (0, 1)", lambda v: 0.0 < v < 1.0)
        assert str(info.value) == f"v must be in (0, 1), got {value!r}"


class TestChebyshevT:
    def test_unit_argument(self):
        for L in (0, 1, 2, 5, 17, 64):
            assert chebyshev_T(L, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_odd_degree_at_zero(self):
        assert chebyshev_T(3, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_outside_unit_interval(self):
        # frozen: recurrence gives T_5(1.2) = 11.25312
        assert chebyshev_T(5, 1.2) == pytest.approx(11.25312, rel=1e-13)
        assert chebyshev_T(5, 1.2) == pytest.approx(math.cosh(5 * math.acosh(1.2)), rel=1e-13)

    def test_matches_recurrence_oracle(self):
        for L in (0, 1, 2, 3, 5, 8, 13, 21, 34, 50, 64):
            for x in np.linspace(-10.0, 10.0, 41):
                ref = cheb_value_oracle(L, float(x))
                got = chebyshev_T(L, float(x))
                assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_odd_parity_extension(self):
        for L in (1, 3, 25):
            for x in (1.5, 3.0, 9.0):
                assert chebyshev_T(L, -x) == pytest.approx(-chebyshev_T(L, x), rel=1e-14)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-2.0, 2.0, 17)
        vec = chebyshev_T(7, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == pytest.approx(chebyshev_T(7, float(x)), rel=1e-14, abs=1e-14)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            chebyshev_T(-1, 0.5)

    @pytest.mark.parametrize("L", [5.5, 5.0])
    def test_rejects_non_integer_degree(self, L):
        with pytest.raises(ValueError, match=re.escape(f"degree must be an integer in 0..{EVAL_MAX_DEGREE}, got {L}")):
            chebyshev_T(L, 0.3)

    @pytest.mark.parametrize("x", [np.array([0.5 + 0.3j]), 0.5 + 0.3j, [0.2, 0.5j], [0.2, [0.5]]])
    def test_rejects_complex_x(self, x):
        # the float cast would keep only the real part: T_3(0.5) = -1.  A ragged
        # list, which numpy cannot shape, gets the same message
        with pytest.raises(ValueError, match="x must be real, got"):
            chebyshev_T(3, x)
        with pytest.raises(ValueError, match="x must be real, got"):
            quasi_cheb_closed(QuasiChebParams(gamma=0.5, L=3), x)


class TestComplement:
    def test_scalar_and_array(self):
        assert type(complement(0.6)) is float and type(complement(np.float64(0.6))) is float
        out = complement(np.array([0.0, 1.0]))
        assert isinstance(out, np.ndarray) and out.tolist() == [1.0, 0.0]
        assert complement(0.0) == 1.0 and complement(1.0) == 0.0

    def test_bits_of_the_scalar_formula(self):
        vs = np.linspace(0.0, 1.0, 10_001)
        expected = [math.sqrt(1.0 - v * v) for v in vs.tolist()]
        assert complement(vs).tolist() == expected
        assert [complement(v) for v in vs.tolist()] == expected


class TestParams:
    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            QuasiChebParams(gamma=0.0, L=3)
        with pytest.raises(ValueError):
            QuasiChebParams(gamma=1.2, L=3)

    @pytest.mark.parametrize("gamma", ["0.5", 0.5j, None])
    def test_rejects_non_real_gamma(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must be a real number in \(0, 1\], got"):
            QuasiChebParams(gamma=gamma, L=3)

    def test_rejects_even_degree(self):
        with pytest.raises(ValueError):
            QuasiChebParams(gamma=0.5, L=4)

    @pytest.mark.parametrize("L", [5.5, 5.0])
    def test_rejects_non_integer_degree(self, L):
        with pytest.raises(ValueError, match=f"L must be a positive odd integer, got {L}"):
            QuasiChebParams(gamma=0.5, L=L)

    def test_accepts_numpy_integer_degree(self):
        params = QuasiChebParams(gamma=0.5, L=np.int64(5))
        assert params.L == 5 and type(params.L) is int


class TestPhiAngle:
    def test_gamma_one_vanishes(self):
        params = QuasiChebParams(gamma=1.0, L=7)
        assert np.array_equal(twists(params), np.zeros(7))
        assert np.array_equal(phi_angles(params), np.zeros(6))

    def test_analytic_value(self):
        # gamma = sqrt(1 - w^2) with w = 1/sqrt(3): 2 arctan(tan(pi/3)/sqrt(3)) = pi/2
        params = QuasiChebParams(gamma=math.sqrt(1.0 - 1.0 / 3.0), L=3)
        assert phi_angles(params)[0] == pytest.approx(math.pi / 2.0, abs=1e-14)

    def test_reflection_antisymmetry(self):
        # phi_n at index n - 1: phi_3 = -phi_2 for L = 5
        phi = phi_angles(QuasiChebParams(gamma=0.9, L=5))
        assert phi[2] < 0.0
        assert phi[2] == pytest.approx(-phi[1], abs=1e-14)

    def test_unit_phase_form(self):
        # e^{-i phi_n} = (1 - i t_n) / (1 + i t_n), each entry against the scalar formulas
        for gamma in (0.1, 0.5, 0.95):
            for L in (3, 9, 25):
                params = QuasiChebParams(gamma=gamma, L=L)
                t = twists(params)
                phi = phi_angles(params)
                assert t.shape == (L,) and phi.shape == (L - 1,)
                for n in range(1, L):
                    t_n = math.sqrt(1.0 - gamma * gamma) * math.tan(n * math.pi / L)
                    assert t[n] == pytest.approx(t_n, rel=1e-14)
                    assert phi[n - 1] == pytest.approx(2.0 * math.atan(t_n), abs=1e-14)
                    lhs = cmath.exp(-1j * phi[n - 1])
                    rhs = (1.0 - 1j * t[n]) / (1.0 + 1j * t[n])
                    assert abs(lhs - rhs) <= 1e-14


class TestRecursion:
    def test_gamma_one_is_chebyshev(self):
        params = QuasiChebParams(gamma=1.0, L=3)
        for x in np.linspace(-1.0, 1.0, 11):
            expected = 4.0 * x**3 - 3.0 * x
            assert quasi_cheb_recursive(params, float(x)) == pytest.approx(expected, abs=1e-12)

    def test_odd_at_zero(self):
        for gamma, L in ((0.3, 5), (0.8, 11), (1.0, 7)):
            assert quasi_cheb_recursive(QuasiChebParams(gamma, L), 0.0) == 0.0

    def test_frozen_closed_form_value(self):
        # T_5(0.625)/T_5(1.25) evaluated by hand: -0.23193359375 / 16.015625
        params = QuasiChebParams(gamma=0.8, L=5)
        expected = -0.23193359375 / 16.015625
        got = quasi_cheb_recursive(params, 0.5)
        assert got.real == pytest.approx(expected, abs=1e-12)
        assert abs(got.imag) <= 1e-12

    def test_imaginary_residue_small(self):
        for gamma in (0.05, 0.5, 1.0):
            for L in (3, 21, 41):
                params = QuasiChebParams(gamma=gamma, L=L)
                for x in np.linspace(-1.5, 1.5, 13):
                    value = quasi_cheb_recursive(params, float(x))
                    assert abs(value.imag) <= 1e-9 * (1.0 + abs(value))

    def test_guard_on_large_x(self):
        with pytest.raises(ValueError):
            quasi_cheb_recursive(QuasiChebParams(0.5, 5), 11.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, complex(0.5, math.nan), [0.5, math.nan]])
    def test_guard_on_non_finite_x(self, x):
        # NaN > 10 is False, so a guard written as "any |x| > 10" would let NaN through
        with pytest.raises(ValueError, match="guarded to finite"):
            quasi_cheb_recursive(QuasiChebParams(0.5, 3), x)

    @pytest.mark.parametrize(
        "x", ["0.5", {0.5}, object(), 10**400, [0.2, [0.5]]], ids=["str", "set", "object", "10**400", "ragged"]
    )
    def test_rejects_non_numeric_x(self, x):
        # a complex cast would parse the string and raise TypeError or OverflowError on the rest;
        # numpy cannot shape a ragged list at all
        with pytest.raises(ValueError, match=re.escape(f"x must be a real or complex number, got {x!r}")):
            quasi_cheb_recursive(QuasiChebParams(0.5, 3), x)

    @settings(max_examples=60, deadline=None)
    @given(
        gamma=st.floats(min_value=0.05, max_value=1.0),
        l=st.integers(min_value=0, max_value=8),
        x=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_parity_property(self, gamma, l, x):
        params = QuasiChebParams(gamma=gamma, L=2 * l + 1)
        plus = quasi_cheb_recursive(params, x)
        minus = quasi_cheb_recursive(params, -x)
        assert abs(plus + minus) <= 1e-10


class TestClosedForm:
    def test_gamma_one_at_one(self):
        for L in (1, 5, 41):
            assert quasi_cheb_closed(QuasiChebParams(1.0, L), 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_at_x_equals_gamma(self):
        for gamma, L in ((0.3, 7), (0.9, 15)):
            params = QuasiChebParams(gamma, L)
            expected = 1.0 / chebyshev_T(L, 1.0 / gamma)
            assert quasi_cheb_closed(params, gamma) == pytest.approx(expected, rel=1e-12)

    def test_matches_recursion(self):
        params = QuasiChebParams(gamma=0.99, L=25)
        rec = quasi_cheb_recursive(params, 0.5)
        assert abs(rec - quasi_cheb_closed(params, 0.5)) <= 1e-9

    def test_bounded_inside_gamma(self):
        for gamma in (0.2, 0.6, 1.0):
            for L in (3, 11, 41):
                params = QuasiChebParams(gamma, L)
                bound = 1.0 / chebyshev_T(L, 1.0 / gamma)
                xs = np.linspace(-gamma, gamma, 41)
                assert np.all(np.abs(quasi_cheb_closed(params, xs)) <= bound + 1e-14)


class TestCoefficients:
    def test_gamma_one_degree_three(self):
        coeffs = quasi_cheb_coeffs(QuasiChebParams(1.0, 3))
        assert np.allclose(coeffs, [0.0, -3.0, 0.0, 4.0], atol=1e-12)

    def test_degree_one(self):
        assert np.allclose(quasi_cheb_coeffs(QuasiChebParams(1.0, 1)), [0.0, 1.0], atol=1e-15)

    def test_binomial_substitution_oracle(self):
        # expand T_5(x/0.6) / T_5(1/0.6) by scaling the integer coefficients
        gamma = 0.6
        base = cheb_coeffs_oracle(5)
        scaled = base / gamma ** np.arange(6) / cheb_value_oracle(5, 1.0 / gamma)
        coeffs = quasi_cheb_coeffs(QuasiChebParams(gamma, 5))
        assert np.max(np.abs(coeffs - scaled)) <= 1e-9

    def test_even_coefficients_vanish(self):
        coeffs = quasi_cheb_coeffs(QuasiChebParams(0.35, 41))
        assert np.max(np.abs(coeffs[0::2])) <= 1e-9

    def test_evaluation_matches_recursion(self):
        rng = np.random.default_rng(123)
        params = QuasiChebParams(0.7, 9)
        coeffs = quasi_cheb_coeffs(params)
        for x in rng.uniform(-1.0, 1.0, size=20):
            poly_val = npoly.polyval(x, coeffs)
            assert abs(poly_val - quasi_cheb_recursive(params, float(x))) <= 1e-8

    def test_gamma_one_matches_reference_for_all_degrees(self):
        for L in range(1, 14, 2):
            coeffs = quasi_cheb_coeffs(QuasiChebParams(1.0, L))
            assert np.max(np.abs(coeffs - cheb_coeffs_oracle(L))) <= 1e-12

    def test_capability_cap(self):
        with pytest.raises(ValueError):
            quasi_cheb_coeffs(QuasiChebParams(0.5, COEFF_MAX_DEGREE + 2))


class TestNumeratorPolynomial:
    def test_gamma_one_is_chebyshev(self):
        coeffs = n_poly_coeffs(QuasiChebParams(1.0, 3))
        assert np.allclose(coeffs, [0.0, -3.0, 0.0, 4.0], atol=1e-12)

    def test_value_at_x_equals_gamma(self):
        # N_3(0.5) with gamma = 0.5 is 0.5^3 T_3(1) = 0.125
        value = npoly.polyval(0.5, n_poly_coeffs(QuasiChebParams(0.5, 3)))
        assert value == pytest.approx(0.125, abs=1e-12)

    def test_scaled_chebyshev_coefficientwise(self):
        # raw-coefficient agreement holds in double precision through L = 13,
        # the range the tiling oracles consume; beyond that the ~2^L
        # intermediate coefficients cancel and only evaluated values agree
        for gamma in (0.05, 0.25, 0.6, 0.9, 1.0):
            for L in (1, 5, 9, 13):
                coeffs = n_poly_coeffs(QuasiChebParams(gamma, L))
                ref = gamma**L * cheb_coeffs_oracle(L) / gamma ** np.arange(L + 1)
                assert np.max(np.abs(coeffs - ref)) <= 1e-9

    def test_evaluated_identity_at_higher_degree(self):
        # the coefficient path stays point-evaluation accurate through L = 21;
        # past that only the scalar recursion keeps full precision
        for gamma in (0.05, 0.25, 0.6, 0.9):
            for L in (17, 21):
                params = QuasiChebParams(gamma, L)
                coeffs = n_poly_coeffs(params)
                for x in np.linspace(-1.0, 1.0, 7):
                    value = npoly.polyval(x, coeffs) / d_product(params)
                    ref = quasi_cheb_closed(params, float(x))
                    assert abs(value - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_numerator_is_recursion_times_denominator(self):
        params = QuasiChebParams(0.7, 7)
        d_val = d_product(params)
        coeffs = n_poly_coeffs(params)
        for x in np.linspace(-1.0, 1.0, 9):
            lhs = npoly.polyval(x, coeffs)
            rhs = quasi_cheb_recursive(params, float(x)) * d_val
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    def test_capability_cap(self):
        with pytest.raises(ValueError):
            n_poly_coeffs(QuasiChebParams(0.5, 43))


class TestDenominatorProduct:
    def test_gamma_one(self):
        for L in (1, 7, 25):
            assert d_product(QuasiChebParams(1.0, L)) == pytest.approx(1.0, abs=1e-14)

    def test_frozen_value(self):
        # both sides by hand: 1 + 0.36 * tan^2(pi/3) = 2.08 = 0.8^3 T_3(1.25)
        value = d_product(QuasiChebParams(0.8, 3))
        assert value.real == pytest.approx(2.08, abs=1e-12)
        assert abs(value.imag) <= 1e-12

    def test_small_gamma_consistency(self):
        value = d_product(QuasiChebParams(0.1, 3))
        ref = 0.1**3 * cheb_value_oracle(3, 10.0)
        assert abs(value - ref) <= 1e-10 * abs(ref)

    def test_identity_on_grid(self):
        for gamma in np.arange(0.05, 1.0001, 0.05):
            for L in range(1, 42, 2):
                params = QuasiChebParams(float(gamma), L)
                value = d_product(params)
                ref = float(gamma) ** L * chebyshev_T(L, 1.0 / float(gamma))
                assert abs(value - ref) <= 1e-10 * abs(ref)
                assert abs(value.imag) <= 1e-10 * abs(value)
                assert value.real > 0.0
