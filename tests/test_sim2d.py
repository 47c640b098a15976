"""Unit tests for the invariant-subspace simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsearch.complexpoly import (
    QuasiChebParams,
    chebyshev_T,
    quasi_cheb_closed,
    quasi_cheb_recursive,
)
from fpsearch.schedule import SearchParams, make_schedule, min_iterations
from fpsearch.sim2d import (
    OverlapX,
    classic_grover_optimal,
    iteration_G,
    rotation_R,
    run_search,
    success_probability_closed,
)


class TestRotation:
    def test_endpoints(self):
        assert np.allclose(rotation_R(1.0), [[1.0, 0.0], [0.0, -1.0]])
        assert np.allclose(rotation_R(0.0), [[0.0, 1.0], [1.0, 0.0]])

    def test_pythagorean_triple(self):
        assert np.allclose(rotation_R(0.6), [[0.6, 0.8], [0.8, -0.6]], atol=1e-15)

    def test_involutive_and_symmetric(self):
        for x in np.linspace(0.0, 1.0, 21):
            R = rotation_R(float(x))
            assert np.allclose(R, R.T)
            assert np.max(np.abs(R @ R - np.eye(2))) <= 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            rotation_R(1.5)


class TestIterationG:
    def test_zero_angles_identity(self):
        assert np.allclose(iteration_G(0.37, 0.0, 0.0), np.eye(2), atol=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(
        x=st.floats(min_value=0.0, max_value=1.0),
        alpha=st.floats(min_value=-10.0, max_value=10.0),
        beta=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_unitary(self, x, alpha, beta):
        G = iteration_G(x, alpha, beta)
        assert np.max(np.abs(G.conj().T @ G - np.eye(2))) <= 1e-12

    def test_pi_angles_give_classic_rotation(self):
        # -G(pi, pi) rotates the (r, t) plane counter-clockwise by 2 arcsin(lambda)
        x = 0.6
        theta = math.asin(0.8)
        rotation = np.array(
            [[math.cos(2 * theta), -math.sin(2 * theta)], [math.sin(2 * theta), math.cos(2 * theta)]]
        )
        assert np.max(np.abs(-iteration_G(x, math.pi, math.pi) - rotation)) <= 1e-12

    def test_unmarked_start_accumulates_phase_only(self):
        G = iteration_G(1.0, 0.7, 1.3)
        state = G @ np.array([1.0, 0.0])
        assert abs(state[0] - np.exp(1j * 1.3)) <= 1e-14
        assert abs(state[1]) <= 1e-14


class TestRunSearch:
    def test_already_marked(self):
        sched = make_schedule(0.3, 4)
        final = run_search(0.0, sched)
        assert abs(final.t_amp) == pytest.approx(1.0, abs=1e-12)

    def test_reference_guarantee_point(self):
        sched = make_schedule(0.08, 12)
        x = math.sqrt(1.0 - 0.08**2)
        final = run_search(x, sched)
        assert abs(final.t_amp) >= math.sqrt(1.0 - 0.09)

    def test_failure_amplitude_is_chebyshev_ratio(self):
        # gamma = sqrt(1 - 0.8^2) = 0.6 and L = 7
        sched = make_schedule(0.8, 3)
        final = run_search(0.5, sched)
        expected = abs(chebyshev_T(7, 0.5 / 0.6) / chebyshev_T(7, 1.0 / 0.6))
        assert abs(final.r_amp) == pytest.approx(expected, abs=1e-10)

    def test_norm_preserved(self):
        for w, l in ((0.05, 15), (0.5, 5), (0.9, 1)):
            sched = make_schedule(w, l)
            for x in np.linspace(0.0, 1.0, 11):
                assert run_search(float(x), sched).norm() == pytest.approx(1.0, abs=1e-10)


class TestThreeWayAgreement:
    def test_grid(self):
        xs = np.linspace(0.0, 1.0, 50)
        for w in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9):
            gamma = math.sqrt(1.0 - w * w)
            for l in range(1, 16):
                sched = make_schedule(w, l)
                params = QuasiChebParams(gamma=gamma, L=sched.L)
                closed = np.abs(quasi_cheb_closed(params, xs))
                rec = np.abs(quasi_cheb_recursive(params, xs))
                for x, ref, rec_x in zip(xs, closed, rec):
                    sim = abs(run_search(float(x), sched).r_amp)
                    assert abs(sim - rec_x) <= 1e-9
                    assert abs(sim - ref) <= 1e-9


class TestClosedFormProbability:
    def test_fully_marked(self):
        assert success_probability_closed(1.0, 0.3, 5) == pytest.approx(1.0, abs=1e-14)

    def test_at_lambda_equals_w(self):
        for w, delta in ((0.08, 0.3), (0.2, 0.1)):
            l = min_iterations(SearchParams(w=w, delta=delta))
            gamma = math.sqrt(1.0 - w * w)
            value = success_probability_closed(w, w, l)
            expected = math.sqrt(1.0 - 1.0 / chebyshev_T(2 * l + 1, 1.0 / gamma) ** 2)
            assert value == pytest.approx(expected, rel=1e-12)
            assert value >= math.sqrt(1.0 - delta * delta)

    def test_reference_point(self):
        assert success_probability_closed(0.2, 0.08, 12) >= 0.95

    @pytest.mark.parametrize(
        "lam,w,l", [(1.2, 0.1, 3), (math.nan, 0.1, 3), (0.5, 0.0, 3), (0.5, 0.1, 0), (0.5, 0.1, 50_000)]
    )
    def test_domain(self, lam, w, l):
        with pytest.raises(ValueError):
            success_probability_closed(lam, w, l)

    def test_matches_simulation(self):
        for w, l in ((0.08, 12), (0.4, 4)):
            sched = make_schedule(w, l)
            for lam in np.linspace(0.0, 1.0, 21):
                x = math.sqrt(max(0.0, 1.0 - lam * lam))
                sim = abs(run_search(float(x), sched).t_amp)
                assert abs(sim - success_probability_closed(float(lam), w, l)) <= 1e-10

    def test_fixed_point_guarantee_grid(self):
        for w in (0.1, 0.3):
            for delta in (0.1, 0.5):
                l = min_iterations(SearchParams(w=w, delta=delta))
                target = math.sqrt(1.0 - delta * delta)
                for lam in np.linspace(w, 1.0, 200):
                    assert success_probability_closed(float(lam), w, l) >= target - 1e-12


class TestClassicGroverOptimal:
    def test_tiny_amplitude(self):
        assert classic_grover_optimal(0.1) == 7

    def test_near_unit_amplitude(self):
        assert classic_grover_optimal(0.999) == 0

    def test_tie_documented(self):
        # pi/(4 arcsin) - 1/2 evaluates to a half integer at both points;
        # ties round to the even neighbour
        assert classic_grover_optimal(1.0 / math.sqrt(2.0)) in (0, 1)
        assert classic_grover_optimal(math.sin(math.pi / 8.0)) == 2

    def test_domain(self):
        for lam in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(ValueError):
                classic_grover_optimal(lam)

    def test_near_optimal_success(self):
        # stopping at the returned count reaches at least max(1-lam^2, lam^2)
        for lam in np.linspace(0.02, 0.98, 49):
            x = math.sqrt(1.0 - lam * lam)
            G = iteration_G(x, math.pi, math.pi)
            state = np.array([x, lam], dtype=complex)
            for _ in range(classic_grover_optimal(float(lam))):
                state = G @ state
            prob = abs(state[1]) ** 2
            assert prob >= max(1.0 - lam * lam, lam * lam) - 1e-12


class TestOverlapX:
    def test_duality(self):
        pair = OverlapX.from_lambda(0.6)
        assert pair.x == pytest.approx(0.8, abs=1e-15)
        back = OverlapX.from_x(pair.x)
        assert back.lam == pytest.approx(0.6, abs=1e-12)
        assert pair.x**2 + pair.lam**2 == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            OverlapX.from_lambda(1.2)
        with pytest.raises(ValueError):
            OverlapX.from_x(-0.1)
