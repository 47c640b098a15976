"""Unit tests for the invariant-subspace simulator."""

import cmath
import math
import re

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
from fpsearch.schedule import AngleSchedule, SearchParams, make_schedule, min_iterations
from fpsearch.sim2d import (
    _BLOCK,
    _GROUPED_MAX,
    _GROUPED_MIN_L,
    classic_grover_optimal,
    run_search,
    success_probability_closed,
)

# The operator product written out as 2x2 matrices: the reference that
# run_search's reflection kernel is checked against.


def rotation_R(x):
    # [[x, s], [s, -x]] with s = sqrt(1 - x^2): real, symmetric and involutive;
    # it sends |r> to the initial state
    s = math.sqrt(max(0.0, 1.0 - x * x))
    return np.array([[x, s], [s, -x]], dtype=complex)


def iteration_G(x, alpha, beta):
    # e^{i beta} R(x) diag(1, e^{-i beta}) R(x) diag(1, e^{i alpha})
    R = rotation_R(x)
    init_phase = np.diag([1.0, cmath.exp(-1j * beta)])
    marked_phase = np.diag([1.0, cmath.exp(1j * alpha)])
    return cmath.exp(1j * beta) * (R @ init_phase @ R @ marked_phase)


def _matrix_loop(x, sched):
    # the operator product written out: R(x)|r>, then G_1 first
    state = rotation_R(x)[:, 0].copy()
    for alpha, beta in zip(sched.alpha, sched.beta):
        state = iteration_G(x, alpha, beta) @ state
    return state


def plain_schedule(l):
    # alpha_k = beta_k = pi: the plain search, as verify's classic_grover_stop runs it
    pi = np.full(l, math.pi)
    return AngleSchedule(w=0.5, alpha=pi, beta=pi)


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
                state = run_search(float(x), sched)
                assert np.hypot(np.abs(state.r_amp), np.abs(state.t_amp)) == pytest.approx(1.0, abs=1e-10)


class TestRunSearchKernel:
    SCHEDULES = [(0.5, 1), (0.08, 12), (0.01, 265)]
    KERNEL_CASES = [(w, l, f"{w}-{l}") for w, l in SCHEDULES] + [(None, l, f"plain-{l}") for l in (0, 1, 39)]
    # 200 points run the blocked driver; 40 points run the grouped one at l >= _GROUPED_MIN_L:
    # (0.01, 265) in g = 16 groups with 7 padding steps, plain-39 in g = 6 groups
    GRIDS = [pytest.param(w, l, 200, id=name) for w, l, name in KERNEL_CASES] + [
        pytest.param(w, l, 40, id=f"{name}-40pts") for w, l, name in KERNEL_CASES
    ]

    @staticmethod
    def _assert_matches_matrix_loop(xs, sched):
        out = run_search(xs, sched)
        ref = np.array([_matrix_loop(float(x), sched) for x in xs])
        assert np.max(np.abs(out.r_amp - ref[:, 0])) <= 1e-13
        assert np.max(np.abs(out.t_amp - ref[:, 1])) <= 1e-13

    @pytest.mark.parametrize("w,l,points", GRIDS)
    def test_matches_matrix_loop(self, w, l, points):
        sched = plain_schedule(l) if w is None else make_schedule(w, l)
        self._assert_matches_matrix_loop(np.linspace(0.0, 1.0, points), sched)

    @pytest.mark.parametrize("points", [_GROUPED_MAX, _GROUPED_MAX + 1])
    @pytest.mark.parametrize("l", [_GROUPED_MIN_L - 1, _GROUPED_MIN_L])
    def test_driver_boundary_matches_matrix_loop(self, l, points):
        self._assert_matches_matrix_loop(np.linspace(0.0, 1.0, points), make_schedule(0.05, l))

    @pytest.mark.parametrize("l", [33, 50, 100])
    def test_grouped_random_angles_match_matrix_loop(self, l):
        # the grouped driver rebuilds each group's second column from the product D of
        # e^{i (alpha_k - beta_k)}; the plain schedule gives D = 1 at every step and the
        # Chebyshev one draws alpha and beta from one tangent table, so seeded random
        # angles check D where alpha and beta are unrelated
        rng = np.random.default_rng(l)
        alpha, beta = rng.uniform(-math.pi, math.pi, (2, l))
        self._assert_matches_matrix_loop(np.linspace(0.0, 1.0, 40), AngleSchedule(w=0.1, alpha=alpha, beta=beta))

    @pytest.mark.parametrize("w,l", [(0.01, 265), (0.005, 2000)])
    def test_grouped_matches_blocked(self, w, l):
        # the same 40 x alone take the grouped driver and inside 200 points the blocked one
        sched = make_schedule(w, l)
        xs = np.linspace(0.0, 1.0, 40)
        grouped = run_search(xs, sched)
        blocked = run_search(np.concatenate((xs, np.linspace(0.0, 1.0, 160))), sched)
        assert np.max(np.abs(grouped.r_amp - blocked.r_amp[:40])) <= 1e-13
        assert np.max(np.abs(grouped.t_amp - blocked.t_amp[:40])) <= 1e-13

    def test_blocks_bit_identical(self):
        sched = make_schedule(0.08, 12)
        xs = np.linspace(0.0, 1.0, 10_000)
        whole = run_search(xs, sched)
        for part in (slice(0, 4096), slice(4096, 8192), slice(8192, None), slice(1, 4097)):
            piece = run_search(xs[part], sched)
            assert np.array_equal(piece.r_amp, whole.r_amp[part])
            assert np.array_equal(piece.t_amp, whole.t_amp[part])

    @pytest.mark.parametrize("tail", [1, 40, _GROUPED_MAX, _GROUPED_MAX + 1])
    @pytest.mark.parametrize("w,l", [(0.01, 265), (None, 39)], ids=["0.01-265", "plain-39"])
    def test_block_slices_keep_the_whole_array_bits(self, w, l, tail):
        # run_search picks its driver per _BLOCK slice, so a short last slice takes the
        # grouped driver inside a long array as it does alone, and keeps the same bits
        sched = plain_schedule(l) if w is None else make_schedule(w, l)
        xs = np.linspace(0.0, 1.0, _BLOCK + tail)
        whole, last = run_search(xs, sched), run_search(xs[_BLOCK:], sched)
        assert np.array_equal(whole.r_amp[_BLOCK:], last.r_amp)
        assert np.array_equal(whole.t_amp[_BLOCK:], last.t_amp)
        self._assert_matches_matrix_loop(xs[_BLOCK:], sched)

    def test_result_types_and_shapes(self):
        sched = make_schedule(0.3, 4)
        scalar = run_search(0.5, sched)
        assert type(scalar.r_amp) is complex and type(scalar.t_amp) is complex
        # no iterations: the initial state (x, s), still complex
        start = run_search(0.6, plain_schedule(0))
        assert type(start.r_amp) is complex and type(start.t_amp) is complex
        assert (start.r_amp, start.t_amp) == (0.6, 0.8)
        grid = run_search(np.full((2, 3), 0.5), sched)
        assert grid.r_amp.shape == grid.t_amp.shape == (2, 3)
        # a grouped-driver grid keeps its shape too, entry for entry
        xs = np.linspace(0.0, 1.0, 40)
        deep = make_schedule(0.01, 265)
        grid, flat = run_search(xs.reshape(4, 10), deep), run_search(xs, deep)
        assert grid.r_amp.shape == grid.t_amp.shape == (4, 10)
        assert np.array_equal(grid.r_amp.ravel(), flat.r_amp) and np.array_equal(grid.t_amp.ravel(), flat.t_amp)
        empty = run_search(np.array([]), sched)
        assert empty.r_amp.shape == empty.t_amp.shape == (0,)

    @pytest.mark.parametrize(
        "x",
        [1.5, math.nan, np.array([0.2, math.nan]), np.array([[0.5], [1.5]]), np.array([0.5 + 0.3j]), 0.5 + 0.3j,
         [0.2, [0.5]], None, "0.5", math.inf],
    )
    def test_domain(self, x):
        with pytest.raises(ValueError, match=r"x must be in \[0, 1\]"):
            run_search(x, make_schedule(0.3, 4))

    @pytest.mark.parametrize("w,l", SCHEDULES)
    def test_scalar_matches_one_element(self, w, l):
        sched = make_schedule(w, l)
        for x in np.linspace(0.0, 1.0, 21):
            scalar = run_search(float(x), sched)
            one = run_search(np.array([x]), sched)
            assert abs(scalar.r_amp - one.r_amp[0]) <= 1e-14
            assert abs(scalar.t_amp - one.t_amp[0]) <= 1e-14


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
                sim = np.abs(run_search(xs, sched).r_amp)
                assert np.max(np.abs(sim - rec)) <= 1e-9
                assert np.max(np.abs(sim - closed)) <= 1e-9


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
        "lam,w,l",
        [
            (1.2, 0.1, 3), (math.nan, 0.1, 3), (0.5, 0.0, 3), (0.5, 0.1, 0), (0.5, 0.1, 50_000),
            (np.array([0.5, 1.2]), 0.1, 3), (np.array([-0.1, 0.5]), 0.1, 3), (np.array([0.2, math.nan]), 0.1, 3),
            (0.5, 0.3, 2.5), (0.5, 0.3, 2.0), (np.array([0.5 + 0.3j]), 0.3, 2), (0.5 + 0.3j, 0.3, 2),
            (0.5, 0.3, None), ([0.2, [0.5]], 0.3, 2),
        ],
    )
    def test_domain(self, lam, w, l):
        # each message names the input it refuses
        rules = (
            r"^(lambda must be in \[0, 1\]|w must be a real number in \(0, 1\)"
            r"|l must be an integer in 1\.\.49999), got "
        )
        with pytest.raises(ValueError, match=rules):
            success_probability_closed(lam, w, l)

    def test_empty_array(self):
        out = success_probability_closed(np.array([]), 0.1, 3)
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_array_matches_scalar(self):
        lams = np.linspace(0.0, 1.0, 101)
        vec = success_probability_closed(lams, 0.08, 12)
        assert vec.shape == lams.shape
        assert isinstance(success_probability_closed(0.5, 0.08, 12), float)
        for lam, value in zip(lams, vec):
            assert value == pytest.approx(success_probability_closed(float(lam), 0.08, 12), abs=1e-15)

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

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.floats(min_value=0.02, max_value=0.95),
        delta=st.floats(min_value=0.01, max_value=0.9),
        u=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_guarantee_property(self, w, delta, u):
        # minimal l keeps P(lambda) >= sqrt(1 - delta^2) on all of [w, 1], and the
        # matrix simulation agrees with the closed form at lambda = w and one drawn lambda
        l = min_iterations(SearchParams(w=w, delta=delta))
        worst = np.min(success_probability_closed(np.linspace(w, 1.0, 400), w, l))
        assert worst >= math.sqrt(1.0 - delta * delta) - 1e-12
        lams = np.array([w, w + u * (1.0 - w)])
        sim = np.abs(run_search(np.sqrt(1.0 - lams * lams), make_schedule(w, l)).t_amp)
        assert np.max(np.abs(sim - success_probability_closed(lams, w, l))) <= 1e-9


def _delta_star(w, l):
    # delta* = 1 / T_L(1 / gamma) = 2 e^{-La} / (1 + e^{-2La}), as acosh(1 / gamma) = a =
    # log1p(w) - log(gamma): no cosh(L acosh) is evaluated, so this does not lean on the
    # closed form.  gamma is sqrt((1 - w)(1 + w)), which keeps its digits at small w
    gamma = math.sqrt((1.0 - w) * (1.0 + w))
    e = math.exp(-(2 * l + 1) * (math.log1p(w) - math.log(gamma)))
    return gamma, 2.0 * e / (1.0 + e * e)


class TestGuaranteeWhereTight:
    # at the Chebyshev extrema x_j = gamma cos(j pi / L), |T_L(x_j / gamma)| = 1, so the
    # simulated amplitude equals the floor sqrt(1 - delta*^2) exactly there; each
    # lambda_j >= w.  j = 0 (lambda = w) is left out: there x rounds near 1 at small w
    # and s = sqrt(1 - x^2) loses digits (ROADMAP item 9).  Measured max gaps: 1.6e-15,
    # 4.2e-14, 2.3e-13, 4.4e-13, 7.7e-12 and 6.9e-12, in parameter order
    @pytest.mark.parametrize(
        "w, l, step, bound",
        [
            (0.08, 12, 1, 1e-13),
            (0.01, 265, 1, 1e-13),
            # delta* underflows to 0, so the floor is 1
            (0.5, 2000, 1, 2e-12),
            (0.001, 2650, 1, 2e-12),
            # 500 points take the blocked driver, 50 the grouped one
            (5.31e-5, 49_999, 100, 5e-11),
            (5.31e-5, 49_999, 1000, 5e-11),
        ],
    )
    def test_simulation_meets_the_floor(self, w, l, step, bound):
        gamma, delta = _delta_star(w, l)
        xs = gamma * np.cos(np.arange(1, l + 1, step) * math.pi / (2 * l + 1))
        p = np.abs(run_search(xs, make_schedule(w, l)).t_amp)
        assert np.max(np.abs(p - math.sqrt(1.0 - delta * delta))) <= bound

    @pytest.mark.parametrize("w, l", [(0.08, 12), (0.01, 265)])
    def test_delta_star_matches_chebyshev(self, w, l):
        # measured 2.4e-14 and 4.4e-12 relative.  At smaller w the cosh(L acosh) form
        # drifts from the log form: 5.5e-10 at (0.001, 2650) and 3.0e-7 at
        # (5.31e-5, 49999), the closed form's defect (ROADMAP item 1)
        gamma, delta = _delta_star(w, l)
        assert delta == pytest.approx(1.0 / chebyshev_T(2 * l + 1, 1.0 / gamma), rel=1e-11, abs=0.0)


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
        for lam in (0.0, 1.0, -0.3, 1.5, math.nan, 0.5 + 0.1j, 0.5 + 0j, "0.5", None, np.array([0.3, 0.5]), math.inf,
                    -math.inf, [0.5, [0.5]]):
            with pytest.raises(ValueError, match=re.escape(f"lambda must be a real number in (0, 1), got {lam!r}")):
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
