"""Unit tests for the angle schedule construction."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsearch.complexpoly import EVAL_MAX_DEGREE, QuasiChebParams, phi_angles
from fpsearch.schedule import (
    MAX_ITERATIONS,
    AngleSchedule,
    SearchParams,
    arccot,
    make_schedule,
    min_iterations,
    schedule_for,
)
from fpsearch.sim2d import run_search


class TestSearchParams:
    def test_valid(self):
        SearchParams(w=0.08, delta=0.3)

    @pytest.mark.parametrize(
        "w,delta",
        [
            (0.0, 0.3), (1.0, 0.3), (0.5, 0.0), (0.5, 1.0), (1.5, 0.3), (math.nan, 0.3), (0.5, math.inf),
            (0.5, "0.3"), (0.5, 0.3j),
        ],
    )
    def test_invalid(self, w, delta):
        with pytest.raises(ValueError):
            SearchParams(w=w, delta=delta)


class TestMinIterations:
    def test_reference_case(self):
        assert min_iterations(SearchParams(w=0.08, delta=0.3)) == 12

    def test_exact_integer(self):
        # ln(2 / (2/e)) = 1, so ceil(1 / (2 * 0.5)) = 1
        assert min_iterations(SearchParams(w=0.5, delta=2.0 / math.e)) == 1

    def test_small_w(self):
        assert min_iterations(SearchParams(w=0.01, delta=0.1)) == 150

    def test_floors_at_one(self):
        assert min_iterations(SearchParams(w=0.99, delta=0.99)) == 1

    @pytest.mark.parametrize("w,delta", [(5e-324, 0.1)])
    def test_infinite_count_names_the_inputs(self, w, delta):
        # ln(2/delta) / (2w) overflows to inf, which math.ceil cannot round
        with pytest.raises(ValueError, match=f"w = {w} and delta = {delta} give an infinite iteration count"):
            min_iterations(SearchParams(w=w, delta=delta))

    @pytest.mark.parametrize("delta,l", [(5e-324, 746), (1e-320, 738), (1e-309, 713), (2e-308, 710), (1e-300, 692)])
    def test_subnormal_delta_gives_a_finite_count(self, delta, l):
        # 2/delta overflows to inf below delta = 1.1e-308, but ln(2/delta) / (2w) stays finite
        params = SearchParams(w=0.5, delta=delta)
        assert min_iterations(params) == schedule_for(params).l == l


class TestArccot:
    def test_anchor_values(self):
        assert arccot(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert arccot(1.0) == pytest.approx(math.pi / 4.0, abs=1e-15)
        assert arccot(-1.0) == pytest.approx(3.0 * math.pi / 4.0, abs=1e-15)

    def test_strictly_decreasing(self):
        ys = np.linspace(-30.0, 30.0, 301)
        values = [arccot(float(y)) for y in ys]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 < v < math.pi for v in values)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_branch_identity(self, z):
        assert abs(math.pi - 2.0 * arccot(z) - 2.0 * math.atan(z)) <= 1e-14


class TestMakeSchedule:
    def test_analytic_single_iteration(self):
        # w tan(pi/3) = 1 and w tan(2 pi/3) = -1 at w = 1/sqrt(3)
        sched = make_schedule(1.0 / math.sqrt(3.0), 1)
        assert sched.alpha[0] == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert sched.beta[0] == pytest.approx(-1.5 * math.pi, abs=1e-12)
        assert sched.L == 3
        assert len(sched.phi) == 2

    def test_reference_shapes_and_spot_value(self):
        sched = make_schedule(0.08, 12, delta=0.3)
        assert len(sched.alpha) == 12 and len(sched.beta) == 12 and len(sched.phi) == 24
        expected = 2.0 * arccot(0.08 * math.tan(math.pi / 25.0))
        assert sched.alpha[0] == pytest.approx(expected, abs=1e-14)
        # every angle against the module docstring's per-index formulas, in scalar math
        def acot(y):
            return 0.5 * math.pi - math.atan(y)

        for w, l in ((0.5, 1), (0.08, 12), (0.01, 265)):
            sched = make_schedule(w, l)
            L = 2 * l + 1
            for k in range(1, l + 1):
                assert abs(sched.alpha[k - 1] - 2.0 * acot(w * math.tan((2 * k - 1) * math.pi / L))) <= 1e-14
                assert abs(sched.beta[k - 1] + 2.0 * acot(w * math.tan(2 * k * math.pi / L))) <= 1e-14
            for n in range(1, 2 * l + 1):
                assert abs(sched.phi[n - 1] - 2.0 * math.atan(w * math.tan(n * math.pi / L))) <= 1e-14

    def test_phi_alpha_beta_relation(self):
        for w, l in ((0.08, 12), (0.5, 3), (0.9, 1)):
            sched = make_schedule(w, l)
            for k in range(1, l + 1):
                assert sched.phi[2 * k - 2] == pytest.approx(math.pi - sched.alpha[k - 1], abs=1e-12)
                assert sched.phi[2 * k - 1] == pytest.approx(sched.beta[k - 1] + math.pi, abs=1e-12)

    def test_phi_matches_twisted_recursion_angles(self):
        for w, l in ((0.08, 12), (0.4, 5)):
            sched = make_schedule(w, l)
            params = QuasiChebParams(gamma=math.sqrt(1.0 - w * w), L=sched.L)
            assert np.max(np.abs(sched.phi - phi_angles(params))) <= 1e-12

    def test_phi_reflection_symmetry(self):
        sched = make_schedule(0.3, 7)
        L = sched.L
        for n in range(1, 2 * sched.l + 1):
            assert sched.phi[L - n - 1] == pytest.approx(-sched.phi[n - 1], abs=1e-12)

    @pytest.mark.parametrize(
        "w,l",
        [(0.0, 3), (1.0, 3), (-0.1, 3), (math.nan, 3), (0.5, 0), (0.5, -2), (0.1, 50_000), (0.5, True), ("0.5", 3),
         (None, 3), (math.inf, 3), (-math.inf, 3), ([0.5, [0.5]], 3)],
    )
    def test_invalid_inputs(self, w, l):
        # each message names the input it refuses and its value
        rules = r"^(w must be a real number in \(0, 1\)|l must be an integer in 1\.\.49999), got "
        with pytest.raises(ValueError, match=rules):
            make_schedule(w, l)

    def test_rejects_non_real_w_naming_it(self):
        # a string w would otherwise fail the range comparison with a TypeError
        with pytest.raises(ValueError, match=r"w must be a real number in \(0, 1\), got '0.5'"):
            make_schedule("0.5", 3)

    @pytest.mark.parametrize("l", [2.5, 2.0, None])
    def test_rejects_non_integer_l(self, l):
        with pytest.raises(ValueError, match=re.escape(f"l must be an integer in 1..{MAX_ITERATIONS}, got {l}")):
            make_schedule(0.3, l)

    def test_accepts_numpy_integer_l(self):
        sched = make_schedule(0.3, np.int64(5))
        assert type(sched.l) is int and sched.L == 11
        assert np.array_equal(sched.alpha, make_schedule(0.3, 5).alpha)
        json.dumps(sched.to_dict())

    def test_iteration_cap_matches_evaluation_cap(self):
        # L = 2l + 1 of the longest schedule is the largest odd degree chebyshev_T evaluates
        assert MAX_ITERATIONS == 49_999
        assert make_schedule(0.1, MAX_ITERATIONS).L <= EVAL_MAX_DEGREE < 2 * MAX_ITERATIONS + 3

    def test_schedule_for_uses_minimum(self):
        sched = schedule_for(SearchParams(w=0.08, delta=0.3))
        assert sched.l == 12
        assert sched.delta == 0.3

    def test_schedule_for_stops_at_the_cap(self):
        # w at which ln(2 / 0.1) / (2w) is half an iteration below and above MAX_ITERATIONS
        below, above = (math.log(20.0) / (2.0 * (MAX_ITERATIONS + d)) for d in (-0.5, 0.5))
        assert schedule_for(SearchParams(w=below, delta=0.1)).l == MAX_ITERATIONS
        with pytest.raises(ValueError, match=f"w = {above} and delta = 0.1 need more than 49999 iterations"):
            schedule_for(SearchParams(w=above, delta=0.1))


class TestAngleSchedule:
    def test_reads_l_as_an_integer(self):
        # l is the number of alpha angles, not a field that could disagree with them
        assert [f.name for f in dataclasses.fields(AngleSchedule)] == ["w", "alpha", "beta", "delta"]
        sched = AngleSchedule(w=0.2, alpha=np.ones(2), beta=np.ones(2))
        assert type(sched.l) is int and sched.l == 2 and sched.L == 5

    def test_derives_phi_from_a_plain_schedule(self):
        # alpha_k = beta_k = pi: phi_{2k-1} = pi - alpha_k = 0 and phi_{2k} = beta_k + pi = 2 pi
        sched = AngleSchedule(w=0.5, alpha=np.full(3, math.pi), beta=np.full(3, math.pi))
        assert np.array_equal(sched.phi, [0.0, 2.0 * math.pi] * 3)

    @pytest.mark.parametrize(
        "alpha,beta,rule",
        [
            (np.ones(3), np.ones(2), "alpha and beta must be 1-D with equal shapes, got (3,) and (2,)"),
            (np.ones(2), np.ones(3), "alpha and beta must be 1-D with equal shapes, got (2,) and (3,)"),
            (np.ones((2, 2)), np.ones((2, 2)), "alpha and beta must be 1-D with equal shapes, got (2, 2) and (2, 2)"),
            (1.0, 1.0, "alpha and beta must be 1-D with equal shapes, got () and ()"),
            # a set has no order and a ragged list no shape: neither is an array of angles
            ({1.0, 2.0}, [1.0, 2.0], "alpha must be an array of real numbers, got {1.0, 2.0}"),
            ([[1.0], [1.0, 2.0]], [1.0, 2.0], "alpha must be an array of real numbers, got [[1.0], [1.0, 2.0]]"),
            ([1.0, 2.0], [[1.0], [1.0, 2.0]], "beta must be an array of real numbers, got [[1.0], [1.0, 2.0]]"),
            (None, [1.0, 2.0], "alpha must be an array of real numbers, got None"),
        ],
        ids=["short-beta", "short-alpha", "2-D", "0-D", "set", "ragged-alpha", "ragged-beta", "None-alpha"],
    )
    def test_rejects_unequal_or_non_1d_angles(self, alpha, beta, rule):
        # zip would run min(len(alpha), len(beta)) iterations
        with pytest.raises(ValueError, match=re.escape(rule)):
            AngleSchedule(w=0.2, alpha=alpha, beta=beta)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_ragged_angles_name_the_field(self, field):
        angles = {"alpha": [1.0, 2.0], "beta": [1.0, 2.0], field: [[1.0], [1.0, 2.0]]}
        rule = f"{field} must be an array of real numbers, got [[1.0], [1.0, 2.0]]"
        with pytest.raises(ValueError, match=re.escape(rule)):
            AngleSchedule(w=0.5, **angles)

    def test_reads_lists_as_float_arrays(self):
        # run_search multiplies the angles by complex numbers, which a list does not support
        listed = AngleSchedule(w=0.5, alpha=[1.0, 2.0], beta=[1.0, 2.0])
        arrays = AngleSchedule(w=0.5, alpha=np.array([1.0, 2.0]), beta=np.array([1.0, 2.0]))
        assert listed.alpha.dtype == listed.beta.dtype == np.float64
        assert run_search(0.5, listed) == run_search(0.5, arrays)
        assert listed.to_dict() == arrays.to_dict()

    def test_keeps_float_arrays_without_a_copy(self):
        alpha, beta = np.ones(3), np.ones(3)
        sched = AngleSchedule(w=0.2, alpha=alpha, beta=beta)
        assert sched.alpha is alpha and sched.beta is beta

    @pytest.mark.parametrize("w", [5.0, 0.0, 1.0, math.nan, None])
    def test_rejects_w_outside_the_unit_interval(self, w):
        with pytest.raises(ValueError, match=re.escape(f"w must be a real number in (0, 1), got {w!r}")):
            AngleSchedule(w=w, alpha=np.ones(2), beta=np.ones(2))

    @pytest.mark.parametrize("delta", [5.0, 0.0, math.nan, "x", 0.3j])
    def test_rejects_delta_outside_the_unit_interval(self, delta):
        # delta is bookkeeping only, but to_dict would report it in the angles JSON
        with pytest.raises(ValueError, match="delta must be"):
            AngleSchedule(w=0.5, alpha=np.ones(2), beta=np.ones(2), delta=delta)
        with pytest.raises(ValueError, match="delta must be"):
            make_schedule(0.3, 2, delta=delta)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1j, 1 + 0j])
    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_rejects_non_finite_angles(self, field, bad):
        # a NaN angle would come out of run_search as nan+nanj, with no error; a complex
        # angle, given as a list or an array, must not lose its imaginary part to a cast
        for given in (np.array([1.0, bad]), [1.0, bad]):
            angles = {"alpha": np.ones(2), "beta": np.ones(2), field: given}
            complex_rule = f"{field} must be an array of real numbers, got"
            rule = "alpha and beta must be finite" if isinstance(bad, float) else complex_rule
            with pytest.raises(ValueError, match=rule):
                AngleSchedule(w=0.5, **angles)


class TestBounds:
    def test_query_count_bound(self):
        # L from the minimal schedule always covers arccosh(1/delta)/arccosh(1/gamma)
        for w in np.linspace(0.02, 0.98, 25):
            for delta in np.linspace(0.02, 0.98, 25):
                l = min_iterations(SearchParams(w=float(w), delta=float(delta)))
                gamma = math.sqrt(1.0 - w * w)
                needed = math.acosh(1.0 / delta) / math.acosh(1.0 / gamma)
                assert 2 * l + 1 >= needed - 1e-9

    def test_log_inequality(self):
        ws = np.linspace(0.0, 0.999, 1000)
        assert np.all(np.log((1.0 + ws) / (1.0 - ws)) >= 2.0 * ws)


class TestSerialization:
    def test_json_keys_with_delta(self):
        payload = make_schedule(0.08, 12, delta=0.3).to_dict()
        assert list(payload) == ["w", "delta", "l", "L", "alpha_radians", "beta_radians", "phi_radians"]
        text = json.dumps(payload)
        assert json.loads(text)["l"] == 12

    def test_json_without_delta(self):
        payload = make_schedule(0.5, 1).to_dict()
        assert "delta" not in payload
        assert payload["L"] == 3
        assert len(payload["phi_radians"]) == 2

    def test_round_trip_is_plain_floats(self):
        payload = make_schedule(0.2, 4, delta=0.1).to_dict()
        assert all(isinstance(v, float) for v in payload["alpha_radians"])
