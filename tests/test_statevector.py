"""Unit tests for the full-register simulator."""

import math
import re

import numpy as np
import pytest

from fpsearch.schedule import AngleSchedule, SearchParams, make_schedule, min_iterations
from fpsearch.sim2d import run_search
from fpsearch.statevector import (
    MAX_QUBITS,
    MarkedSet,
    StateVector,
    apply_marked_phase,
    apply_marked_phase_via_oracle,
    init_uniform,
    run_full_search,
)


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(amps=amps, n_qubits=n_qubits)


class TestInitUniform:
    def test_single_qubit(self):
        state = init_uniform(1)
        assert np.allclose(state.amps, [1.0 / math.sqrt(2.0)] * 2)

    def test_three_qubits(self):
        state = init_uniform(3)
        assert np.allclose(state.amps, np.full(8, 1.0 / (2.0 * math.sqrt(2.0))))

    def test_normalized_at_scale(self):
        assert init_uniform(10).norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, -1, MAX_QUBITS + 1, 5.5, 5.0])
    def test_capability_bounds(self, n):
        with pytest.raises(ValueError):
            init_uniform(n)


class TestMarkedSet:
    def test_lambda_value(self):
        assert MarkedSet(indices=(0,), n_qubits=1).lam == pytest.approx(1.0 / math.sqrt(2.0))

    def test_sorts_indices(self):
        assert MarkedSet(indices=(5, 1, 3), n_qubits=3).indices == (1, 3, 5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MarkedSet(indices=(), n_qubits=2)

    def test_rejects_full_set(self):
        with pytest.raises(ValueError):
            MarkedSet(indices=(0, 1, 2, 3), n_qubits=2)

    def test_rejects_out_of_range_and_duplicates(self):
        with pytest.raises(ValueError):
            MarkedSet(indices=(4,), n_qubits=2)
        with pytest.raises(ValueError):
            MarkedSet(indices=(1, 1), n_qubits=2)

    @pytest.mark.parametrize("indices", [(2.9, 5.5), (2.0,)])
    def test_rejects_non_integer_indices(self, indices):
        with pytest.raises(ValueError, match="must be integers"):
            MarkedSet(indices=indices, n_qubits=3)

    def test_rejects_non_integer_register(self):
        with pytest.raises(ValueError, match="got 2.5"):
            MarkedSet(indices=(1,), n_qubits=2.5)

    @pytest.mark.parametrize("n_qubits", [-1, 0])
    def test_rejects_register_out_of_range(self, n_qubits):
        with pytest.raises(ValueError, match=f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}"):
            MarkedSet(indices=(0,), n_qubits=n_qubits)

    def test_accepts_numpy_integers(self):
        marked = MarkedSet(indices=tuple(np.array([5, 2])), n_qubits=np.int64(3))
        assert marked.indices == (2, 5) and marked.n_qubits == 3
        assert all(type(i) is int for i in (*marked.indices, marked.n_qubits))


class TestStateVector:
    @pytest.mark.parametrize("shape", [(16,), (4,), (2, 4)], ids=["too-long", "too-short", "not-a-vector"])
    def test_rejects_amplitude_count_mismatch(self, shape):
        # (16,) once passed as 3 qubits; (4,) failed later inside numpy indexing
        with pytest.raises(ValueError, match=re.escape(f"3 qubits need 8 amplitudes, got shape {shape}")):
            StateVector(amps=np.ones(shape), n_qubits=3)

    def test_reads_register_as_int(self):
        state = StateVector(amps=np.ones(8) / math.sqrt(8.0), n_qubits=np.int64(3))
        assert type(state.n_qubits) is int and state.n_qubits == 3


class TestMarkedPhase:
    def test_zero_angle_is_identity(self):
        state = random_state(3, seed=1)
        marked = MarkedSet(indices=(2, 5), n_qubits=3)
        out = apply_marked_phase(state, marked, 0.0)
        assert np.array_equal(out.amps, state.amps)

    def test_sign_flip_on_uniform(self):
        state = init_uniform(1)
        out = apply_marked_phase(state, MarkedSet(indices=(0,), n_qubits=1), math.pi)
        root_half = 1.0 / math.sqrt(2.0)
        assert np.allclose(out.amps, [-root_half, root_half], atol=1e-15)

    def test_matches_diagonal_oracle(self):
        state = random_state(5, seed=2)
        marked = MarkedSet(indices=(0, 7, 19, 30), n_qubits=5)
        alpha = math.pi / 3.0
        diag = np.ones(32, dtype=complex)
        diag[list(marked.indices)] = np.exp(1j * alpha)
        out = apply_marked_phase(state, marked, alpha)
        assert np.max(np.abs(out.amps - diag * state.amps)) <= 1e-15
        assert out.norm() == pytest.approx(1.0, abs=1e-12)


class TestOracleConstruction:
    def test_zero_angle(self):
        state = random_state(2, seed=3)
        marked = MarkedSet(indices=(3,), n_qubits=2)
        out = apply_marked_phase_via_oracle(state, marked, 0.0)
        assert np.max(np.abs(out.amps - state.amps)) <= 1e-15

    def test_matches_direct_small(self):
        state = init_uniform(2)
        marked = MarkedSet(indices=(3,), n_qubits=2)
        direct = apply_marked_phase(state, marked, math.pi)
        via = apply_marked_phase_via_oracle(state, marked, math.pi)
        assert np.max(np.abs(direct.amps - via.amps)) <= 1e-12

    def test_matches_direct_random(self):
        rng = np.random.default_rng(4)
        state = random_state(6, seed=5)
        indices = tuple(rng.choice(64, size=9, replace=False))
        marked = MarkedSet(indices=indices, n_qubits=6)
        direct = apply_marked_phase(state, marked, 1.234)
        via = apply_marked_phase_via_oracle(state, marked, 1.234)
        assert np.max(np.abs(direct.amps - via.amps)) <= 1e-12

    def test_ancilla_check_is_not_an_assert(self):
        # a NaN phase leaves NaN on the ancilla half; the check must survive python -O
        marked = MarkedSet(indices=(3,), n_qubits=2)
        with pytest.raises(RuntimeError, match="ancilla"):
            apply_marked_phase_via_oracle(init_uniform(2), marked, math.nan)


class TestFullSearch:
    def test_nearly_all_marked(self):
        marked = MarkedSet(indices=tuple(range(1, 16)), n_qubits=4)
        sched = make_schedule(0.9, 1, delta=0.5)
        result = run_full_search(4, marked, sched)
        lam = marked.lam
        x = math.sqrt(1.0 - lam * lam)
        expected = abs(run_search(x, sched).t_amp) ** 2
        assert result.success_probability == pytest.approx(expected, abs=1e-9)
        assert result.success_probability >= 1.0 - 0.5**2

    def test_reference_regime(self):
        marked = MarkedSet(indices=(17, 200), n_qubits=8)
        l = min_iterations(SearchParams(w=0.08, delta=0.3))
        result = run_full_search(8, marked, make_schedule(0.08, l))
        assert result.success_probability >= 0.91
        assert result.phase_oracle_calls == l
        assert result.standard_oracle_calls == 2 * l

    def test_matches_subspace_simulation(self):
        marked = MarkedSet(indices=(1, 2, 3), n_qubits=2)
        sched = make_schedule(0.5, 1)
        result = run_full_search(2, marked, sched)
        x = math.sqrt(1.0 - marked.lam**2)
        expected = abs(run_search(x, sched).t_amp) ** 2
        assert result.success_probability == pytest.approx(expected, abs=1e-10)

    def test_permutation_invariance(self):
        sched = make_schedule(0.2, 3)
        probs = [
            run_full_search(5, MarkedSet(indices=idx, n_qubits=5), sched).success_probability
            for idx in [(0, 1, 2), (7, 13, 29), (10, 20, 30)]
        ]
        assert max(probs) - min(probs) <= 1e-12

    def test_subspace_reduction_random_sets(self):
        rng = np.random.default_rng(11)
        for n in range(2, 11):
            dim = 1 << n
            for _ in range(3):
                size = int(rng.integers(1, dim))
                marked = MarkedSet(indices=tuple(rng.choice(dim, size=size, replace=False)), n_qubits=n)
                w = min(0.95, max(0.05, 0.8 * marked.lam))
                sched = make_schedule(w, min_iterations(SearchParams(w=w, delta=0.3)))
                result = run_full_search(n, marked, sched)
                x = math.sqrt(max(0.0, 1.0 - marked.lam**2))
                two_dim = abs(run_search(x, sched).t_amp)
                assert abs(math.sqrt(result.success_probability) - two_dim) <= 1e-10

    def test_register_mismatch_raises(self):
        marked = MarkedSet(indices=(1,), n_qubits=4)
        with pytest.raises(ValueError, match="different registers"):
            run_full_search(3, marked, make_schedule(0.3, 2))

    def test_rejects_non_integer_register(self):
        marked = MarkedSet(indices=(1,), n_qubits=5)
        with pytest.raises(ValueError, match="n_qubits must be an integer, got 5.0"):
            run_full_search(5.0, marked, make_schedule(0.2, 3))

    def test_zero_marked_phase_leaves_uniform_overlap(self):
        # psi0 is an eigenvector of every init phase, so with alpha = 0 the run
        # only rephases psi0 and P stays lambda^2
        rng = np.random.default_rng(12)
        l = 7
        sched = AngleSchedule(
            w=0.2,
            l=l,
            alpha=np.zeros(l),
            beta=rng.uniform(-math.pi, math.pi, size=l),
            phi=np.zeros(2 * l),
        )
        marked = MarkedSet(indices=(3, 17, 30), n_qubits=5)
        result = run_full_search(5, marked, sched)
        assert abs(result.success_probability - marked.lam**2) <= 1e-12
