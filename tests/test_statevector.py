"""Unit tests for the full-register simulator.

A state is a plain 1-D array of 2^n complex amplitudes.  The direct diagonal
phase shift is written out here, as the reference the oracle construction is
checked against.
"""

import math
import re

import numpy as np
import pytest

from fpsearch import statevector
from fpsearch.schedule import AngleSchedule, SearchParams, make_schedule, min_iterations
from fpsearch.sim2d import run_search
from fpsearch.statevector import (
    MAX_QUBITS,
    MarkedSet,
    apply_marked_phase_via_oracle,
    check_qubits,
    run_full_search,
)
from fpsearch.verify import check_oracle_construction

# no iterations: run_full_search reports the marked weight of its start state
NO_ITERATIONS = AngleSchedule(w=0.5, alpha=np.zeros(0), beta=np.zeros(0))


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def direct_phase(amps, marked, alpha):
    """The reference: e^{i alpha} on the marked amplitudes, the rest unchanged."""
    out = amps.copy()
    out[list(marked.indices)] *= np.exp(1j * alpha)
    return out


class TestInitUniform:
    """The uniform start state that run_full_search builds, and the register sizes it takes."""

    def test_single_qubit(self):
        for i in (0, 1):
            prob = run_full_search(1, MarkedSet(indices=(i,), n_qubits=1), NO_ITERATIONS).success_probability
            assert prob == pytest.approx(0.5, abs=1e-15)

    def test_three_qubits(self):
        for i in range(8):
            prob = run_full_search(3, MarkedSet(indices=(i,), n_qubits=3), NO_ITERATIONS).success_probability
            assert prob == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_normalized_at_scale(self):
        # a marked set and its complement split the start state's whole weight
        marked = MarkedSet(indices=tuple(range(0, 1024, 3)), n_qubits=10)
        rest = MarkedSet(indices=tuple(sorted(set(range(1024)) - set(marked.indices))), n_qubits=10)
        total = sum(run_full_search(10, m, NO_ITERATIONS).success_probability for m in (marked, rest))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, -1, MAX_QUBITS + 1, 5.5, 5.0])
    def test_capability_bounds(self, n):
        with pytest.raises(ValueError, match="n_qubits must be"):
            check_qubits(n)
        with pytest.raises(ValueError, match="n_qubits must be"):
            run_full_search(n, MarkedSet(indices=(0,), n_qubits=1), make_schedule(0.5, 1))


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

    @pytest.mark.parametrize("indices", [(2.9, 5.5), (2.0,), 5])
    def test_rejects_non_integer_indices(self, indices):
        with pytest.raises(ValueError, match="must be integers"):
            MarkedSet(indices=indices, n_qubits=3)

    def test_rejects_non_integer_register(self):
        with pytest.raises(ValueError, match="got 2.5"):
            MarkedSet(indices=(1,), n_qubits=2.5)

    @pytest.mark.parametrize("n_qubits", [-1, 0])
    def test_rejects_register_out_of_range(self, n_qubits):
        rule = f"n_qubits must be an integer in 1..{MAX_QUBITS}, got {n_qubits}"
        with pytest.raises(ValueError, match=re.escape(rule)):
            MarkedSet(indices=(0,), n_qubits=n_qubits)

    def test_accepts_numpy_integers(self):
        marked = MarkedSet(indices=tuple(np.array([5, 2])), n_qubits=np.int64(3))
        assert marked.indices == (2, 5) and marked.n_qubits == 3
        assert all(type(i) is int for i in (*marked.indices, marked.n_qubits))


class TestStateVector:
    """A state is a 1-D array of exactly 2^n amplitudes for the register it is used on."""

    @pytest.mark.parametrize("shape", [(16,), (4,), (2, 4)], ids=["too-long", "too-short", "not-a-vector"])
    def test_rejects_amplitude_count_mismatch(self, shape):
        # without the check, numpy would fail to broadcast with no word about the register
        with pytest.raises(ValueError, match=re.escape(f"3 qubits need 8 amplitudes, got shape {shape}")):
            apply_marked_phase_via_oracle(np.ones(shape), MarkedSet(indices=(1,), n_qubits=3), 0.5)

    def test_reads_register_as_int(self):
        assert type(check_qubits(np.int64(3))) is int and check_qubits(np.int64(3)) == 3
        marked, sched = MarkedSet(indices=(1, 6), n_qubits=3), make_schedule(0.3, 2)
        assert run_full_search(np.int64(3), marked, sched) == run_full_search(3, marked, sched)


class TestMarkedPhase:
    """The marked phase shift through the oracle, against written-out references."""

    def test_zero_angle_is_identity(self):
        amps = random_state(3, seed=1)
        out, _ = apply_marked_phase_via_oracle(amps, MarkedSet(indices=(2, 5), n_qubits=3), 0.0)
        assert np.array_equal(out, amps)

    def test_sign_flip_on_uniform(self):
        root_half = 1.0 / math.sqrt(2.0)
        out, _ = apply_marked_phase_via_oracle(
            np.full(2, root_half, dtype=complex), MarkedSet(indices=(0,), n_qubits=1), math.pi
        )
        assert np.allclose(out, [-root_half, root_half], atol=1e-15)

    def test_matches_diagonal_oracle(self):
        amps = random_state(5, seed=2)
        marked = MarkedSet(indices=(0, 7, 19, 30), n_qubits=5)
        alpha = math.pi / 3.0
        diag = np.ones(32, dtype=complex)
        diag[list(marked.indices)] = np.exp(1j * alpha)
        out, _ = apply_marked_phase_via_oracle(amps, marked, alpha)
        assert np.max(np.abs(out - diag * amps)) <= 1e-15
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


class TestOracleConstruction:
    def test_zero_angle(self):
        # the result is a new array; the amplitudes passed in are never written, at any angle
        amps = random_state(2, seed=3)
        kept = amps.copy()
        marked = MarkedSet(indices=(3,), n_qubits=2)
        out, _ = apply_marked_phase_via_oracle(amps, marked, 0.0)
        assert np.array_equal(out, kept) and not np.shares_memory(out, amps)
        apply_marked_phase_via_oracle(amps, marked, 1.0)
        assert np.array_equal(amps, kept)

    def test_matches_direct_small(self):
        amps = np.full(4, 0.5, dtype=complex)
        marked = MarkedSet(indices=(3,), n_qubits=2)
        via, _ = apply_marked_phase_via_oracle(amps, marked, math.pi)
        assert np.max(np.abs(direct_phase(amps, marked, math.pi) - via)) <= 1e-12

    def test_matches_direct_random(self):
        rng = np.random.default_rng(4)
        amps = random_state(6, seed=5)
        marked = MarkedSet(indices=tuple(rng.choice(64, size=9, replace=False)), n_qubits=6)
        via, _ = apply_marked_phase_via_oracle(amps, marked, 1.234)
        assert np.max(np.abs(direct_phase(amps, marked, 1.234) - via)) <= 1e-12

    def test_ancilla_check_is_not_an_assert(self):
        # a NaN phase leaves NaN on the ancilla half; the check must survive python -O
        marked = MarkedSet(indices=(3,), n_qubits=2)
        with pytest.raises(RuntimeError, match="ancilla"):
            apply_marked_phase_via_oracle(np.full(4, 0.5, dtype=complex), marked, math.nan)

    def test_counts_two_oracle_calls(self):
        # one phase shift costs two bit-flip oracle calls, whatever the angle or the marked set
        for n, indices in ((1, (0,)), (4, (2, 9, 15)), (6, tuple(range(1, 64)))):
            marked = MarkedSet(indices=indices, n_qubits=n)
            for alpha in (0.0, 1.234, math.pi):
                _, calls = apply_marked_phase_via_oracle(random_state(n, seed=n), marked, alpha)
                assert type(calls) is int and calls == 2

    def test_extra_oracle_calls_fail_the_check(self, monkeypatch):
        # a construction with the right amplitudes but extra oracle calls must fail:
        # the verify check measures the count, it does not assume it
        assert check_oracle_construction(np.random.default_rng(0)).passed
        counted = apply_marked_phase_via_oracle

        def wasteful(amps, marked, alpha):
            out, calls = counted(amps, marked, alpha)
            # a zero phase shift changes no amplitude but still queries the oracle
            out, more = counted(out, marked, 0.0)
            return out, calls + more

        monkeypatch.setattr(statevector, "apply_marked_phase_via_oracle", wasteful)
        result = check_oracle_construction(np.random.default_rng(0))
        assert not result.passed and result.max_deviation == 2.0


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
        with pytest.raises(ValueError, match=re.escape(f"n_qubits must be an integer in 1..{MAX_QUBITS}, got 5.0")):
            run_full_search(5.0, marked, make_schedule(0.2, 3))

    def test_zero_marked_phase_leaves_uniform_overlap(self):
        # psi0 is an eigenvector of every init phase, so with alpha = 0 the run
        # only rephases psi0 and P stays lambda^2
        rng = np.random.default_rng(12)
        l = 7
        sched = AngleSchedule(w=0.2, alpha=np.zeros(l), beta=rng.uniform(-math.pi, math.pi, size=l))
        marked = MarkedSet(indices=(3, 17, 30), n_qubits=5)
        result = run_full_search(5, marked, sched)
        assert abs(result.success_probability - marked.lam**2) <= 1e-12
