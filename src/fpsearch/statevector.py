"""Dense full-space simulation of the search over 2^n basis states.

Validates the invariant-subspace reduction end to end: the same angle
schedule is applied to the full amplitude vector, with the marked-state phase
shift available both as a direct diagonal and as the two-call construction
through a bit-flip oracle and an ancilla qubit.

States are value-semantic: every operation returns a new StateVector.  This
module reports probabilities (squared norms); the 2-D simulator reports
amplitude norms, so conversions at comparison sites are explicit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .schedule import AngleSchedule

MAX_QUBITS = 12


@dataclass(frozen=True)
class StateVector:
    """Dense complex amplitudes over the 2^n computational basis states."""

    amps: np.ndarray
    n_qubits: int

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class MarkedSet:
    """Non-empty proper subset of the n-qubit basis states."""

    indices: tuple
    n_qubits: int

    def __post_init__(self):
        dim = 1 << self.n_qubits
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(idx) == 0:
            raise ValueError("marked set must be non-empty")
        if len(set(idx)) != len(idx):
            raise ValueError("marked indices must be distinct")
        if idx[0] < 0 or idx[-1] >= dim:
            raise ValueError(f"marked indices must lie in [0, {dim})")
        if len(idx) >= dim:
            raise ValueError("marked set must be a proper subset of the basis")
        object.__setattr__(self, "indices", idx)

    @property
    def lam(self) -> float:
        """Marked overlap of the uniform state: sqrt(|M| / 2^n)."""
        return math.sqrt(len(self.indices) / (1 << self.n_qubits))


def init_uniform(n_qubits: int) -> StateVector:
    """Equal superposition of all 2^n basis states."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    dim = 1 << n_qubits
    amps = np.full(dim, 2.0 ** (-n_qubits / 2.0), dtype=complex)
    return StateVector(amps=amps, n_qubits=n_qubits)


def _check_compatible(state: StateVector, marked: MarkedSet) -> None:
    if state.n_qubits != marked.n_qubits:
        raise ValueError("state and marked set act on different registers")


def apply_marked_phase(state: StateVector, marked: MarkedSet, alpha: float) -> StateVector:
    """Multiply every marked amplitude by e^{i alpha}; direct diagonal form."""
    _check_compatible(state, marked)
    amps = state.amps.copy()
    amps[list(marked.indices)] *= cmath.exp(1j * alpha)
    return StateVector(amps=amps, n_qubits=state.n_qubits)


def apply_marked_phase_via_oracle(
    state: StateVector, marked: MarkedSet, alpha: float
) -> StateVector:
    """Marked phase shift built from two bit-flip oracle calls and an ancilla.

    Extends the register with one ancilla qubit in |0>, flips it on marked
    indices, phases the ancilla-|1> half by e^{i alpha}, flips back, and
    checks the ancilla really returned to |0> before discarding it.
    """
    _check_compatible(state, marked)
    dim = 1 << state.n_qubits
    full = np.zeros(2 * dim, dtype=complex)
    full[:dim] = state.amps
    idx = np.array(marked.indices, dtype=int)

    def flip_oracle():
        low = full[idx].copy()
        full[idx] = full[idx + dim]
        full[idx + dim] = low

    flip_oracle()
    full[dim:] *= cmath.exp(1j * alpha)
    flip_oracle()
    # nothing may remain entangled with the ancilla
    if np.any(full[dim:] != 0.0):
        raise RuntimeError("ancilla failed to disentangle")
    return StateVector(amps=full[:dim], n_qubits=state.n_qubits)


def apply_init_phase(state: StateVector, psi0: StateVector, beta: float) -> StateVector:
    """Phase shift e^{i beta} along psi0: state - (1 - e^{i beta}) <psi0|state> psi0."""
    if state.n_qubits != psi0.n_qubits:
        raise ValueError("state and psi0 act on different registers")
    overlap = np.vdot(psi0.amps, state.amps)
    amps = state.amps - (1.0 - cmath.exp(1j * beta)) * overlap * psi0.amps
    return StateVector(amps=amps, n_qubits=state.n_qubits)


def success_probability(state: StateVector, marked: MarkedSet) -> float:
    """Total probability on the marked indices."""
    _check_compatible(state, marked)
    return float(np.sum(np.abs(state.amps[list(marked.indices)]) ** 2))


class FullSearchResult(NamedTuple):
    success_probability: float
    phase_oracle_calls: int
    standard_oracle_calls: int


def run_full_search(
    n_qubits: int, marked: MarkedSet, schedule: AngleSchedule
) -> FullSearchResult:
    """Run the scheduled search on the full register from the uniform state.

    Returns the final marked probability together with the oracle budget the
    run would cost on hardware: one phase-oracle call per iteration, each
    worth two standard bit-flip oracle calls.
    """
    psi0 = init_uniform(n_qubits)
    state = psi0
    for k in range(schedule.l):
        state = apply_marked_phase(state, marked, schedule.alpha[k])
        state = apply_init_phase(state, psi0, schedule.beta[k])
    return FullSearchResult(
        success_probability=success_probability(state, marked),
        phase_oracle_calls=schedule.l,
        standard_oracle_calls=2 * schedule.l,
    )
