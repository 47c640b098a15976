"""Dense full-space simulation of the search over 2^n basis states.

Validates the invariant-subspace reduction end to end: the same angle
schedule is applied to the full amplitude vector, with the marked-state phase
shift available both as a direct diagonal and as the two-call construction
through a bit-flip oracle and an ancilla qubit.

The public operations are value-semantic: each returns a new StateVector.
run_full_search alone keeps one private buffer and steps it in place.  This
module reports probabilities (squared norms); the 2-D simulator reports
amplitude norms, so conversions at comparison sites are explicit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexpoly import check_int
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
        n = check_int(self.n_qubits, "n_qubits must be an integer")
        idx = tuple(sorted([check_int(i, "marked indices must be integers") for i in self.indices]))
        dim = 1 << n
        if len(idx) == 0:
            raise ValueError("marked set must be non-empty")
        if len(set(idx)) != len(idx):
            raise ValueError("marked indices must be distinct")
        if idx[0] < 0 or idx[-1] >= dim:
            raise ValueError(f"marked indices must lie in [0, {dim})")
        if len(idx) >= dim:
            raise ValueError("marked set must be a proper subset of the basis")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "indices", idx)

    @property
    def lam(self) -> float:
        """Marked overlap of the uniform state: sqrt(|M| / 2^n)."""
        return math.sqrt(len(self.indices) / (1 << self.n_qubits))


def check_qubits(n_qubits: int) -> int:
    """Reject a register size that is not an integer in 1..MAX_QUBITS; return it as a Python int."""
    n_qubits = check_int(n_qubits, "n_qubits must be an integer")
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    return n_qubits


def init_uniform(n_qubits: int) -> StateVector:
    """Equal superposition of all 2^n basis states."""
    n_qubits = check_qubits(n_qubits)
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


class FullSearchResult(NamedTuple):
    success_probability: float
    phase_oracle_calls: int
    standard_oracle_calls: int


def run_full_search(
    n_qubits: int, marked: MarkedSet, schedule: AngleSchedule
) -> FullSearchResult:
    """Run the scheduled search on the full register from the uniform state.

    One buffer a, copied from psi0, is stepped in place; step k applies
    a[M] *= e^{i alpha_k}, then a -= (1 - e^{i beta_k}) <psi0|a> psi0.

    Returns the final marked probability together with the oracle budget the
    run would cost on hardware: one phase-oracle call per iteration, each
    worth two standard bit-flip oracle calls.
    """
    state = init_uniform(n_qubits)
    _check_compatible(state, marked)
    psi0, amps = state.amps, state.amps.copy()
    idx = np.array(marked.indices, dtype=np.intp)
    for alpha, beta in zip(schedule.alpha, schedule.beta):
        amps[idx] *= cmath.exp(1j * alpha)
        amps -= (1.0 - cmath.exp(1j * beta)) * np.vdot(psi0, amps) * psi0
    return FullSearchResult(
        success_probability=float(np.sum(np.abs(amps[idx]) ** 2)),
        phase_oracle_calls=schedule.l,
        standard_oracle_calls=2 * schedule.l,
    )
