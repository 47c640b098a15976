"""Dense full-space simulation of the search over 2^n basis states.

Validates the invariant-subspace reduction end to end: the same angle
schedule is applied to the full register, a plain 1-D complex array of 2^n
amplitudes.  The marked-state phase shift is also built as hardware would
build it, from bit-flip oracle calls on an ancilla qubit, and that
construction counts the calls it makes.

This module reports probabilities (squared norms); the 2-D simulator reports
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
class MarkedSet:
    """Non-empty proper subset of the n-qubit basis states."""

    indices: tuple
    n_qubits: int

    def __post_init__(self):
        n = check_qubits(self.n_qubits)
        try:
            idx = tuple(sorted([check_int(i, "marked indices must be integers") for i in self.indices]))
        except TypeError:
            raise ValueError(f"marked indices must be integers in a sequence, got {self.indices!r}") from None
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
    return check_int(n_qubits, f"n_qubits must be an integer in 1..{MAX_QUBITS}", 1, MAX_QUBITS)


def apply_marked_phase_via_oracle(amps: np.ndarray, marked: MarkedSet, alpha: float) -> tuple[np.ndarray, int]:
    """Marked phase shift e^{i alpha} built from bit-flip oracle calls and an ancilla.

    ``amps`` holds the 2^n amplitudes of the register ``marked`` acts on.
    Extends the register with one ancilla qubit in |0>, flips it on marked
    indices, phases the ancilla-|1> half by e^{i alpha}, flips back, and
    checks the ancilla really returned to |0> before discarding it.  Returns
    the new amplitudes and the number of oracle calls made.
    """
    dim = 1 << marked.n_qubits
    # a length other than 2^n would be indexed as if it were an n-qubit register
    if np.shape(amps) != (dim,):
        raise ValueError(f"{marked.n_qubits} qubits need {dim} amplitudes, got shape {np.shape(amps)}")
    full = np.zeros(2 * dim, dtype=complex)
    full[:dim] = amps
    idx = np.array(marked.indices, dtype=int)
    calls = 0

    def flip_oracle():
        nonlocal calls
        calls += 1
        full[idx], full[idx + dim] = full[idx + dim], full[idx]

    flip_oracle()
    full[dim:] *= cmath.exp(1j * alpha)
    flip_oracle()
    # nothing may remain entangled with the ancilla
    if np.any(full[dim:] != 0.0):
        raise RuntimeError("ancilla failed to disentangle")
    return full[:dim], calls


class FullSearchResult(NamedTuple):
    success_probability: float
    phase_oracle_calls: int
    standard_oracle_calls: int


def run_full_search(
    n_qubits: int, marked: MarkedSet, schedule: AngleSchedule
) -> FullSearchResult:
    """Run the scheduled search on the full register from the uniform state psi0.

    One buffer a, copied from psi0, is stepped in place; step k applies
    a[M] *= e^{i alpha_k}, then a -= (1 - e^{i beta_k}) <psi0|a> psi0.

    Returns the final marked probability together with the oracle budget the
    run would cost on hardware: one phase-oracle call per iteration, each
    worth two standard bit-flip oracle calls.
    """
    n = check_qubits(n_qubits)
    if n != marked.n_qubits:
        raise ValueError(f"a {n}-qubit state and a marked set on {marked.n_qubits} qubits act on different registers")
    psi0 = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)
    amps = psi0.copy()
    idx = np.array(marked.indices, dtype=np.intp)
    for alpha, beta in zip(schedule.alpha, schedule.beta):
        amps[idx] *= cmath.exp(1j * alpha)
        amps -= (1.0 - cmath.exp(1j * beta)) * np.vdot(psi0, amps) * psi0
    return FullSearchResult(
        success_probability=float(np.sum(np.abs(amps[idx]) ** 2)),
        phase_oracle_calls=schedule.l,
        standard_oracle_calls=2 * schedule.l,
    )
