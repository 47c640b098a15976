"""Acceptance suite: one test per acceptance criterion, each printing a verdict.

Every running worst case folds with ``np.maximum`` / ``np.minimum``, which keep
a NaN (the builtin ``max(0.0, nan)`` returns 0.0), so a NaN fails its criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest output.
"""

import itertools
import math
import time

import numpy as np

from fpsearch.combinat import (
    coefficient_compare,
    tangent_sum_terms,
    vieta_terms,
)
from fpsearch.complexpoly import (
    QuasiChebParams,
    chebyshev_T,
    d_product,
    quasi_cheb_closed,
    quasi_cheb_recursive,
)
from fpsearch.schedule import SearchParams, make_schedule, min_iterations
from fpsearch.sim2d import run_search, success_probability_closed
from fpsearch.statevector import MarkedSet, apply_marked_phase_via_oracle, run_full_search
from fpsearch.verify import check_bijection, check_weight_totals

DEGREES = list(range(1, 42, 2))
GAMMAS = [round(0.05 * k, 2) for k in range(1, 21)]


def random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def verdict(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} [{'PASS' if passed else 'FAIL'}]: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_reference_sweep():
    started = time.perf_counter()
    w, delta, l = 0.08, 0.3, 12
    assert min_iterations(SearchParams(w=w, delta=delta)) == l
    sched = make_schedule(w, l, delta=delta)
    lams = np.linspace(0.0, 1.0, 500)
    max_err = 0.0
    min_guaranteed = 1.0
    for lam in lams:
        x = math.sqrt(max(0.0, 1.0 - lam * lam))
        p_sim = abs(run_search(float(x), sched).t_amp)
        p_closed = success_probability_closed(float(lam), w, l)
        max_err = np.maximum(max_err, abs(p_sim - p_closed))
        if lam >= w:
            min_guaranteed = np.minimum(min_guaranteed, p_sim)
    elapsed = time.perf_counter() - started
    floor = math.sqrt(1.0 - 0.09)
    ok = min_guaranteed >= floor and max_err <= 1e-9 and elapsed < 5.0
    verdict(
        1,
        ok,
        f"500-point sweep: min P(lambda >= 0.08) = {min_guaranteed:.6f} (floor {floor:.4f}), "
        f"max |sim - closed| = {max_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_recursion_equals_closed_form():
    started = time.perf_counter()
    xs = np.linspace(-1.5, 1.5, 50)
    max_rel = 0.0
    max_imag = 0.0
    for L in DEGREES:
        for gamma in GAMMAS:
            params = QuasiChebParams(gamma=gamma, L=L)
            rec = quasi_cheb_recursive(params, xs)
            closed = quasi_cheb_closed(params, xs)
            max_rel = np.maximum(max_rel, float(np.max(np.abs(rec - closed) / (1.0 + np.abs(closed)))))
            max_imag = np.maximum(max_imag, float(np.max(np.abs(rec.imag) / (1.0 + np.abs(rec)))))
    elapsed = time.perf_counter() - started
    ok = max_rel <= 1e-9 and max_imag <= 1e-9 and elapsed < 10.0
    verdict(
        2,
        ok,
        f"L in 1..41, gamma in 0.05..1.0, 50-point x grid: max scaled deviation = {max_rel:.2e}, "
        f"max scaled imaginary residue = {max_imag:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_denominator_identity():
    max_rel = 0.0
    for L in DEGREES:
        for gamma in GAMMAS:
            value = d_product(QuasiChebParams(gamma=gamma, L=L))
            ref = gamma**L * chebyshev_T(L, 1.0 / gamma)
            max_rel = np.maximum(max_rel, abs(value - ref) / abs(ref))
    ok = max_rel <= 1e-10
    verdict(3, ok, f"product vs gamma^L T_L(1/gamma) on the full grid: max relative error = {max_rel:.2e}")


def test_criterion_4_tiling_totals_and_bijection():
    # star = 2 N_L and line = N_L totals over L = 3..11, gamma in {0.3, 0.7, 1}, x in {0.2, 0.5, 1}
    max_rel = check_weight_totals(11).max_deviation
    bijection_ok = check_bijection(11).passed
    ok = max_rel <= 1e-9 and bijection_ok
    verdict(
        4,
        ok,
        f"star = 2N and line = N totals: max relative error = {max_rel:.2e}; "
        f"bijection exact: {bijection_ok}",
    )


def test_criterion_5_weight_variant_coefficients():
    max_dev = 0.0
    max_odd = 0.0
    for L in (3, 5, 7, 9):
        # one row per domino count, so every n_s at once
        coeffs_a, coeffs_b = coefficient_compare(L)
        max_dev = np.maximum(max_dev, np.max(np.abs(coeffs_a - coeffs_b)))
        max_odd = np.maximum(max_odd, np.max(np.abs(coeffs_a[:, 1::2])))
    ok = max_dev <= 1e-8 and max_odd <= 1e-8
    verdict(
        5,
        ok,
        f"variant A vs B over every n_s, L in 3..9: max coefficient deviation = {max_dev:.2e}, "
        f"max odd-power coefficient = {max_odd:.2e}",
    )


def test_criterion_6_tangent_sum_identity():
    rng = np.random.default_rng(2024)
    max_scaled = 0.0
    cases = 0
    for L in range(3, 26, 2):
        for k in range(1, L + 1):
            if math.comb(L, k) <= 200:
                subsets = itertools.combinations(range(L), k)
            else:
                subsets = (rng.choice(L, size=k, replace=False) for _ in range(200))
            for subset in subsets:
                terms = tangent_sum_terms(L, list(subset))
                expected = float(L) if k % 2 == 0 else 0.0
                gap = abs(terms.sum() - expected)
                max_term = float(np.max(np.abs(terms)))
                if max_term == 0.0:
                    assert gap == 0.0
                else:
                    max_scaled = np.maximum(max_scaled, gap / max_term)
                cases += 1
    figure_value = complex(tangent_sum_terms(5, (0, 2)).sum())
    figure_ok = abs(figure_value - 5.0) <= 1e-10
    ok = max_scaled <= 1e-6 and figure_ok
    verdict(
        6,
        ok,
        f"{cases} subset cases over L in 3..25: max deviation / max-term = {max_scaled:.2e}; "
        f"reference instance (L=5, {{0,2}}) = {figure_value.real:.12f}",
    )


def test_criterion_7_subset_sum_identity():
    max_scaled = 0.0
    for L in range(3, 16, 2):
        for k, terms in enumerate(vieta_terms(L)):
            expected = math.comb(L, k) if k % 2 == 0 else 0.0
            scale = max(1.0, float(np.sum(np.abs(terms))))
            max_scaled = np.maximum(max_scaled, abs(terms.sum() - expected) / scale)
    ok = max_scaled <= 1e-6
    verdict(7, ok, f"all k-subset sums for L in 3..15: max scaled deviation = {max_scaled:.2e}")


def test_criterion_8_full_space_matches_subspace():
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    max_amp_gap = 0.0
    max_oracle_gap = 0.0
    max_call_gap = 0
    for n in range(2, 11):
        dim = 1 << n
        for _ in range(20):
            size = int(rng.integers(1, dim))
            marked = MarkedSet(indices=tuple(rng.choice(dim, size=size, replace=False)), n_qubits=n)
            w = min(0.95, max(0.02, 0.85 * marked.lam))
            sched = make_schedule(w, min_iterations(SearchParams(w=w, delta=0.3)))
            result = run_full_search(n, marked, sched)
            x = math.sqrt(max(0.0, 1.0 - marked.lam**2))
            two_dim = abs(run_search(x, sched).t_amp)
            max_amp_gap = np.maximum(max_amp_gap, abs(math.sqrt(result.success_probability) - two_dim))
        amps = random_state(n, rng)
        marked = MarkedSet(indices=tuple(rng.choice(dim, size=max(1, dim // 4), replace=False)), n_qubits=n)
        for alpha in (0.31, math.pi / 2.0, 2.8):
            # the reference: e^{i alpha} on the marked amplitudes, the rest unchanged
            direct = amps.copy()
            direct[list(marked.indices)] *= np.exp(1j * alpha)
            via, calls = apply_marked_phase_via_oracle(amps, marked, alpha)
            max_oracle_gap = np.maximum(max_oracle_gap, float(np.max(np.abs(direct - via))))
            max_call_gap = max(max_call_gap, abs(calls - 2))
    elapsed = time.perf_counter() - started
    ok = max_amp_gap <= 1e-10 and max_oracle_gap <= 1e-12 and max_call_gap == 0 and elapsed < 30.0
    verdict(
        8,
        ok,
        f"20 random marked sets per n in 2..10: max amplitude gap = {max_amp_gap:.2e}, "
        f"max oracle-construction gap = {max_oracle_gap:.2e}, "
        f"oracle calls per phase shift off 2 by at most {max_call_gap}, {elapsed:.2f}s",
    )


def test_criterion_9_guarantee_and_query_bound():
    worst_margin = math.inf
    bound_ok = True
    for w in (0.05, 0.1, 0.2, 0.4):
        for delta in (0.05, 0.1, 0.3, 0.5):
            l = min_iterations(SearchParams(w=w, delta=delta))
            L = 2 * l + 1
            target = math.sqrt(1.0 - delta * delta)
            worst = np.min(
                [success_probability_closed(float(lam), w, l) for lam in np.linspace(w, 1.0, 200)]
            )
            worst_margin = np.minimum(worst_margin, worst - target)
            gamma = math.sqrt(1.0 - w * w)
            if L < math.acosh(1.0 / delta) / math.acosh(1.0 / gamma):
                bound_ok = False
    ok = worst_margin >= -1e-12 and bound_ok
    verdict(
        9,
        ok,
        f"(w, delta) grid at minimal l: worst P - sqrt(1-delta^2) margin = {worst_margin:.2e}; "
        f"L covers the arccosh query bound: {bound_ok}",
    )
