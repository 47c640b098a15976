"""Invariant verification suite.

Runs every cross-module identity check at desk scale and reports one result
per check: polynomial identities, schedule branch relations, simulator
agreement, full-space reduction, and the tiling/tangent oracles.  The CLI
``verify`` subcommand serializes these results as JSON and fails on any
violation.

Each check hands the deviations it measures (floats or arrays) to ``_result``:
its ``max_deviation`` is the worst one, floored at 0.0, and a NaN deviation
becomes the ``max_deviation`` and fails the check.  Every tolerance of the
suite lives here: the modules it checks return values only, never a verdict.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev, polynomial as npoly

from . import combinat, complexpoly, schedule, sim2d, statevector

TANGENT_TOL = 1e-6
COEFF_TOL = 1e-8
SUBSETS_PER_CASE = 200
# the largest degree check_weight_totals enumerates tilings at
MAX_WEIGHT_L = 13


@dataclass(frozen=True)
class CheckResult:
    check_name: str
    L: int | None
    params: dict
    max_deviation: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "L": self.L,
            "params": self.params,
            "max_deviation": self.max_deviation,
            "pass": self.passed,
        }


def _result(name, L, params, devs, tol) -> CheckResult:
    # np.max keeps an array's NaN, "d != d" keeps a NaN once seen, and ">" keeps +0.0 over -0.0
    dev = 0.0
    for d in devs:
        d = np.max(d) if isinstance(d, np.ndarray) else d
        if d > dev or d != d:
            dev = d
    return CheckResult(check_name=name, L=L, params=params, max_deviation=float(dev), passed=bool(dev <= tol))


def _degrees(lo: int, cap: int, max_L: int) -> range:
    # odd lo, cap and max_L, so the last degree is min(max_L, cap), the L a check reports
    return range(lo, min(max_L, cap) + 1, 2)


def _poly_degrees(max_L: int) -> list:
    return [*_degrees(1, 13, max_L), 25, 41]


def check_quasi_cheb_closed_form(max_L: int) -> CheckResult:
    xs = np.linspace(-1.5, 1.5, 31)
    gammas = [0.05, 0.25, 0.5, 0.75, 1.0]
    devs = []
    degrees = _poly_degrees(max_L)
    for L in degrees:
        for gamma in gammas:
            params = complexpoly.QuasiChebParams(gamma=gamma, L=L)
            rec = complexpoly.quasi_cheb_recursive(params, xs)
            closed = complexpoly.quasi_cheb_closed(params, xs)
            scale = 1.0 + np.abs(closed)
            devs += (np.abs(rec - closed) / scale, np.abs(rec.imag) / (1.0 + np.abs(rec)))
    return _result("quasi_cheb_closed_form", degrees[-1], {"gammas": gammas}, devs, 1e-9)


def check_quasi_cheb_parity(max_L: int) -> CheckResult:
    xs = np.linspace(0.0, 1.0, 21)
    devs = []
    degrees = _poly_degrees(max_L)
    for L in degrees:
        for gamma in (0.3, 0.7, 1.0):
            params = complexpoly.QuasiChebParams(gamma=gamma, L=L)
            left = complexpoly.quasi_cheb_recursive(params, -xs)
            right = complexpoly.quasi_cheb_recursive(params, xs)
            devs.append(np.abs(left + right))
    return _result("quasi_cheb_parity", degrees[-1], {}, devs, 1e-10)


def check_quasi_cheb_boundedness(max_L: int) -> CheckResult:
    devs = []
    degrees = _poly_degrees(max_L)
    for L in degrees:
        for gamma in (0.2, 0.5, 0.9, 1.0):
            params = complexpoly.QuasiChebParams(gamma=gamma, L=L)
            bound = 1.0 / complexpoly.chebyshev_T(L, 1.0 / gamma)
            xs = np.linspace(-gamma, gamma, 41)
            values = np.abs(complexpoly.quasi_cheb_closed(params, xs))
            devs.append(values - bound)
    return _result("quasi_cheb_boundedness", degrees[-1], {}, devs, 1e-12)


def check_n_over_d(max_L: int) -> CheckResult:
    xs = np.linspace(-1.0, 1.0, 21)
    devs = []
    degrees = _degrees(1, 13, max_L)
    for L in degrees:
        for gamma in (0.3, 0.6, 1.0):
            params = complexpoly.QuasiChebParams(gamma=gamma, L=L)
            ratio = npoly.polyval(xs, complexpoly.n_poly_coeffs(params)) / complexpoly.d_product(params)
            rec = complexpoly.quasi_cheb_recursive(params, xs)
            devs.append(np.abs(ratio - rec))
    return _result("n_over_d_consistency", degrees[-1], {}, devs, 1e-9)


def check_gamma_one_degeneracy(max_L: int) -> CheckResult:
    devs = []
    degrees = _degrees(1, 13, max_L)
    for L in degrees:
        coeffs = complexpoly.quasi_cheb_coeffs(complexpoly.QuasiChebParams(gamma=1.0, L=L))
        devs.append(np.abs(coeffs - chebyshev.cheb2poly(np.eye(L + 1)[L])))
    return _result("gamma_one_degeneracy", degrees[-1], {}, devs, 1e-12)


def check_d_product_identity(max_L: int) -> CheckResult:
    devs = []
    degrees = _poly_degrees(max_L)
    for L in degrees:
        for gamma in (0.05, 0.1, 0.3, 0.7, 1.0):
            params = complexpoly.QuasiChebParams(gamma=gamma, L=L)
            d_val = complexpoly.d_product(params)
            ref = gamma**L * complexpoly.chebyshev_T(L, 1.0 / gamma)
            devs += (abs(d_val - ref) / abs(ref), abs(d_val.imag) / abs(d_val))
    return _result("d_product_identity", degrees[-1], {}, devs, 1e-10)


def check_arccot_branch(rng) -> CheckResult:
    zs = np.concatenate([np.linspace(-50.0, 50.0, 101), rng.normal(scale=5.0, size=50)])
    devs = [abs(math.pi - 2.0 * schedule.arccot(z) - 2.0 * math.atan(z)) for z in zs]
    return _result("arccot_branch", None, {"points": len(zs)}, devs, 1e-14)


def check_schedule_relations() -> CheckResult:
    devs = []
    for w in (0.05, 0.2, 0.5, 0.8):
        for l in (1, 2, 5, 12):
            sched = schedule.make_schedule(w, l)
            params = complexpoly.QuasiChebParams(gamma=complexpoly.complement(w), L=sched.L)
            # phi_{L-n} = -phi_n and phi_n equals the twist angle; phi is taken from alpha and
            # beta, so these two carry phi_{2k-1} = pi - alpha_k and phi_{2k} = beta_k + pi
            phi = sched.phi
            devs += (np.abs(phi[::-1] + phi), np.abs(phi - complexpoly.phi_angles(params)))
    return _result("schedule_phase_relations", None, {}, devs, 1e-12)


def check_query_count_bound() -> CheckResult:
    devs = []
    for w in (0.02, 0.05, 0.1, 0.3, 0.5, 0.8, 0.95):
        for delta in (0.02, 0.1, 0.3, 0.5, 0.9):
            L = 2 * schedule.min_iterations(schedule.SearchParams(w=w, delta=delta)) + 1
            gamma = complexpoly.complement(w)
            devs.append(math.acosh(1.0 / delta) / math.acosh(1.0 / gamma) - L)
    return _result("query_count_bound", None, {}, devs, 0.0)


def check_log_inequality() -> CheckResult:
    ws = np.linspace(0.0, 0.999, 500)
    gap = np.log((1.0 + ws) / (1.0 - ws)) - 2.0 * ws
    return _result("log_inequality", None, {"points": len(ws)}, [-gap], 1e-15)


def check_three_way_agreement() -> CheckResult:
    xs = np.linspace(0.0, 1.0, 21)
    devs = []
    for w in (0.1, 0.4, 0.8):
        for l in (1, 3, 7):
            sched = schedule.make_schedule(w, l)
            gamma = complexpoly.complement(w)
            params = complexpoly.QuasiChebParams(gamma=gamma, L=sched.L)
            sim = np.abs(sim2d.run_search(xs, sched).r_amp)
            rec = np.abs(complexpoly.quasi_cheb_recursive(params, xs))
            closed = np.abs(complexpoly.quasi_cheb_closed(params, xs))
            devs += (np.abs(sim - rec), np.abs(sim - closed))
    return _result("three_way_agreement", None, {}, devs, 1e-9)


def check_unitarity() -> CheckResult:
    xs = np.linspace(0.0, 1.0, 11)
    devs = []
    for w in (0.1, 0.5, 0.9):
        sched = schedule.make_schedule(w, 6)
        state = sim2d.run_search(xs, sched)
        devs.append(np.abs(np.hypot(np.abs(state.r_amp), np.abs(state.t_amp)) - 1.0))
    return _result("run_search_unitarity", None, {}, devs, 1e-10)


def check_fixed_point_guarantee() -> CheckResult:
    devs = []
    for w in (0.05, 0.1, 0.3):
        for delta in (0.1, 0.3, 0.5):
            l = schedule.min_iterations(schedule.SearchParams(w=w, delta=delta))
            target = complexpoly.complement(delta)
            devs.append(target - sim2d.success_probability_closed(np.linspace(w, 1.0, 200), w, l))
    return _result("fixed_point_guarantee", None, {}, devs, 1e-12)


def check_classic_grover_stop() -> CheckResult:
    devs = []
    for lam in np.linspace(0.02, 0.98, 25):
        # the plain search: alpha_k = beta_k = pi, stopped at the optimal count
        pi = np.full(sim2d.classic_grover_optimal(lam), math.pi)
        plain = schedule.AngleSchedule(w=lam, alpha=pi, beta=pi)
        prob = abs(sim2d.run_search(complexpoly.complement(lam), plain).t_amp) ** 2
        devs.append(max(1.0 - lam * lam, lam * lam) - prob)
    return _result("classic_grover_stop", None, {}, devs, 1e-12)


def check_subspace_reduction(rng) -> CheckResult:
    devs = []
    for n in (2, 4, 6, 8):
        dim = 1 << n
        for _ in range(5):
            size = int(rng.integers(1, dim))
            indices = tuple(rng.choice(dim, size=size, replace=False))
            marked = statevector.MarkedSet(indices=indices, n_qubits=n)
            w = max(0.05, 0.9 * marked.lam)
            sched = schedule.schedule_for(schedule.SearchParams(w=w, delta=0.3))
            full = statevector.run_full_search(n, marked, sched)
            x = complexpoly.complement(marked.lam)
            two_dim = abs(sim2d.run_search(x, sched).t_amp)
            devs.append(abs(math.sqrt(full.success_probability) - two_dim))
    return _result("subspace_reduction", None, {"n_range": [2, 8]}, devs, 1e-10)


def check_oracle_construction(rng) -> CheckResult:
    devs = []
    for n in (2, 4, 6):
        dim = 1 << n
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amps /= np.linalg.norm(amps)
        size = int(rng.integers(1, dim))
        marked = statevector.MarkedSet(
            indices=tuple(rng.choice(dim, size=size, replace=False)), n_qubits=n
        )
        for alpha in (0.0, 1.234, math.pi):
            # the reference: the diagonal e^{i alpha} on the marked indices, 1 elsewhere
            direct = amps.copy()
            direct[list(marked.indices)] *= cmath.exp(1j * alpha)
            via, calls = statevector.apply_marked_phase_via_oracle(amps, marked, alpha)
            devs += (np.abs(direct - via), abs(np.linalg.norm(via) - 1.0), abs(calls - 2))
    return _result("oracle_construction", None, {}, devs, 1e-12)


def check_permutation_invariance(rng) -> CheckResult:
    devs = []
    n = 6
    dim = 1 << n
    sched = schedule.make_schedule(0.2, 4)
    for size in (1, 3, 8):
        probs = []
        for _ in range(3):
            marked = statevector.MarkedSet(
                indices=tuple(rng.choice(dim, size=size, replace=False)), n_qubits=n
            )
            probs.append(statevector.run_full_search(n, marked, sched).success_probability)
        devs.append(np.ptp(probs))
    return _result("permutation_invariance", None, {"n": n}, devs, 1e-12)


def _masks(bits: np.ndarray) -> np.ndarray:
    # the integer domino bitmask of each bit row, bit d weighing 2^d
    return bits @ (1 << np.arange(bits.shape[-1]))


def check_weight_totals(max_L: int) -> CheckResult:
    xs = np.array([0.2, 0.5, 1.0])
    devs = []
    degrees = _degrees(3, MAX_WEIGHT_L, max_L)
    for L in degrees:
        # the star tilings total 2 N_L(x), the line tilings with modified squares N_L(x)
        parts = [(combinat.enumerate_tilings(L, wrap), 2.0 if wrap else 1.0, not wrap) for wrap in (True, False)]
        for gamma in (0.3, 0.7, 1.0):
            w = complexpoly.complement(gamma)
            coeffs = complexpoly.n_poly_coeffs(complexpoly.QuasiChebParams(gamma=gamma, L=L))
            refs = npoly.polyval(xs, coeffs)
            for bits, share, modified in parts:
                # every square carries one factor x, so a tiling weighs x^n_s times its weight at x = 1
                ones = combinat.tiling_weight(bits, combinat.WeightModel(w=w, x=1.0, modified=modified))
                totals = xs[:, None] ** (L - 2 * bits.sum(axis=1)) @ ones
                devs.append(np.abs(totals - share * refs) / (1.0 + np.abs(refs)))
    return _result("tiling_weight_totals", degrees[-1], {}, devs, 1e-9)


def check_bijection(max_L: int) -> CheckResult:
    devs = []
    degrees = _degrees(3, 11, max_L)
    for L in degrees:
        # the star masks are distinct and sorted, so the sorted masks of the three parts equal
        # them exactly when the parts cover every star tiling once
        union = np.concatenate(list(combinat.star_line_partition(L).values()))
        star = combinat.enumerate_tilings(L, wrap=True)
        devs.append(0.0 if np.array_equal(np.sort(_masks(union)), _masks(star)) else 1.0)
    return _result("star_line_bijection", degrees[-1], {}, devs, 0.5)


def check_reflection(max_L: int) -> CheckResult:
    devs = []
    degrees = _degrees(3, 9, max_L)
    for L in degrees:
        model = combinat.WeightModel(w=0.6, x=0.8)
        star = combinat.enumerate_tilings(L, wrap=True)
        mirrored = combinat.reflect(star)
        masks, image = _masks(star), _masks(mirrored)
        # the star masks are sorted and distinct: the mirror permutes the tilings when the image
        # masks sort to them, and is an involution when tiling i, sent to order[i], comes back
        order = np.searchsorted(masks, image)
        if not np.array_equal(np.sort(image), masks) or np.any(order[order] != np.arange(len(order))):
            devs.append(1.0)
        devs.append(np.abs(combinat.tiling_weight(star, model) - combinat.tiling_weight(mirrored, model)))
    return _result("reflection_involution", degrees[-1], {}, devs, 1e-10)


def check_orbit_partition(max_L: int) -> CheckResult:
    devs = []
    degrees = _degrees(3, 9, max_L)
    for L in degrees:
        star = combinat.enumerate_tilings(L, wrap=True)
        # rolled[j, i] is the mask of tiling i rotated by j positions
        rolled = np.stack([_masks(combinat.rotation_orbit(star, j)) for j in range(L)])
        closed = np.isin(rolled, _masks(star)).all()
        # the orbits partition the tilings when each tiling's distinct rolls are
        # as many as the tilings that share its least roll, the orbit's representative
        ordered = np.sort(rolled, axis=0)
        distinct = 1 + np.count_nonzero(ordered[1:] != ordered[:-1], axis=0)
        _, inverse, counts = np.unique(ordered[0], return_inverse=True, return_counts=True)
        devs.append(0.0 if closed and np.array_equal(distinct, counts[inverse]) else 1.0)
    return _result("orbit_partition", degrees[-1], {}, devs, 0.5)


def check_coefficient_compare(max_L: int) -> CheckResult:
    devs = []
    degrees = _degrees(3, combinat.MAX_COMPARE_L, max_L)
    for L in degrees:
        # at every domino count, variant A and B agree coefficientwise and A has no odd power of w
        coeffs_a, coeffs_b = combinat.coefficient_compare(L)
        devs += (np.abs(coeffs_a - coeffs_b), np.abs(coeffs_a[:, 1::2]))
    return _result("coefficient_compare", degrees[-1], {}, devs, COEFF_TOL)


def check_tangent_sum(max_L: int, rng) -> CheckResult:
    """Cyclic tangent sums over every k-subset of [L], or SUBSETS_PER_CASE of them.

    A case (L, k) with at most SUBSETS_PER_CASE subsets tests them all.  Each
    L with a larger case draws once: SUBSETS_PER_CASE uniform orderings of
    [L] in one ``rng.permuted`` call, and every sampled case k tests their
    k-prefixes, each a uniform k-subset.  So the subsets of one L are nested
    across k, and one running product gives the shift products of every k.
    """
    devs = []
    degrees = _degrees(3, combinat.MAX_TANGENT_L, max_L)
    for L in degrees:
        sampled = [k for k in range(1, L + 1) if math.comb(L, k) > SUBSETS_PER_CASE]
        prefixes = iter(())
        if sampled:
            orders = rng.permuted(np.tile(np.arange(L), (SUBSETS_PER_CASE, 1)), axis=1)
            prefixes = combinat.tangent_prefix_terms(L, orders[:, : sampled[-1]])
        for k in range(1, L + 1):
            # the prefix products run k = 1, 2, ..; the enumerated cases skip theirs
            prefix = next(prefixes, None)
            if k in sampled:
                terms = prefix
            else:
                terms = combinat.tangent_sum_terms(L, combinat.combinations_array(L, k))
            expected = float(L) if k % 2 == 0 else 0.0
            max_term = np.max(np.abs(terms), axis=1)
            gap = np.abs(terms.sum(axis=1) - expected)
            # a zero largest term means every term is zero; the gap itself is the deviation
            scaled = np.divide(gap, max_term, out=gap.copy(), where=max_term != 0.0)
            devs.append(scaled)
    params = {"subsets_per_case": SUBSETS_PER_CASE}
    return _result("tangent_sum_identity", degrees[-1], params, devs, TANGENT_TOL)


def check_tangent_base_cases(max_L: int) -> CheckResult:
    devs = []
    degrees = _degrees(3, combinat.MAX_VIETA_L, max_L)
    for L in degrees:
        # size-L subset: a zero tangent factor appears in every shift
        devs.append(abs(complex(combinat.tangent_sum_terms(L, range(L)).sum())))
        # size-(L-1) subsets reduce to the all-subsets sum
        full_minus_one = complex(combinat.tangent_sum_terms(L, [n for n in range(L) if n != 2]).sum())
        all_subsets = combinat.vieta_terms(L)[L - 1]
        devs.append(abs(full_minus_one - complex(all_subsets.sum())))
    return _result("tangent_base_cases", degrees[-1], {}, devs, 1e-8)


def check_vieta(max_L: int) -> CheckResult:
    devs = []
    degrees = _degrees(3, combinat.MAX_VIETA_L, max_L)
    for L in degrees:
        # every k of one L from one pass over the 2^L subsets
        for k, terms in enumerate(combinat.vieta_terms(L)):
            expected = math.comb(L, k) if k % 2 == 0 else 0.0
            scale = max(1.0, float(np.sum(np.abs(terms))))
            devs.append(abs(terms.sum() - expected) / scale)
    return _result("vieta_identity", degrees[-1], {}, devs, TANGENT_TOL)


def check_tangent_subtraction(rng) -> CheckResult:
    devs = []
    for _ in range(200):
        x, y = rng.uniform(-1.4, 1.4, size=2)
        if abs(abs(x - y) - math.pi / 2.0) < 0.1:
            continue
        lhs = math.tan(x) - math.tan(y)
        rhs = math.tan(x - y) * (1.0 - (1j * math.tan(x)) * (1j * math.tan(y)))
        devs.append(abs(lhs - rhs))
    return _result("tangent_subtraction_identity", None, {"pairs": 200}, devs, 1e-10)


def run_verification(max_L: int = 9, seed: int = 42) -> list:
    """Run every invariant check; max_L bounds the enumeration-based grids."""
    top = combinat.MAX_TANGENT_L
    max_L = complexpoly.check_odd(max_L, 3, top, f"max_L must be an odd integer in 3..{top}")
    seed = complexpoly.check_int(seed, "seed must be a non-negative integer", 0)
    rng = np.random.default_rng(seed)
    return [
        check_quasi_cheb_closed_form(max_L),
        check_quasi_cheb_parity(max_L),
        check_quasi_cheb_boundedness(max_L),
        check_n_over_d(max_L),
        check_gamma_one_degeneracy(max_L),
        check_d_product_identity(max_L),
        check_arccot_branch(rng),
        check_schedule_relations(),
        check_query_count_bound(),
        check_log_inequality(),
        check_three_way_agreement(),
        check_unitarity(),
        check_fixed_point_guarantee(),
        check_classic_grover_stop(),
        check_subspace_reduction(rng),
        check_oracle_construction(rng),
        check_permutation_invariance(rng),
        check_weight_totals(max_L),
        check_bijection(max_L),
        check_reflection(max_L),
        check_orbit_partition(max_L),
        check_coefficient_compare(max_L),
        check_tangent_sum(max_L, rng),
        check_tangent_base_cases(max_L),
        check_vieta(max_L),
        check_tangent_subtraction(rng),
    ]
