"""Seeded workloads: input generation, the timed program call, and the correctness gate.

Each workload turns a seed into a sequence of calls.  ``execute`` is the only
part that is timed; ``check`` compares the program's output with values the
benchmark computes on its own (never with stored golden output, since the
program may change results in the last ulp) and returns how many of the call's
items were attempted and how many failed.

No workload reaches the closed form's ``cosh`` overflow: at the minimal
iteration count L * acosh(1/gamma) stays below about ln(2/delta) + 2w, which is
at most about 5.3 here (delta >= 0.01), far from the overflow near 710.

Sweep grids start at lambda >= 1e-3.  Below about 2e-5 (at l = 265) the
package's simulated and closed-form amplitudes drift apart by more than 1e-9,
because both derive the marked overlap from x = sqrt(1 - lambda^2), which has
lost most of lambda's digits; ``test_perfbench.py`` keeps that defect visible.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import numpy as np

SIM_CLOSED_TOL = 1e-9
SUBSPACE_FULL_TOL = 1e-10
FLOOR_SLACK = 1e-12
GRID_TOL = 1e-12
VERIFY_CHECKS = 26


def min_iterations(w: float, delta: float) -> int:
    """Minimal iteration count l = ceil(ln(2/delta) / (2w)), computed independently of the package."""
    return max(1, math.ceil(math.log(2.0 / delta) / (2.0 * w)))


def closed_amplitude(lam: np.ndarray, w: float, l: int) -> np.ndarray:
    """Reference P(lambda) = sqrt(1 - T_L(x/gamma)^2 / T_L(1/gamma)^2), x = sqrt(1 - lambda^2)."""
    L = 2 * l + 1
    gamma = math.sqrt(1.0 - w * w)

    def cheb(y):
        y = np.asarray(y, dtype=float)
        inside = np.abs(y) <= 1.0
        out = np.cos(L * np.arccos(np.clip(y, -1.0, 1.0)))
        outer = np.sign(y) ** L * np.cosh(L * np.arccosh(np.maximum(np.abs(y), 1.0)))
        return np.where(inside, out, outer)

    x = np.sqrt(np.maximum(0.0, 1.0 - lam * lam))
    ratio = cheb(x / gamma) / cheb(1.0 / gamma)
    return np.sqrt(np.maximum(0.0, 1.0 - ratio * ratio))


def _rng(name: str, seed: int) -> random.Random:
    # str seeds hash through sha512: stable across runs and interpreter hash seeds
    return random.Random(f"perfbench:{name}:{seed}")


class Sweep:
    """``fpsearch sweep`` over a lambda grid whose endpoints the seed jitters; item = one lambda point."""

    def __init__(self, name, w, delta, points, lambda_min, lambda_max, call_s):
        self.name = name
        self.w, self.delta, self.points = w, delta, points
        self.items_per_call = points
        self.lambda_min, self.lambda_max = lambda_min, lambda_max
        self.call_s = call_s
        self.l = min_iterations(w, delta)

    def params(self) -> dict:
        return {
            "argv": ["sweep", "--w", repr(self.w), "--delta", repr(self.delta), "--points", str(self.points)],
            "l": self.l,
            "L": 2 * self.l + 1,
            "lambda_min_range": list(self.lambda_min),
            "lambda_max_range": list(self.lambda_max),
            "max_L_acosh": (2 * self.l + 1) * math.acosh(1.0 / math.sqrt(1.0 - self.w**2)),
        }

    def calls(self, seed: int):
        rng = _rng(self.name, seed)
        while True:
            yield (rng.uniform(*self.lambda_min), rng.uniform(*self.lambda_max))

    def execute(self, fp, call, scratch: str):
        lo, hi = call
        path = os.path.join(scratch, "sweep.csv")
        argv = [
            "sweep", "--w", repr(self.w), "--delta", repr(self.delta),
            "--lambda-min", repr(lo), "--lambda-max", repr(hi),
            "--points", str(self.points), "--output", path,
        ]
        with contextlib.redirect_stderr(io.StringIO()):
            rc = fp.cli.main(argv)
        return rc, path

    def check(self, call, out) -> tuple:
        lo, hi = call
        rc, path = out
        try:
            if rc != 0:
                return self.points, self.points
            with open(path, encoding="utf-8") as fh:
                if fh.readline().strip() != "lambda,p_sim,p_closed,abs_err":
                    return self.points, self.points
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        finally:
            if os.path.exists(path):
                os.remove(path)
        if data.shape != (self.points, 4):
            return self.points, self.points
        lam, p_sim, p_closed, abs_err = data.T
        ok = np.abs(lam - np.linspace(lo, hi, self.points)) <= GRID_TOL
        ok &= abs_err <= SIM_CLOSED_TOL
        ok &= np.abs(p_sim - p_closed) <= SIM_CLOSED_TOL
        ok &= np.abs(p_sim - closed_amplitude(lam, self.w, self.l)) <= SIM_CLOSED_TOL
        floor = math.sqrt(1.0 - self.delta**2) - FLOOR_SLACK
        ok &= (lam < self.w) | (p_sim >= floor)
        return self.points, int(self.points - ok.sum())


class PointQueries:
    """Library closed loop on the README quickstart API plus the full register; item = one query."""

    def __init__(self, name, qubits, lam_range, w_fraction, delta_range, call_s):
        self.name = name
        self.qubits = qubits
        self.lam_range, self.w_fraction, self.delta_range = lam_range, w_fraction, delta_range
        self.items_per_call = 1
        self.call_s = call_s

    def params(self) -> dict:
        return {
            "qubits": list(self.qubits),
            "lambda_target_loguniform": list(self.lam_range),
            "w_over_lambda_uniform": list(self.w_fraction),
            "delta_uniform": list(self.delta_range),
            "calls": ["schedule_for", "run_search", "success_probability_closed", "run_full_search"],
        }

    def calls(self, seed: int):
        rng = _rng(self.name, seed)
        lo, hi = (math.log(v) for v in self.lam_range)
        while True:
            n = rng.choice(self.qubits)
            dim = 1 << n
            m = max(1, round(math.exp(rng.uniform(lo, hi)) ** 2 * dim))
            marked = tuple(rng.sample(range(dim), m))
            lam = math.sqrt(m / dim)
            w = lam * rng.uniform(*self.w_fraction)
            delta = rng.uniform(*self.delta_range)
            yield n, marked, lam, w, delta

    def execute(self, fp, call, scratch: str):
        n, marked, lam, w, delta = call
        sched = fp.schedule_for(fp.SearchParams(w=w, delta=delta))
        x = math.sqrt(1.0 - lam * lam)
        p_sim = abs(fp.run_search(x, sched).t_amp)
        p_closed = fp.success_probability_closed(lam, sched.w, sched.l)
        full = fp.run_full_search(n, fp.MarkedSet(indices=marked, n_qubits=n), sched)
        return sched.l, p_sim, p_closed, full

    def check(self, call, out) -> tuple:
        n, marked, lam, w, delta = call
        l, p_sim, p_closed, full = out
        ok = (
            l == min_iterations(w, delta)
            and full.phase_oracle_calls == l
            and full.standard_oracle_calls == 2 * l
            and abs(p_sim - p_closed) <= SIM_CLOSED_TOL
            and abs(p_sim * p_sim - full.success_probability) <= SUBSPACE_FULL_TOL
            and full.success_probability >= 1.0 - delta * delta - FLOOR_SLACK
        )
        return 1, 0 if ok else 1


class VerifyFull:
    """``fpsearch verify`` at the largest enumeration size; item = one verify call (26 checks)."""

    def __init__(self, name, max_L, call_s):
        self.name = name
        self.max_L = max_L
        self.items_per_call = 1
        self.call_s = call_s

    def params(self) -> dict:
        return {"argv": ["verify", "--max-L", str(self.max_L), "--seed", "<drawn per call>"], "checks": VERIFY_CHECKS}

    def calls(self, seed: int):
        rng = _rng(self.name, seed)
        while True:
            yield rng.randrange(2**31)

    def execute(self, fp, call, scratch: str):
        path = os.path.join(scratch, "verify.json")
        argv = ["verify", "--max-L", str(self.max_L), "--seed", str(call), "--output", path]
        with contextlib.redirect_stderr(io.StringIO()):
            rc = fp.cli.main(argv)
        return rc, path

    def check(self, call, out) -> tuple:
        rc, path = out
        try:
            with open(path, encoding="utf-8") as fh:
                results = json.load(fh)
        except (OSError, ValueError):
            return 1, 1
        finally:
            if os.path.exists(path):
                os.remove(path)
        ok = (
            rc == 0
            and len(results) == VERIFY_CHECKS
            and len({r["check_name"] for r in results}) == VERIFY_CHECKS
            and all(r["pass"] is True for r in results)
        )
        return 1, 0 if ok else 1


# call_s: nominal seconds per call on a 2-core Xeon at the benchmark's first
# commit; it only sizes the fixed amount of work a traced run repeats.
WORKLOADS = {
    w.name: w
    for w in (
        Sweep("sweep-deep", w=0.01, delta=0.01, points=40,
              lambda_min=(0.001, 0.02), lambda_max=(0.98, 1.0), call_s=0.2),
        Sweep("sweep-shallow", w=0.08, delta=0.3, points=10_000,
              lambda_min=(0.001, 0.02), lambda_max=(0.98, 1.0), call_s=2.2),
        PointQueries("point-queries", qubits=(10, 11, 12), lam_range=(0.03, 0.3),
                     w_fraction=(0.5, 1.0), delta_range=(0.05, 0.5), call_s=0.0007),
        VerifyFull("verify-full", max_L=25, call_s=1.4),
    )
}
