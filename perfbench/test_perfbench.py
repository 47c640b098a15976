"""Self-tests of the benchmark: trace coverage and the correctness gates.

    python3 -m pytest perfbench -q

The package's own suite does not collect this file (its ``testpaths`` is
``tests``).  ``test_listed_functions_record_calls`` runs every workload once in
traced mode and takes about half a minute.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fpsearch  # noqa: E402
import fpsearch.cli  # noqa: E402
from tracing import Tracer, traced_functions  # noqa: E402
from workloads import WORKLOADS, PointQueries, Sweep, VerifyFull  # noqa: E402

SWEEP_LAYERS = [
    "cli.main",
    "schedule.make_schedule",
    "sim2d.run_search",
    "sim2d.success_probability_closed",
    "complexpoly.chebyshev_T",
]

# every per-layer metric's function, on the workload it is listed against
LISTED_ON = {
    "sweep-deep": SWEEP_LAYERS,
    "sweep-shallow": SWEEP_LAYERS,
    "point-queries": [
        "schedule.make_schedule",
        "sim2d.run_search",
        "sim2d.success_probability_closed",
        "complexpoly.chebyshev_T",
        "statevector.run_full_search",
    ],
    "verify-full": [
        "cli.main",
        "complexpoly.quasi_cheb_recursive",
        "combinat.tan_table",
        "combinat.enumerate_tilings",
        "combinat.tiling_weight",
        "combinat.coefficient_compare",
        "combinat.tangent_sum_terms",
        "combinat.vieta_terms",
    ],
}


def _modules():
    return [m for k, m in sys.modules.items() if m is not None and (k == "fpsearch" or k.startswith("fpsearch."))]


def test_tracer_patches_every_binding_site():
    originals = {}
    for qualname in traced_functions():
        mod, fname = qualname.split(".")
        originals[qualname] = getattr(sys.modules[f"fpsearch.{mod}"], fname)
    tracer = Tracer()
    tracer.install()
    try:
        for module in _modules():
            for attr, value in vars(module).items():
                assert not any(value is fn for fn in originals.values()), f"{module.__name__}.{attr} left unwrapped"
        # bound by name outside the defining module
        for site in ("fpsearch.cli.run_search", "fpsearch.cli.make_schedule",
                     "fpsearch.cli.success_probability_closed", "fpsearch.cli.run_full_search",
                     "fpsearch.sim2d.chebyshev_T", "fpsearch.run_search", "fpsearch.chebyshev_T"):
            assert any(site in sites for sites in tracer.bindings.values()), site
        fpsearch.cli.main(["simulate", "--lambda", "0.2", "--w", "0.08", "--delta", "0.3",
                           "--output", os.devnull])
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert fpsearch.cli.run_search is originals["sim2d.run_search"]
    assert summary["cli.main"]["calls"] == 1
    assert summary["sim2d.run_search"]["calls"] == 1
    assert summary["sim2d.run_search"]["work"] == 12
    assert summary["complexpoly.chebyshev_T"]["calls"] == 2
    child = summary["sim2d.success_probability_closed"]
    assert 0.0 <= child["self_s"] <= child["incl_s"]
    assert len(summary) == len(traced_functions()) == 13 + 26


@pytest.mark.parametrize("name", list(LISTED_ON))
def test_listed_functions_record_calls(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert set(metrics) == {m["name"] for m in json.load(fh)["per_layer"]}
    for qualname in LISTED_ON[name]:
        assert metrics[f"{qualname}.calls"] >= 1, qualname
    if name == "verify-full":
        checks = [k for k in metrics if k.startswith("verify.check_")]
        assert len(checks) == 26 and all(metrics[k] > 0 for k in checks)


@pytest.fixture
def scratch():
    """Scratch directory inside the checkout, as the benchmark itself uses."""
    path = os.path.join(ROOT, ".bench_build", "perfbench", "selftest")
    os.makedirs(path, exist_ok=True)
    return path


def _sweep_output(scratch, workload):
    call = next(workload.calls(0))
    return call, workload.execute(fpsearch, call, scratch)


def test_sweep_gate_flags_a_wrong_row(scratch):
    workload = Sweep("gate", w=0.08, delta=0.3, points=50, lambda_min=(0.0, 0.02),
                     lambda_max=(0.98, 1.0), call_s=0.0)
    call, out = _sweep_output(scratch, workload)
    assert workload.check(call, out) == (50, 0)
    call, out = _sweep_output(scratch, workload)
    with open(out[1], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lam, p_sim, p_closed, err = (float(v) for v in lines[30].split(","))
    lines[30] = ",".join(repr(v) for v in (lam, p_sim + 1e-6, p_closed + 1e-6, err))
    with open(out[1], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert workload.check(call, out) == (50, 1)
    assert workload.check(call, (2, out[1])) == (50, 50)


def test_point_query_gate_requires_the_guarantee():
    workload = WORKLOADS["point-queries"]
    assert isinstance(workload, PointQueries)
    call = next(workload.calls(0))
    out = workload.execute(fpsearch, call, "")
    assert workload.check(call, out) == (1, 0)
    l, p_sim, p_closed, full = out
    assert workload.check(call, (l, p_sim, p_closed + 1e-8, full)) == (1, 1)
    low = full._replace(success_probability=full.success_probability - 1e-9)
    assert workload.check(call, (l, p_sim, p_closed, low)) == (1, 1)
    assert workload.check(call, (l + 1, p_sim, p_closed, full)) == (1, 1)


def test_verify_gate_requires_every_check(scratch):
    workload = VerifyFull("gate", max_L=3, call_s=0.0)
    path = os.path.join(scratch, "verify.json")
    results = [{"check_name": f"c{i}", "pass": True} for i in range(26)]

    def check(rc, payload):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return workload.check(0, (rc, path))

    assert check(0, results) == (1, 0)
    assert check(1, results) == (1, 1)
    assert check(0, results[:25]) == (1, 1)
    results[5]["pass"] = False
    assert check(0, results) == (1, 1)


def test_min_iterations_matches_the_workload_parameters():
    assert WORKLOADS["sweep-deep"].l == 265
    assert WORKLOADS["sweep-shallow"].l == 12
    assert math.isclose(WORKLOADS["sweep-deep"].params()["max_L_acosh"], 5.31, abs_tol=0.01)


@pytest.mark.xfail(strict=True, reason="both amplitudes derive lambda from x = sqrt(1 - lambda^2), "
                   "which loses its digits at tiny lambda; the sweep workloads start at lambda >= 1e-3")
def test_sim_and_closed_form_agree_at_tiny_lambda():
    lam = 1e-5
    sched = fpsearch.make_schedule(0.01, 265)
    p_sim = abs(fpsearch.run_search(math.sqrt(1.0 - lam * lam), sched).t_amp)
    assert abs(p_sim - fpsearch.success_probability_closed(lam, 0.01, 265)) <= 1e-9
