"""fpsearch benchmark: four seeded workloads, driven from outside the package.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py`` for the generators and correctness gates):

- ``sweep-deep``: ``sweep --w 0.01 --delta 0.01`` (l = 265), 40 points a call;
  isolates the per-iteration cost of ``sim2d.run_search``.
- ``sweep-shallow``: ``sweep --w 0.08 --delta 0.3`` (l = 12), 10 000 points a
  call; per-point fixed costs (closed form, CSV rows) weigh more.
- ``point-queries``: quickstart library calls plus ``run_full_search`` on a
  10-12 qubit register, one seeded query at a time.
- ``verify-full``: ``verify --max-L 25``; the enumeration oracles dominate.

Every measured run uses fresh worker interpreters started one at a time from
this single process (``worker.py``), with BLAS/OpenMP pinned to one thread, so
set-up time and peak memory are per-process quantities.  Closed loop, one
client.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: set-up time
(median of several spawns), items per second, per-item latency p50/p90 and
the workers' peak RSS, each with its quartiles and sample count; the error
rate is printed with them.  Per-item latency is a call's time divided by its
items: one query, one verify call, or one lambda point of a sweep call.  ``--trace 1`` runs a fixed amount of work once
untraced and once traced (``tracing.py``) and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 1 when any item fails its correctness check and 2
when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import subprocess
import sys
import time

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PYCACHE = os.path.join(ROOT, ".bench_build", "pycache")
CHUNKS = 4
SETUP_SPAWNS_PER_CHUNK = 2
DEADLINE_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample (numpy's default rule)."""
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def describe(values) -> dict:
    return {
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
        "n": len(values),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_ENV:
        env[var] = "1"
    # bytecode is cached, as for an installed package, but only inside the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    return env


class Worker:
    """One worker interpreter; ``setup_s`` runs from spawn until it reports ``ready``."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            cwd=ROOT,
            env=worker_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if ready else ""
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0
        if line != "ready\n":
            self.kill()
            raise BenchError("worker did not start (is src/fpsearch present?)")

    def _left(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()

    def finish(self, job: dict | None) -> dict | None:
        payload = json.dumps(job) + "\n" if job is not None else ""
        try:
            out, _ = self.proc.communicate(payload, timeout=self._left())
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("worker exceeded the run's time limit") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        if job is None:
            return None
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return json.loads(lines[-1])


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metadata(result: dict) -> dict:
    env = worker_env()
    return {
        "python": result["python"],
        "numpy": result["numpy"],
        "blas": result["blas"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "thread_env": {var: env.get(var) for var in THREAD_ENV},
        "pycache_prefix": os.path.relpath(PYCACHE, ROOT),
        "worker_threads": result["threads"],
        "max_concurrent_workers": 1,
    }


def job_for(name, seed, scratch, trace, seconds=None, calls=None, skip=0, spans_path=None) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "skip": skip,
        "seconds": seconds,
        "calls": calls,
        "trace": trace,
        "scratch": scratch,
        "spans_path": spans_path,
    }


def measure(name: str, seed: int, seconds: float, deadline: float) -> dict:
    """Untraced run: CHUNKS fresh workers in turn continue one seeded call sequence.

    Each worker spends ``seconds / CHUNKS`` inside the program and is preceded
    by set-up-only spawns, so set-up samples and peak-memory samples spread over
    the whole run instead of its first second.
    """
    scratch = os.path.join(OUT_DIR, "scratch")
    setups, chunks = [], []
    done = 0
    for _ in range(CHUNKS):
        for _ in range(SETUP_SPAWNS_PER_CHUNK):
            worker = Worker(deadline)
            setups.append(worker.setup_s)
            worker.finish(None)
        worker = Worker(deadline)
        setups.append(worker.setup_s)
        res = worker.finish(job_for(name, seed, scratch, trace=False, seconds=seconds / CHUNKS, skip=done))
        done += len(res["durations"])
        chunks.append(res)
    durations = [d for res in chunks for d in res["durations"]]
    items = [n for res in chunks for n in res["items"]]
    attempted = sum(items)
    failed = sum(sum(res["failed"]) for res in chunks)
    busy = sum(durations)
    latency_ms = [1e3 * d / n for d, n in zip(durations, items)]
    p90 = quantile(latency_ms, 0.9)
    detail = {
        "setup_s": {**describe(setups), "unit": "s"},
        "items_per_s": {"median": (attempted - failed) / busy, "n": attempted, "unit": "1/s", "busy_s": busy},
        "item_p50_ms": {**describe(latency_ms), "unit": "ms"},
        "item_p90_ms": {"median": p90, "n": len(latency_ms), "unit": "ms",
                        "samples_beyond": sum(1 for v in latency_ms if v > p90)},
        "peak_rss_mb": {**describe([res["maxrss_kb"] / 1024.0 for res in chunks]), "unit": "MB"},
        "error_rate": {"median": failed / attempted, "n": attempted, "unit": "1"},
    }
    return {"attempted": attempted, "failed": failed, "detail": detail, "meta": metadata(chunks[0])}


def trace_calls(name: str, seconds: float) -> int:
    """Fixed call count for a traced run, so that its counts repeat exactly for a seed."""
    return max(1, round(seconds / 2.0 / WORKLOADS[name].call_s))


def measure_traced(name: str, seed: int, seconds: float, deadline: float) -> dict:
    """Same fixed work untraced then traced, each in a fresh worker; per-layer totals from the latter."""
    scratch = os.path.join(OUT_DIR, "scratch")
    calls = trace_calls(name, seconds)
    plain = Worker(deadline).finish(job_for(name, seed, scratch, trace=False, calls=calls))
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.csv.gz")
    traced = Worker(deadline).finish(
        job_for(name, seed, scratch, trace=True, calls=calls, spans_path=spans_path)
    )
    layer = traced["trace"]
    metrics = {}
    for qualname, stats in layer.items():
        if qualname.startswith("verify."):
            metrics[f"{qualname}.incl_s"] = stats["incl_s"]
        else:
            metrics[f"{qualname}.calls"] = stats["calls"]
            metrics[f"{qualname}.self_s"] = stats["self_s"]
    run_search, full = layer["sim2d.run_search"], layer["statevector.run_full_search"]
    metrics["sim2d.run_search.iterations"] = run_search["work"]
    metrics["sim2d.run_search.ns_per_iteration"] = 1e9 * run_search["self_s"] / max(1, run_search["work"])
    metrics["complexpoly.chebyshev_T.elements"] = layer["complexpoly.chebyshev_T"]["work"]
    metrics["statevector.run_full_search.amp_updates"] = full["work"]
    metrics["statevector.run_full_search.ns_per_amp_update"] = 1e9 * full["self_s"] / max(1, full["work"])
    metrics["combinat.enumerate_tilings.tilings"] = layer["combinat.enumerate_tilings"]["work"]
    tan = layer["combinat.tan_table"]
    metrics["combinat.tan_table.useful_ratio"] = tan["distinct_work"] / tan["calls"] if tan["calls"] else 0.0
    metrics["trace.overhead_s"] = sum(traced["durations"]) - sum(plain["durations"])
    attempted = sum(plain["items"]) + sum(traced["items"])
    failed = sum(plain["failed"]) + sum(traced["failed"])
    busy = sum(traced["durations"])
    shares = sorted(
        ((stats["self_s"] / busy, q) for q, stats in layer.items() if not q.startswith("verify.")),
        reverse=True,
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "values": metrics,
        "calls": calls,
        "spans": traced["spans"],
        "spans_path": os.path.relpath(spans_path, ROOT),
        "self_share_top": [[q, round(s, 4)] for s, q in shares[:6]],
        "meta": metadata(traced),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, deadline: float) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    if trace:
        res = measure_traced(name, seed, seconds, deadline)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = res["values"]
        print(f"# {name} seed={seed} traced calls={res['calls']} spans={res['spans']} -> {res['spans_path']}")
        print(f"#   self-time share (top): {res['self_share_top']}")
    else:
        res = measure(name, seed, seconds, deadline)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {k: v["median"] for k, v in res["detail"].items()}
        print(f"# {name} seed={seed} attempted={res['attempted']} failed={res['failed']}")
        for key, d in res["detail"].items():
            spread = f" [q1 {d['q1']:.6g}, q3 {d['q3']:.6g}]" if "q1" in d else ""
            beyond = f" ({d['samples_beyond']} beyond)" if "samples_beyond" in d else ""
            print(f"#   {key:>12} = {d['median']:.6g} {d['unit']}{spread} n={d['n']}{beyond}")
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics missing from the run: {missing}")
    print(json.dumps({"workload": name, "seed": seed, "params": WORKLOADS[name].params(), "meta": res["meta"],
                      "detail": res.get("detail")}))
    return {
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        spec = load_spec()
        results = {}
        for name in names:
            deadline = time.perf_counter() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
