"""Benchmark worker: one fresh interpreter per measured run.

Protocol with ``run.py`` over stdin/stdout:

1. import ``fpsearch.cli`` from the checkout's ``src`` and print ``ready``
   (the parent's clock for ``setup_s`` stops on that line);
2. read one JSON job line; end of input means a set-up-only spawn;
3. run the job and print one JSON result line.

Only ``os`` and ``sys`` are imported before ``ready``, so set-up time is the
interpreter start plus the package import, numpy included.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
try:
    import fpsearch.cli  # noqa: E402
except ImportError as exc:
    sys.exit(f"worker: cannot import fpsearch from {SRC}: {exc}")
if not os.path.abspath(fpsearch.cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"worker: fpsearch imported from {fpsearch.cli.__file__}, not from {SRC}")
sys.stdout.write("ready\n")
sys.stdout.flush()

import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _thread_count() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def run_job(job: dict) -> dict:
    workload = WORKLOADS[job["workload"]]
    scratch = job["scratch"]
    os.makedirs(scratch, exist_ok=True)
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    stop = None if job["calls"] is None else job["skip"] + job["calls"]
    calls = itertools.islice(workload.calls(job["seed"]), job["skip"], stop)
    durations, items, failed = [], [], []
    busy = 0.0
    for index, call in enumerate(calls):
        # stop when the time budget is nearer now than it would be after one more call
        if job["calls"] is None and durations and busy + 0.5 * busy / len(durations) >= job["seconds"]:
            break
        if tracer is not None:
            tracer.item = index
        t0 = time.perf_counter()
        try:
            out = workload.execute(fpsearch, call, scratch)
        except Exception as exc:  # a raising call is a failed item, not a crashed run
            traceback.print_exc()
            out = exc
        dt = time.perf_counter() - t0
        busy += dt
        if isinstance(out, Exception):
            n = bad = workload.items_per_call
        else:
            n, bad = workload.check(call, out)
        durations.append(dt)
        items.append(n)
        failed.append(bad)
    result = {
        "durations": durations,
        "items": items,
        "failed": failed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": _thread_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["spans"] = len(tracer)
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    return result


def main() -> int:
    line = sys.stdin.readline()
    if not line:
        return 0
    result = run_job(json.loads(line))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
