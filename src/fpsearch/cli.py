"""Command-line front end.

Subcommands: ``angles`` (emit a schedule), ``sweep`` (success amplitude over a
lambda grid), ``simulate`` (single lambda), ``statevector`` (full-register
run), ``verify`` (invariant suite).  Output goes to stdout or ``--output``;
identical flags produce byte-identical output.  Exit codes: 0 success,
1 verification failure (a failed ``verify`` check, or a ``sweep`` or
``simulate`` sim-vs-closed gap above 1e-9), 2 usage error, 3 I/O error (a
failed ``sweep`` child process included).

``sweep`` writes CSV and JSON through one writer: a header, the rows formatted
in blocks of ``BLOCK_ROWS`` and joined by a separator, and a footer, per
``SWEEP_FORMATS``.  JSON floats are printed as ``repr``, as ``json.dumps``
prints them.  A sweep of at least ``SPLIT_MIN_POINTS`` points, on a process
allowed to run on two or more CPUs, simulates and formats the second half of
its grid in one forked child while the process does the first half.  Both
halves are cut on blocks of ``sim2d``'s blocked driver, and the closed form
runs over the whole grid before the fork, so the output and stderr are
byte-identical to the serial run's, which is what a single CPU or a smaller
grid take.

``main(argv)`` is also the in-process entry point: it returns the exit code
instead of exiting, and ``perfbench``'s worker loop, the test suite and
Python scripts call it many times in one process.  The argument parser is
built once per process, on the first ``main`` call, and reused, so those
calls skip the argparse rebuild and hold no parser per call; a single
``fpsearch`` run builds it once either way.  Handlers look up this module's
globals when they run.

Every subcommand takes ``--output``; only ``sweep`` takes ``--format csv|json``,
the others write JSON.  ``angles``, ``sweep``, ``simulate`` and ``statevector``
take ``--w`` with exactly one of ``--delta`` (minimal l) or ``--l`` (explicit
count); argparse rejects any other combination with exit code 2.

Range checks on the inputs live in the library.  This module checks only what
the library never sees (lambda grid, the marked set's parsing and sampling)
and turns every ``ValueError`` into ``error: <msg>`` with exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import mmap
import os
import sys
import tempfile

import numpy as np

from .schedule import SearchParams, make_schedule, schedule_for
from .sim2d import _BLOCK, run_search, success_probability_closed
from .statevector import MarkedSet, check_qubits, run_full_search
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

SIM_CLOSED_TOL = 1e-9
# a sweep formats its rows in blocks of this many, so that a large grid never
# holds all of its text at once
BLOCK_ROWS = 4096
# per sweep format: header, row template, row separator and footer.  A JSON row
# is what json.dumps(indent=2) prints for the row's dict: "%r" is repr, which
# json prints for a finite float, and every column is finite (the closed form
# takes a cosh overflow to 0).  "%.17g" prints a float exactly as _fmt does
SWEEP_FORMATS = {
    "csv": ("lambda,p_sim,p_closed,abs_err\n", "%.17g,%.17g,%.17g,%.17g", "\n", "\n"),
    "json": ("[\n", '  {\n    "lambda": %r,\n    "p_sim": %r,\n    "p_closed": %r,\n    "abs_err": %r\n  }',
             ",\n", "\n]\n"),
}
# a sweep of at least this many points runs in two processes when two CPUs
# are allowed.  Measured in process (min of 21, 2 cores, numpy 2.4.6), split
# over serial time: 1.40 at 1000 points, 0.99 at 2500, 0.95 at 3000 and 0.69 at
# 10000 for l = 12; 1.05 at 2000, 0.99 at 3000 and 0.73 at 10000 for l = 265
SPLIT_MIN_POINTS = 3000
# the parent copies the child's text in reads of this many characters
SPILL_CHUNK = 65536


def _fmt(value: float) -> str:
    return format(value, ".17g")


@contextlib.contextmanager
def _opened(path):
    # stdout, or the --output file opened for writing
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _emit_json(payload, path) -> None:
    with _opened(path) as out:
        out.write(json.dumps(payload, indent=2) + "\n")


def _schedule_from_args(args):
    if args.l is None:
        return schedule_for(SearchParams(w=args.w, delta=args.delta))
    return make_schedule(args.w, args.l)


def _gap_exit(errors) -> int:
    errors = np.asarray(errors)
    # written as "not <=" so that a NaN gap fails too
    bad = np.count_nonzero(~(errors <= SIM_CLOSED_TOL))
    if not bad:
        return EXIT_OK
    print(f"FAILED sim_vs_closed: {bad} of {len(errors)} abs_err above {SIM_CLOSED_TOL:g}", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def cmd_angles(args) -> int:
    sched = _schedule_from_args(args)
    _emit_json(sched.to_dict(), args.output)
    return EXIT_OK


def _sweep_grid(args) -> np.ndarray:
    if not 0.0 <= args.lambda_min < args.lambda_max <= 1.0:
        raise ValueError(
            f"need 0 <= lambda-min < lambda-max <= 1, got [{args.lambda_min}, {args.lambda_max}]"
        )
    if not 2 <= args.points <= 1_000_000:
        raise ValueError(f"points must be in 2..1000000, got {args.points}")
    return np.linspace(args.lambda_min, args.lambda_max, args.points)


def _fill_sim(table, lams, start: int, stop: int, sched) -> None:
    # p_sim and abs_err of rows [start:stop) of the sweep table, whose lambda and
    # p_closed columns are filled.  The kernel runs on the grid cut on _BLOCK
    # boundaries around the rows, so every point sees the block it sees in the
    # whole grid and gets the same bits
    lo, hi = start // _BLOCK * _BLOCK, -(-stop // _BLOCK) * _BLOCK
    x = np.sqrt(np.maximum(0.0, 1.0 - np.square(lams[lo:hi])))
    sim = np.abs(run_search(x, sched).t_amp)[start - lo:stop - lo]
    table[start:stop, 1], table[start:stop, 3] = sim, np.abs(sim - table[start:stop, 2])


def _row_chunks(table, row: str, sep: str):
    # the rows joined by sep, one %-format call per block of BLOCK_ROWS rows; every
    # block after the first starts with sep
    for start in range(0, len(table), BLOCK_ROWS):
        block = table[start:start + BLOCK_ROWS]
        lead = sep if start else ""
        yield (lead + sep.join((row,) * len(block))) % tuple(block.ravel().tolist())


def _two_cpus() -> bool:
    # whether this process may run on two or more CPUs
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _sweep_child(table, lams, mid: int, sched, row: str, sep: str, spill) -> None:
    # runs in the forked child and never returns: it fills rows [mid:] of the
    # shared table and spill with their text, or spill with its error.  os._exit
    # skips the atexit handlers and the flush of the buffers copied from the parent
    try:
        _fill_sim(table, lams, mid, len(lams), sched)
        spill.writelines(_row_chunks(table[mid:], row, sep))
        spill.flush()
        os._exit(0)
    except BaseException as exc:
        spill.seek(0)
        spill.truncate()
        spill.write(f"{type(exc).__name__}: {exc}")
        spill.flush()
    finally:
        os._exit(1)


def _split_sweep(table, lams, sched, out, row: str, sep: str) -> None:
    # rows [:mid] here and [mid:] in one forked child, written to out in order and
    # joined by sep.  table is shared memory; each side fills the simulated
    # columns of its rows (_fill_sim repeats at most one block per side).  Both
    # slices hold over _GROUPED_MAX points, so neither takes the grouped driver.
    # The child's text comes back through an unnamed file
    mid = len(lams) // 2
    with tempfile.TemporaryFile("w+", encoding="ascii", newline="") as spill:
        pid = os.fork()
        if pid == 0:
            _sweep_child(table, lams, mid, sched, row, sep, spill)
        try:
            _fill_sim(table, lams, 0, mid, sched)
            out.writelines(_row_chunks(table[:mid], row, sep))
        except BaseException:
            import signal  # only here, so that the CLI's start-up does not load it

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
        spill.seek(0)
        code = os.waitstatus_to_exitcode(status)
        if code:
            # a negative code is the signal that ended the child
            raise ChildProcessError(f"sweep child process exited with code {code}: {spill.read(SPILL_CHUNK)}")
        out.write(sep)
        out.writelines(iter(lambda: spill.read(SPILL_CHUNK), ""))


def cmd_sweep(args) -> int:
    sched = _schedule_from_args(args)
    lams = _sweep_grid(args)
    header, row, sep, footer = SWEEP_FORMATS[args.format]
    split = len(lams) >= SPLIT_MIN_POINTS and _two_cpus()
    # columns lambda, p_sim, p_closed, abs_err; a split sweep shares it with its child
    table = np.frombuffer(mmap.mmap(-1, 4 * lams.nbytes)).reshape(-1, 4) if split else np.empty((len(lams), 4))
    # the closed form runs here on the whole grid, before any fork, so that its
    # warnings are printed once, as in a serial run
    table[:, 0], table[:, 2] = lams, success_probability_closed(lams, sched.w, sched.l)
    with _opened(args.output) as out:
        out.write(header)
        if split:
            _split_sweep(table, lams, sched, out, row, sep)
        else:
            _fill_sim(table, lams, 0, len(lams), sched)
            out.writelines(_row_chunks(table, row, sep))
        out.write(footer)
    guaranteed = table[table[:, 0] >= sched.w, 1]
    if guaranteed.size:
        print(f"min P over lambda >= w={_fmt(sched.w)}: {_fmt(guaranteed.min())}", file=sys.stderr)
    else:
        print(f"no grid points with lambda >= w={_fmt(sched.w)}", file=sys.stderr)
    return _gap_exit(table[:, 3])


def cmd_simulate(args) -> int:
    sched = _schedule_from_args(args)
    # the closed form runs first: it is what rejects a lambda outside [0, 1]
    p_closed = success_probability_closed(args.lam, sched.w, sched.l)
    p_sim = abs(run_search(math.sqrt(max(0.0, 1.0 - args.lam * args.lam)), sched).t_amp)
    payload = {
        "lambda": args.lam,
        "w": sched.w,
        "l": sched.l,
        "L": sched.L,
        "p_sim": p_sim,
        "p_closed": p_closed,
        "abs_err": abs(p_sim - p_closed),
    }
    _emit_json(payload, args.output)
    return _gap_exit([payload["abs_err"]])


def _parse_marked(args, dim: int):
    if args.marked is not None:
        if args.seed is not None:
            raise ValueError("--seed applies only to --marked-count")
        try:
            return tuple(int(part) for part in args.marked.split(","))
        except ValueError as exc:
            raise ValueError(f"--marked must be a comma-separated integer list: {exc}") from exc
    if not 1 <= args.marked_count < dim:
        raise ValueError(f"--marked-count must be in 1..{dim - 1}, got {args.marked_count}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    rng = np.random.default_rng(0 if args.seed is None else args.seed)
    return tuple(int(i) for i in rng.choice(dim, size=args.marked_count, replace=False))


def cmd_statevector(args) -> int:
    # 1 << qubits below must not run on a size run_full_search would reject
    check_qubits(args.qubits)
    marked = MarkedSet(indices=_parse_marked(args, 1 << args.qubits), n_qubits=args.qubits)
    sched = _schedule_from_args(args)
    result = run_full_search(args.qubits, marked, sched)
    payload = {
        "lambda": marked.lam,
        "l": sched.l,
        "success_probability": result.success_probability,
        "phase_oracle_calls": result.phase_oracle_calls,
        "standard_oracle_calls": result.standard_oracle_calls,
    }
    _emit_json(payload, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_verification(max_L=args.max_L, seed=args.seed)
    _emit_json([r.to_dict() for r in results], args.output)
    failed = [r for r in results if not r.passed]
    for r in failed:
        print(f"FAILED {r.check_name}: max deviation {r.max_deviation:g}", file=sys.stderr)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpsearch",
        description="Fixed-point search schedules, simulators and identity verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="write output to this path instead of stdout")
    schedule = argparse.ArgumentParser(add_help=False)
    schedule.add_argument("--w", type=float, required=True, help="lower bound on the marked amplitude")
    group = schedule.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=float, help="failure bound; l is the minimal count for it")
    group.add_argument("--l", type=int, help="explicit iteration count")
    scheduled = [common, schedule]
    sub = parser.add_subparsers(dest="command", required=True)

    p_angles = sub.add_parser("angles", parents=scheduled, help="emit the angle schedule as JSON")
    p_angles.set_defaults(handler=cmd_angles)

    p_sweep = sub.add_parser("sweep", parents=scheduled, help="success amplitude over a lambda grid (CSV)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p_sweep.add_argument("--lambda-min", dest="lambda_min", type=float, default=0.0)
    p_sweep.add_argument("--lambda-max", dest="lambda_max", type=float, default=1.0)
    p_sweep.add_argument("--points", type=int, default=500)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_sim = sub.add_parser("simulate", parents=scheduled, help="simulate a single lambda")
    p_sim.add_argument("--lambda", dest="lam", type=float, required=True)
    p_sim.set_defaults(handler=cmd_simulate)

    p_state = sub.add_parser("statevector", parents=scheduled, help="full-register run on 2^n amplitudes")
    p_state.add_argument("--qubits", type=int, required=True)
    marked = p_state.add_mutually_exclusive_group(required=True)
    marked.add_argument("--marked", type=str, default=None, help="comma-separated marked indices")
    marked.add_argument("--marked-count", dest="marked_count", type=int, default=None)
    p_state.add_argument("--seed", type=int, default=None, help="seed for --marked-count (default 0)")
    p_state.set_defaults(handler=cmd_statevector)

    p_verify = sub.add_parser("verify", parents=[common], help="run the invariant verification suite")
    p_verify.add_argument("--max-L", dest="max_L", type=int, default=9)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
