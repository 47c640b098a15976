"""Integration tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fpsearch import cli
from fpsearch.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, SPLIT_MIN_POINTS, build_parser, main
from fpsearch.combinat import MAX_TANGENT_L
from fpsearch.schedule import SearchParams, schedule_for
from fpsearch.sim2d import _BLOCK, _GROUPED_MAX, TwoDimState, run_search, success_probability_closed


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAngles:
    def test_reference_schedule(self, capsys):
        code, out, _ = run_cli(capsys, "angles", "--w", "0.08", "--delta", "0.3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["l"] == 12
        assert payload["L"] == 25
        assert len(payload["alpha_radians"]) == 12
        assert len(payload["beta_radians"]) == 12
        assert len(payload["phi_radians"]) == 24
        assert payload["delta"] == 0.3

    def test_explicit_iteration_count(self, capsys):
        code, out, _ = run_cli(capsys, "angles", "--w", "0.5", "--l", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["alpha_radians"]) == 1
        assert len(payload["beta_radians"]) == 1
        assert len(payload["phi_radians"]) == 2
        assert "delta" not in payload

    def test_out_of_range_w(self, capsys):
        code, _, err = run_cli(capsys, "angles", "--w", "1.5", "--delta", "0.3")
        assert code == EXIT_USAGE
        assert "(0, 1)" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "angles", "--w", "0.08", "--delta", "0.3")
        _, second, _ = run_cli(capsys, "angles", "--w", "0.08", "--delta", "0.3")
        assert first == second

    def test_csv_format_rejected(self, capsys):
        code, _, err = run_cli(capsys, "angles", "--format", "csv", "--w", "0.5", "--l", "1")
        assert code == EXIT_USAGE
        assert "format" in err

    def test_missing_subcommand_flags(self, capsys):
        code, _, _ = run_cli(capsys, "angles", "--w", "0.5")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("w", ["1e-300", "5e-324"])
    def test_count_past_the_cap_names_the_inputs(self, capsys, w):
        # the minimal count has about 300 digits at w = 1e-300 and overflows to inf at 5e-324
        code, _, err = run_cli(capsys, "angles", "--w", w, "--delta", "0.1")
        assert code == EXIT_USAGE
        assert len(err) < 200
        assert err == f"error: w = {float(w)} and delta = 0.1 need more than 49999 iterations, the cap on l\n"


class TestSweep:
    def test_endpoint_rows(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--w", "0.3", "--delta", "0.2", "--points", "2"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,p_sim,p_closed,abs_err"
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[2].split(",")]
        assert first[0] == 0.0 and abs(first[1]) <= 1e-10
        assert last[0] == 1.0 and abs(last[1] - 1.0) <= 1e-12
        assert "min P over lambda >=" in err

    def test_reference_sweep_bound(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys,
            "sweep",
            "--output", str(path),
            "--w", "0.08", "--delta", "0.3", "--points", "500",
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 500
        floor = math.sqrt(1.0 - 0.09)
        guarded = [float(r[1]) for r in rows if float(r[0]) >= 0.08]
        assert min(guarded) >= floor
        assert max(float(r[3]) for r in rows) <= 1e-9

    def test_large_grid(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--output", str(path), "--w", "0.08", "--delta", "0.3", "--points", "50000"
        )
        assert code == EXIT_OK
        lines = path.read_text().splitlines()
        assert len(lines) == 50_001
        assert max(float(line.rsplit(",", 1)[1]) for line in lines[1:]) <= 1e-9

    def test_bound_with_tighter_delta(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--w", "0.3", "--delta", "0.1", "--points", "200"
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        guarded = [float(r[1]) for r in rows if float(r[0]) >= 0.3]
        assert min(guarded) >= math.sqrt(0.99) - 1e-12

    def test_full_precision_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--w", "0.2", "--delta", "0.4", "--points", "3")
        row = out.strip().splitlines()[2].split(",")
        # 17 significant digits reproduce the double exactly
        assert float(row[1]) == float(format(float(row[1]), ".17g"))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--format", "json", "--w", "0.2", "--delta", "0.4", "--points", "4"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload) == 4
        assert set(payload[0]) == {"lambda", "p_sim", "p_closed", "abs_err"}

    def test_unwritable_path(self, capsys, tmp_path):
        path = tmp_path / "missing_dir" / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--output", str(path), "--w", "0.3", "--delta", "0.2", "--points", "2"
        )
        assert code == EXIT_IO
        assert "I/O error" in err

    def test_bad_grid(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--w", "0.3", "--delta", "0.2",
            "--lambda-min", "0.9", "--lambda-max", "0.1",
        )
        assert code == EXIT_USAGE

    def test_csv_matches_json(self, capsys):
        args = ("sweep", "--w", "0.01", "--delta", "0.01", "--points", "41")
        code, csv_out, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        code, json_out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == EXIT_OK
        lines = csv_out.splitlines()
        rows = json.loads(json_out)
        assert lines[0] == ",".join(rows[0])
        assert rows[0]["lambda"] == 0.0 and rows[-1]["lambda"] == 1.0
        assert all(row["abs_err"] == abs(row["p_sim"] - row["p_closed"]) for row in rows)
        assert lines[1:] == [",".join(format(v, ".17g") for v in row.values()) for row in rows]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--w", "0.2", "--delta", "0.4", "--points", "4"),
            ("--w", "0.01", "--delta", "0.01", "--points", "41"),
            # at least SPLIT_MIN_POINTS, so this and the next grid run split on two CPUs
            ("--w", "0.08", "--delta", "0.3", "--lambda-min", "0.001", "--points", "10000"),
            # the closed form overflows cosh (a known defect) and returns 0 where run_search gives 1
            pytest.param(
                ("--w", "0.5", "--l", "2000", "--points", "4000"),
                marks=pytest.mark.filterwarnings(
                    "ignore:overflow encountered in cosh:RuntimeWarning",
                    "ignore:invalid value encountered in divide:RuntimeWarning",
                ),
                id="cosh-overflow",
            ),
        ],
    )
    def test_json_is_json_dumps_of_the_rows(self, capsys, argv):
        # the reference is json.dumps of the CSV rows, whose 17 digits give back every float
        code, csv_out, csv_err = run_cli(capsys, "sweep", *argv)
        header, *lines = csv_out.splitlines()
        rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
        assert run_cli(capsys, "sweep", *argv, "--format", "json") == (code, json.dumps(rows, indent=2) + "\n", csv_err)

    def test_deterministic_output(self, capsys):
        args = ("sweep", "--w", "0.1", "--delta", "0.2", "--points", "50")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestSplitSweep:
    # a large sweep, CSV or JSON, runs in a forked child and this process when two CPUs
    # are allowed; the affinity is patched both ways, so each case runs both paths
    SCHEDULES = {12: ("--w", "0.08", "--delta", "0.3"), 265: ("--w", "0.01", "--delta", "0.01")}

    @staticmethod
    def sweep(monkeypatch, capsys, cpus, argv, path=None):
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", counted_fork)
        output = () if path is None else ("--output", str(path))
        code, out, err = run_cli(capsys, "sweep", *argv, *output)
        if path is not None:
            assert out == ""
            out = path.read_bytes().decode("ascii")
            path.unlink()
        return (code, out, err), len(forks)

    # the CLI in a new interpreter, and a wrapper interpreter that runs a command and
    # prints its peak RSS in kB (Linux's ru_maxrss unit); as the wrapper waits for no
    # other child, no earlier process can raise the figure
    CLI = (sys.executable, "-c", "from fpsearch.cli import entry_point; entry_point()")
    PEAK_RSS = "import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True); " \
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"

    @staticmethod
    def cli_env():
        src = os.path.dirname(os.path.dirname(cli.__file__))
        return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    POINTS = [SPLIT_MIN_POINTS, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK + 17, 10_000]

    def compare_split(self, monkeypatch, capsys, tmp_path, points, l, to_file, *fmt):
        # the serial output, after checking that the split run gives the same bytes, stderr and exit code
        argv = (*self.SCHEDULES[l], "--lambda-min", "0.001", "--points", str(points), *fmt)
        path = tmp_path / "sweep.out" if to_file else None
        serial, serial_forks = self.sweep(monkeypatch, capsys, 1, argv, path)
        split, split_forks = self.sweep(monkeypatch, capsys, 2, argv, path)
        assert (serial_forks, split_forks) == (0, 1)
        assert serial[0] == EXIT_OK
        assert split == serial
        return serial[1]

    @pytest.mark.parametrize("to_file", [True, False], ids=["output", "stdout"])
    @pytest.mark.parametrize("l", [12, 265])
    @pytest.mark.parametrize("points", POINTS)
    def test_split_matches_serial(self, monkeypatch, capsys, tmp_path, points, l, to_file):
        out = self.compare_split(monkeypatch, capsys, tmp_path, points, l, to_file)
        assert out.count("\n") == points + 1

    @pytest.mark.parametrize("to_file", [True, False], ids=["output", "stdout"])
    @pytest.mark.parametrize("l", [12, 265])
    @pytest.mark.parametrize("points", POINTS)
    def test_json_split_matches_serial(self, monkeypatch, capsys, tmp_path, points, l, to_file):
        out = self.compare_split(monkeypatch, capsys, tmp_path, points, l, to_file, "--format", "json")
        assert len(json.loads(out)) == points

    def test_split_matches_serial_on_a_failing_grid(self, monkeypatch, capsys, tmp_path):
        # from lambda = 0 at l = 265 some gaps exceed 1e-9, so both paths exit 1
        argv = (*self.SCHEDULES[265], "--points", "50000")
        serial, _ = self.sweep(monkeypatch, capsys, 1, argv, tmp_path / "sweep.csv")
        split, split_forks = self.sweep(monkeypatch, capsys, 2, argv, tmp_path / "sweep.csv")
        assert split_forks == 1
        assert serial[0] == EXIT_VERIFY_FAILED
        assert "FAILED sim_vs_closed: " in serial[2] and " of 50000 abs_err above 1e-09" in serial[2]
        assert split == serial

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "points", [_BLOCK + _GROUPED_MAX, _BLOCK + _GROUPED_MAX + 1, 2 * _BLOCK + 1, 2 * _BLOCK + _GROUPED_MAX]
    )
    def test_blocks_keep_the_whole_grid_bits(self, monkeypatch, capsys, points, cpus):
        # the sweep calls the library block by block; every column must still hold
        # the bits of one call over the whole grid, on either path
        argv = (*self.SCHEDULES[265], "--lambda-min", "0.001", "--points", str(points))
        (code, out, _), _ = self.sweep(monkeypatch, capsys, cpus, argv)
        lams, p_sim, p_closed, abs_err = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]).T
        sched = schedule_for(SearchParams(w=0.01, delta=0.01))
        grid = np.linspace(0.001, 1.0, points)
        sim = np.abs(run_search(np.sqrt(np.maximum(0.0, 1.0 - np.square(grid))), sched).t_amp)
        closed = success_probability_closed(grid, sched.w, sched.l)
        assert code == EXIT_OK
        assert lams.tobytes() == grid.tobytes()
        assert p_sim.tobytes() == sim.tobytes()
        assert p_closed.tobytes() == closed.tobytes()
        assert abs_err.tobytes() == np.abs(sim - closed).tobytes()

    def test_child_running_values_reach_the_parent(self, monkeypatch, capsys):
        # a NaN and a 1e-6 gap in the block that holds lambda = 1, which the child
        # sweeps on two CPUs: the minimum and the gap count must come out as on one
        parent = os.getpid()
        search = cli.run_search
        faulted = []

        def faulty_search(x, sched):
            state = search(x, sched)
            if x[-1] != 0.0:
                return state
            faulted.append(os.getpid())
            t = state.t_amp.copy()
            t[-2:] = t[-2] * (1.0 + 1e-6), np.nan
            return TwoDimState(r_amp=state.r_amp, t_amp=t)

        monkeypatch.setattr(cli, "run_search", faulty_search)
        argv = (*self.SCHEDULES[265], "--lambda-min", "0.001", "--points", "10000")
        serial, _ = self.sweep(monkeypatch, capsys, 1, argv)
        assert faulted == [parent]
        split, split_forks = self.sweep(monkeypatch, capsys, 2, argv)
        assert (split_forks, faulted) == (1, [parent])
        assert serial[0] == EXIT_VERIFY_FAILED
        assert "min P over lambda >= w=0.01: nan\n" in serial[2]
        assert "FAILED sim_vs_closed: 2 of 10000 abs_err above 1e-09\n" in serial[2]
        assert split == serial

    def test_small_grids_and_json_stay_serial(self, monkeypatch, capsys):
        # small grids stay serial in both formats; a large JSON grid splits as CSV does
        schedule = self.SCHEDULES[12]
        small_grid = (*schedule, "--points", str(SPLIT_MIN_POINTS - 1))
        small = self.sweep(monkeypatch, capsys, 2, small_grid)
        small_json = self.sweep(monkeypatch, capsys, 2, (*small_grid, "--format", "json"))
        as_json = self.sweep(monkeypatch, capsys, 2, (*schedule, "--points", str(SPLIT_MIN_POINTS), "--format", "json"))
        assert (small[0][0], small_json[0][0], as_json[0][0]) == (EXIT_OK, EXIT_OK, EXIT_OK)
        assert (small[1], small_json[1], as_json[1]) == (0, 0, 1)

    @pytest.mark.parametrize("side", ["child", "parent"])
    def test_failure_leaves_no_process(self, monkeypatch, capsys, tmp_path, side):
        parent = os.getpid()
        sweep_rows = cli.run_search

        def failing_rows(lams, sched):
            if (os.getpid() == parent) == (side == "parent"):
                raise RuntimeError(f"{side} slice refused")
            return sweep_rows(lams, sched)

        monkeypatch.setattr(cli, "run_search", failing_rows)
        argv = ("--w", "0.08", "--delta", "0.3", "--points", "10000", "--output", str(tmp_path / "sweep.csv"))
        if side == "child":
            (code, _, err), forks = self.sweep(monkeypatch, capsys, 2, argv)
            assert forks == 1
            assert code == EXIT_IO
            assert "sweep child process exited with code 1: RuntimeError: child slice refused" in err
        else:
            # an error the CLI does not map to an exit code reaches the caller, after the child is gone
            with pytest.raises(RuntimeError, match="parent slice refused"):
                self.sweep(monkeypatch, capsys, 2, argv)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_child_in_a_json_sweep(self, monkeypatch, capsys, tmp_path):
        parent = os.getpid()
        search = cli.run_search

        def failing_search(x, sched):
            if os.getpid() != parent:
                raise RuntimeError("child slice refused")
            return search(x, sched)

        monkeypatch.setattr(cli, "run_search", failing_search)
        argv = (*self.SCHEDULES[12], "--points", "10000", "--format", "json", "--output", str(tmp_path / "sweep.json"))
        (code, _, err), forks = self.sweep(monkeypatch, capsys, 2, argv)
        assert (forks, code) == (1, EXIT_IO)
        assert "sweep child process exited with code 1: RuntimeError: child slice refused" in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs"
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_split_warns_as_one_process(self, fmt):
        # in a new interpreter each process prints a warning once: the closed form's
        # cosh-overflow warnings must come from one process, as on one CPU
        argv = [*self.CLI, "sweep", "--w", "0.5", "--l", "2000", "--points", "4000", "--format", fmt]
        cpu = min(os.sched_getaffinity(0))
        two, one = (
            subprocess.run(argv, capture_output=True, text=True, env=self.cli_env(), preexec_fn=pin, check=False)
            for pin in (None, lambda: os.sched_setaffinity(0, {cpu}))
        )
        assert one.returncode == EXIT_VERIFY_FAILED
        assert "overflow encountered in cosh" in one.stderr
        assert (two.returncode, two.stdout, two.stderr) == (one.returncode, one.stdout, one.stderr)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or not hasattr(os, "sched_setaffinity"), reason="needs Linux"
    )
    def test_memory_stays_bounded(self):
        # a sweep holds its grid, its closed-form column and one block of work at a
        # time, so 498,000 more points must cost little more peak RSS than those two
        # columns (8 MB together)
        cpu = min(os.sched_getaffinity(0))

        def peak_kb(points):
            argv = [*self.CLI, "sweep", "--w", "0.01", "--delta", "0.01", "--lambda-min", "0.001",
                    "--points", str(points), "--output", os.devnull]
            done = subprocess.run([sys.executable, "-c", self.PEAK_RSS, *argv], capture_output=True, text=True,
                                  env=self.cli_env(), preexec_fn=lambda: os.sched_setaffinity(0, {cpu}), check=True)
            return int(done.stdout)

        small, large = peak_kb(2000), peak_kb(500_000)
        assert large - small <= 12 * 1024, f"peak RSS {small} kB at 2,000 points, {large} kB at 500,000"


class TestSimulate:
    def test_single_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--lambda", "0.2", "--w", "0.08", "--delta", "0.3"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["l"] == 12
        assert payload["p_sim"] >= 0.95
        assert payload["abs_err"] <= 1e-9

    def test_lambda_validation(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--lambda", "1.2", "--w", "0.08", "--delta", "0.3")
        assert code == EXIT_USAGE

    def test_iteration_cap(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--w", "0.1", "--l", "50000", "--lambda", "0.3")
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "49999" in err

    @pytest.mark.parametrize("lam", ["0", "0.01", "1"])
    def test_ends_of_the_unit_interval(self, capsys, lam):
        # lambda = 0 and 1 make x = 1 and 0, and lambda = w is the guarantee's edge
        code, out, _ = run_cli(capsys, "simulate", "--w", "0.01", "--delta", "0.01", "--lambda", lam)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert math.isfinite(payload["p_sim"]) and math.isfinite(payload["p_closed"])


class TestSimClosedGate:
    # each case once printed a sim-vs-closed gap above 1e-9 and exited 0; the
    # exit code must follow the printed gaps, whatever they become
    # the two simulate cases overflow cosh in the closed form (a known defect), so
    # they alone let that one RuntimeWarning through
    cosh_overflow = pytest.mark.filterwarnings("ignore:overflow encountered in cosh:RuntimeWarning")

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("simulate", "--w", "0.5", "--l", "2000", "--lambda", "0.3"), marks=cosh_overflow),
            pytest.param(("simulate", "--w", "0.9999", "--delta", "1e-200", "--lambda", "0.5"), marks=cosh_overflow),
            ("sweep", "--format", "json", "--w", "0.01", "--delta", "0.01",
             "--lambda-min", "0", "--lambda-max", "1e-5", "--points", "3"),
        ],
    )
    def test_exit_code_follows_abs_err(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        payload = json.loads(out)
        rows = payload if isinstance(payload, list) else [payload]
        within = all(row["abs_err"] <= 1e-9 for row in rows)
        assert code == (EXIT_OK if within else EXIT_VERIFY_FAILED)
        assert within or "FAILED sim_vs_closed" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--w", "--delta", "--lambda", "--lambda-min", "--lambda-max"])
def test_non_finite_float_flag(capsys, flag, value):
    if flag == "--lambda":
        flags = {"--w": "0.3", "--delta": "0.2", "--lambda": "0.5"}
        command = "simulate"
    else:
        flags = {"--w": "0.3", "--delta": "0.2", "--points": "2"}
        command = "sweep"
    flags[flag] = value
    code, out, err = run_cli(capsys, command, *(f"{k}={v}" for k, v in flags.items()))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


class TestStatevector:
    def test_single_qubit_explicit_marked(self, capsys):
        code, out, _ = run_cli(
            capsys, "statevector", "--qubits", "1", "--marked", "0", "--w", "0.5", "--delta", "0.5"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["lambda"] == pytest.approx(1.0 / math.sqrt(2.0))
        assert set(payload) == {
            "lambda", "l", "success_probability", "phase_oracle_calls", "standard_oracle_calls",
        }
        assert payload["standard_oracle_calls"] == 2 * payload["phase_oracle_calls"]

    def test_sampled_marked_set(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "statevector",
            "--qubits", "8", "--marked-count", "2", "--seed", "7",
            "--w", "0.08", "--delta", "0.3",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["success_probability"] >= 0.91

    def test_sampled_set_deterministic(self, capsys):
        args = (
            "statevector", "--qubits", "6", "--marked-count", "3", "--seed", "11",
            "--w", "0.2", "--delta", "0.3",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_seed_defaults_to_zero(self, capsys):
        args = ("statevector", "--qubits", "6", "--marked-count", "3", "--w", "0.2", "--delta", "0.3")
        code, unseeded, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        assert run_cli(capsys, *args, "--seed", "0")[1] == unseeded

    def test_seed_rejected_with_explicit_marked(self, capsys):
        code, out, err = run_cli(
            capsys, "statevector", "--qubits", "2", "--marked", "0", "--seed", "99", "--w", "0.5", "--l", "1"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--seed applies only to --marked-count" in err

    def test_negative_seed_named(self, capsys):
        code, out, err = run_cli(
            capsys, "statevector", "--qubits", "8", "--marked-count", "2", "--seed", "-1", "--w", "0.08", "--delta", "0.3"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --seed must be a non-negative integer, got -1\n"

    def test_qubit_cap_named(self, capsys):
        code, _, err = run_cli(
            capsys, "statevector", "--qubits", "13", "--marked", "0", "--w", "0.5", "--delta", "0.5"
        )
        assert code == EXIT_USAGE
        assert "12" in err

    def test_bad_marked_list(self, capsys):
        code, _, _ = run_cli(
            capsys, "statevector", "--qubits", "2", "--marked", "0,zebra", "--w", "0.5", "--delta", "0.5"
        )
        assert code == EXIT_USAGE
        code, _, err = run_cli(
            capsys, "statevector", "--qubits", "2", "--marked", "0,4", "--w", "0.5", "--delta", "0.5"
        )
        assert code == EXIT_USAGE
        assert "[0, 4)" in err


class TestVerify:
    def test_minimal_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-L", "3", "--seed", "42")
        assert code == EXIT_OK
        checks = json.loads(out)
        assert all(c["pass"] for c in checks)
        names = {c["check_name"] for c in checks}
        assert "star_line_bijection" in names
        assert "tangent_sum_identity" in names

    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-L", "9", "--seed", "42")
        assert code == EXIT_OK
        checks = json.loads(out)
        assert all(c["pass"] for c in checks)
        assert all("max_deviation" in c for c in checks)

    def test_even_max_l_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-L", "4")
        assert code == EXIT_USAGE
        assert "odd" in err

    def test_out_of_range_max_l(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-L", "27")
        assert code == EXIT_USAGE
        assert f"3..{MAX_TANGENT_L}" in err

    def test_negative_seed_named(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--max-L", "3", "--seed", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_failure_exit_path(self, capsys, monkeypatch):
        import fpsearch.verify as verify_module
        from fpsearch.verify import CheckResult

        def broken_suite(max_L, seed):
            return [
                CheckResult(
                    check_name="synthetic_failure", L=None, params={},
                    max_deviation=1.0, passed=False,
                )
            ]

        # cmd_verify imports the suite when it runs, so it reads the patched name
        monkeypatch.setattr(verify_module, "run_verification", broken_suite)
        code, out, err = run_cli(capsys, "verify", "--max-L", "3")
        assert code == EXIT_VERIFY_FAILED
        assert "synthetic_failure" in err
        assert not json.loads(out)[0]["pass"]


class TestArgumentModel:
    # the rest of each command line, valid on its own; a schedule's --delta or --l comes last
    BASE = {
        "angles": ("--w", "0.5", "--l", "1"),
        "sweep": ("--points", "2", "--w", "0.3", "--delta", "0.2"),
        "simulate": ("--lambda", "0.3", "--w", "0.5", "--l", "1"),
        "statevector": ("--qubits", "2", "--marked", "0", "--w", "0.5", "--l", "1"),
        "verify": ("--max-L", "3"),
    }
    SCHEDULED = ("angles", "sweep", "simulate", "statevector")

    @pytest.mark.parametrize("command", ["angles", "simulate", "statevector", "verify"])
    def test_format_only_on_sweep(self, capsys, command):
        assert run_cli(capsys, command, *self.BASE[command])[0] == EXIT_OK
        code, out, err = run_cli(capsys, command, *self.BASE[command], "--format", "json")
        assert code == EXIT_USAGE
        assert out == "" and "--format" in err

    @pytest.mark.parametrize("command", SCHEDULED)
    def test_delta_and_l_exclusive(self, capsys, command):
        code, out, err = run_cli(capsys, command, *self.BASE[command], "--delta", "0.3", "--l", "2")
        assert code == EXIT_USAGE
        assert out == "" and "not allowed with argument" in err

    @pytest.mark.parametrize("command", SCHEDULED)
    def test_schedule_required(self, capsys, command):
        code, _, err = run_cli(capsys, command, *self.BASE[command][:-2])
        assert code == EXIT_USAGE
        assert "one of the arguments --delta --l is required" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--w", "0.08", "--points", "50"),
            ("statevector", "--qubits", "8", "--marked-count", "2", "--seed", "7", "--w", "0.08"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_l_form_matches_delta_form(self, capsys, argv):
        # w = 0.08, delta = 0.3 gives l = 12
        by_delta = run_cli(capsys, *argv, "--delta", "0.3")
        by_l = run_cli(capsys, *argv, "--l", "12")
        assert by_delta[0] == EXIT_OK
        assert by_l == by_delta

    @pytest.mark.parametrize("command", list(BASE))
    def test_help(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == EXIT_OK
        assert out.startswith(f"usage: fpsearch {command}")


class TestParser:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_no_arguments(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == EXIT_USAGE

    def test_cached_parser_leaks_no_state(self, capsys):
        assert build_parser() is build_parser()
        calls = [
            ("simulate", "--w", "0.5", "--l", "1", "--lambda", "0.3"),
            ("simulate", "--w", "0.08", "--delta", "0.3", "--lambda", "0.2"),
            ("simulate", "--w", "0.08", "--lambda", "0.2"),
            ("sweep", "--w", "0.08", "--delta", "0.3", "--points", "50"),
        ]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv)[:2])
        build_parser.cache_clear()
        assert [run_cli(capsys, *argv)[:2] for argv in calls] == fresh
        assert fresh[2][0] == EXIT_USAGE

    def test_verify_failure_exit_code_is_distinct(self):
        assert EXIT_VERIFY_FAILED == 1
        assert EXIT_USAGE == 2
        assert EXIT_IO == 3

    def test_import_loads_no_verification_suite(self):
        # only cmd_verify imports the suite, so every other command starts without it.  Measured
        # against a bare numpy import: numpy 1.x loads numpy.polynomial itself, numpy >= 2 on first use
        heavy = ("fpsearch.verify", "fpsearch.combinat", "numpy.polynomial")
        code = (
            "import sys, numpy; base = set(sys.modules); import fpsearch.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules and m not in base])"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=TestSplitSweep.cli_env(), check=True)
        assert done.stdout == "[]\n"
