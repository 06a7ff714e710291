import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsearch.bound
import qsearch.cli as cli
import qsearch.grover
from qsearch.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    if name.endswith(".json"):
        return code, json.loads(out.read_text())
    return code, out.read_text()


class TestAnalogCommand:
    def test_basis_target_at_n4(self, tmp_path):
        code, rep = run_cli(["analog", "--n", "4", "--energy", "1", "--w", "0"], tmp_path)
        assert code == 0
        assert rep["schema"] == "v1"
        assert rep["derived"]["t_m"] == pytest.approx(math.pi, abs=1e-12)
        assert rep["derived"]["max_deviation"] < 1e-8
        assert rep["derived"]["eigenvalue_low"] == pytest.approx(0.5, abs=1e-12)
        assert rep["derived"]["eigenvalue_high"] == pytest.approx(1.5, abs=1e-12)
        cols = rep["series"]["columns"]
        assert cols == ["t", "p_closed_form", "p_full_space", "abs_difference"]

    def test_colinear_target(self, tmp_path):
        code, rep = run_cli(["analog", "--n", "2", "--w", "s"], tmp_path)
        assert code == 0
        assert rep["derived"]["t_m"] == pytest.approx(math.pi / 2, abs=1e-12)
        p_closed = [row[1] for row in rep["series"]["rows"]]
        assert min(p_closed) > 1.0 - 1e-12

    def test_random_target_self_consistency(self, tmp_path):
        code, rep = run_cli(
            ["analog", "--n", "1024", "--w", "random", "--seed", "9"], tmp_path
        )
        assert code == 0
        s = np.array([complex(re, im) for re, im in rep["derived"]["s"]])
        w = np.array([complex(re, im) for re, im in rep["derived"]["w"]])
        x = abs(np.vdot(s, w))
        assert rep["derived"]["t_m"] == pytest.approx(math.pi / (2 * x), abs=1e-9)


class TestGroverCommand:
    def test_four_items_single_step(self, tmp_path):
        code, rep = run_cli(["grover", "--n", "4"], tmp_path)
        assert code == 0
        assert rep["derived"]["k_star"] == 1
        assert rep["series"]["rows"][1] == [1, 1.0, 1.0, 2]

    def test_two_items_plateau_documented(self, tmp_path):
        code, rep = run_cli(["grover", "--n", "2", "--iterations", "4"], tmp_path)
        assert code == 0
        assert rep["derived"]["k_star"] == 0
        for row in rep["series"]["rows"]:
            assert row[1] == pytest.approx(0.5, abs=1e-12)

    def test_large_space_optimal_count(self, tmp_path):
        code, rep = run_cli(["grover", "--n", "4096"], tmp_path)
        assert code == 0
        assert rep["derived"]["k_star"] == 50
        last = rep["series"]["rows"][-1]
        assert last[1] >= 1.0 - 1.0 / 4096.0
        corr = rep["derived"]["correspondence"]
        assert corr["t_m_times_ex"] == pytest.approx(math.pi / 2, abs=1e-12)
        assert corr["k_star_theta"] == pytest.approx(math.pi / 2, abs=0.02)

    def test_oracle_call_accounting(self, tmp_path):
        code, rep = run_cli(["grover", "--n", "16", "--iterations", "7"], tmp_path)
        assert code == 0
        assert [row[3] for row in rep["series"]["rows"]] == [2 * k for k in range(8)]


class TestBoundCommand:
    def test_paper_driver_saturation_fraction(self, tmp_path):
        code, rep = run_cli(
            ["bound", "--n", "16", "--driver", "paper", "--dt", "0.01",
             "--horizon", f"{2 * math.pi}"],
            tmp_path,
        )
        assert code == 0
        assert rep["summary"]["bound_satisfied"]
        assert rep["derived"]["ratio_at_t_m_equivalent"] == pytest.approx(2 / math.pi, abs=1e-3)

    def test_zero_driver_closed_form(self, tmp_path):
        code, rep = run_cli(["bound", "--n", "8", "--driver", "zero"], tmp_path)
        assert code == 0
        for row in rep["series"]["rows"]:
            t, d = row[0], row[1]
            assert d == pytest.approx(2.0 * (1.0 - math.cos(t)), abs=1e-8)

    def test_strong_random_driver_cannot_beat_the_cap(self, tmp_path):
        code, rep = run_cli(
            ["bound", "--n", "8", "--driver", "random-dense", "--driver-norm-mult", "100",
             "--seed", "3", "--epsilon", "2"],
            tmp_path,
        )
        assert code == 0
        assert rep["summary"]["bound_satisfied"]
        assert rep["summary"]["derivative_bound_satisfied"]

    def test_piecewise_driver_at_a_long_horizon(self, tmp_path):
        # E = 1e-7 sets a horizon near 1.3e8, where the summed segment durations round
        code, rep = run_cli(["bound", "--n", "16", "--driver", "piecewise", "--energy", "1e-7"], tmp_path)
        assert code == 0
        assert rep["summary"]["bound_satisfied"]


class TestStatsCommand:
    def test_pass_band(self, tmp_path):
        code, rep = run_cli(["stats", "--n", "16", "--samples", "20000", "--seed", "1"], tmp_path)
        assert code == 0
        d = rep["derived"]
        assert abs(d["mean_x2"] - 1.0 / 16.0) <= 4.0 * d["stderr_x2"]
        assert d["generator"] == "numpy-SFC64"

    def test_dimension_one(self, tmp_path):
        code, rep = run_cli(["stats", "--n", "1", "--samples", "500"], tmp_path)
        assert code == 0
        assert rep["derived"]["mean_x2"] == 1.0

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["stats", "--n", "64", "--samples", "5000", "--seed", "77"]
        main(args + ["--out", str(tmp_path / "a.json")])
        main(args + ["--out", str(tmp_path / "b.json")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestCsvFormat:
    def test_csv_is_deterministic_and_parseable(self, tmp_path):
        args = ["analog", "--n", "8", "--format", "csv"]
        code, text = run_cli(args, tmp_path, name="a.csv")
        assert code == 0
        _, again = run_cli(args, tmp_path, name="b.csv")
        assert text == again
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert header == "t,p_closed_form,p_full_space,abs_difference"
        first = [float(v) for v in rows[0].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_float_fields_roundtrip_doubles(self, tmp_path):
        code, text = run_cli(["stats", "--n", "16", "--samples", "1000", "--format", "csv"],
                             tmp_path, name="s.csv")
        assert code == 0
        data_line = [l for l in text.splitlines() if not l.startswith("#")][1]
        json_code, rep = run_cli(["stats", "--n", "16", "--samples", "1000"], tmp_path)
        mean_csv = float(data_line.split(",")[2])
        assert mean_csv == rep["derived"]["mean_x2"]  # 17 significant digits round-trip


def test_every_command_is_deterministic(tmp_path):
    cases = [
        ["analog", "--n", "16", "--w", "random", "--seed", "5"],
        ["grover", "--n", "64", "--marked", "random", "--seed", "5"],
        ["bound", "--n", "4", "--driver", "piecewise", "--seed", "5"],
        ["stats", "--n", "4", "--samples", "1000", "--seed", "5"],
    ]
    for args in cases:
        main(args + ["--out", str(tmp_path / "x.json")])
        main(args + ["--out", str(tmp_path / "y.json")])
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        # time grids too large to build, and a seed numpy refuses
        "analog --n 8 --dt 1e-320",
        "bound --n 4 --horizon 1e308 --dt 1e-10",
        "analog --n 4 --dt 1e-300",
        "bound --n 4 --energy 1e308",
        "analog --n 4 --seed -1",
        "stats --n 4 --seed -1",
        # single-flag ranges
        "grover --n 1",
        "stats --n 0",
        "stats --n 4 --samples 99",
        "grover --n 4 --iterations -1",
        "bound --n 4 --segments 0",
        "analog --n 4 --energy inf",
        "bound --n 4 --epsilon nan",
        "bound --n 4 --epsilon 9",
        "bound --n 5000",
        "bound --n 4 --driver warp",
        # the target index against --n
        "analog --n 4 --w abc",
        "analog --n 4 --w 9",
        "grover --n 4 --marked x",
        "grover --n 4 --marked 99",
        # byte estimates above the memory budget
        "analog --n 1000000000000",
        "grover --n 1000000000000",
        "stats --n 1000000000000 --samples 100",
        "bound --n 4096 --driver piecewise --segments 100000",
        # an overflowing driver norm, and a derived value beyond double range
        "bound --n 8 --energy 10 --driver-norm-mult 1e308",
        "bound --n 8 --driver-norm-mult 1e308",
        "bound --n 8 --driver random-dense --driver-norm-mult 1e308",
        "bound --n 8 --energy 1e300",
        # a library refusal, and Python or numpy arithmetic beyond a double's range
        "analog --n 16 --energy 5e-324 --horizon 1e-10",
        "analog --n 8 --energy 1.7e308 --dt 0.001 --horizon 100 --w random",
        "bound --n 4 --driver piecewise --segments 1000 --horizon 1e-321",
        "bound --n 2 --horizon 1e-320 --driver random-dense --driver-norm-mult 1.7e308",
        # analog phases beyond what a double resolves at the pass tolerance
        "analog --n 12 --seed 4 --dt 1.7e308 --horizon 1e300 --w random",
        "analog --n 2 --seed 1 --energy 1e-10 --dt 1e308 --horizon 5.752585303661981e+115 --w random",
    ],
    ids=lambda argv: argv.replace(" ", "_"),
)
def test_usage_errors_exit_2_with_one_error_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split() + ["--out", os.devnull])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]


@pytest.mark.parametrize(
    "argv, message",
    [
        ("analog --n 4 --w abc", "argument --w: expected a basis index, 'random' or 's', got 'abc'"),
        ("grover --n 4 --marked x", "argument --marked: expected a basis index or 'random', got 'x'"),
    ],
)
def test_target_that_is_no_index_names_its_flag_and_words(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split() + ["--out", os.devnull])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if "error:" in line] == [lines[-1]]
    assert lines[-1].endswith(f"error: {message}")


FUZZ_FLOATS = st.sampled_from(
    ["5e-324", "1e-320", "1e-300", "1e-10", "1e-3", "0.5", "1", "3", "1e300", "1e308", "1.7e308"]
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["analog", "grover", "bound", "stats"]))
    argv = [command, "--n", str(draw(st.integers(1, 16))), "--seed", str(draw(st.integers(0, 3)))]

    def maybe(flag, values):
        if draw(st.booleans()):
            argv.extend([flag, str(draw(values))])

    if command in ("analog", "bound"):
        for flag in ("--energy", "--dt", "--horizon"):
            maybe(flag, FUZZ_FLOATS)
    if command == "analog":
        maybe("--w", st.sampled_from(["random", "s", "0", "3", "9", "-1", "abc"]))
    elif command == "grover":
        maybe("--marked", st.sampled_from(["random", "0", "5", "99", "-1", "x"]))
        maybe("--iterations", st.integers(0, 20))
    elif command == "bound":
        maybe("--driver", st.sampled_from(["paper", "zero", "random-dense", "piecewise"]))
        maybe("--driver-norm-mult", FUZZ_FLOATS)
        maybe("--epsilon", FUZZ_FLOATS)
        maybe("--segments", st.integers(1, 20))
    else:
        maybe("--samples", st.sampled_from([100, 1000]))
    return argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argvs())
def test_every_argv_runs_or_exits_with_one_line(argv):
    err = io.StringIO()
    budget = 16 << 20
    # patched here, not by a fixture: hypothesis refuses function-scoped fixtures
    with mock.patch.object(cli, "MEMORY_BUDGET", budget), contextlib.redirect_stderr(err):
        tracemalloc.start()
        try:
            code = main(argv + ["--out", os.devnull])
        except SystemExit as exc:
            code = exc.code
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
    assert code in (0, 1, 2)
    if code == 0:  # an admitted run stays within the budget it was admitted under
        assert peak <= budget
    lines = err.getvalue().splitlines()
    assert not any("Traceback" in line for line in lines)
    if code == 2:
        assert [line for line in lines if "error:" in line] == [lines[-1]]
    elif code == 1:
        assert lines[-1].startswith(f"qsearch {argv[0]}:")


@pytest.mark.parametrize("mult, nodes", [("70", 64), ("2000", 16 * 99)])
def test_strong_driver_on_a_coarse_grid_stays_within_its_charge(mult, nodes, monkeypatch):
    # N = 128 on 72 points: at 70 E the distance integral takes 64 nodes a step, the
    # most it takes at this N; at 2000 E the states are read at the grid points. The
    # budget is the run's charge, its estimate and 56 N bytes and a report row per
    # point, so that a byte less refuses it.
    n, horizon = 128, math.pi * math.sqrt(128)
    argv = ["bound", "--n", str(n), "--driver", "random-dense", "--driver-norm-mult", mult,
            "--dt", "0.5", "--seed", "5", "--out", os.devnull]
    driver = qsearch.bound.build_driver("random-dense", n, 1.0, float(mult), horizon, np.random.default_rng(5))
    p, parts = qsearch.bound._node_rule((np.ptp(np.linalg.eigvalsh(driver.segments[0][1].mat)) + 1.0) * horizon / 71)
    assert p * parts == nodes
    budget = cli._estimated_bytes("bound", cli.build_parser().parse_args(argv)) + 72 * (56 * n + cli.REPORT_ROW_BYTES)
    monkeypatch.setattr(cli, "MEMORY_BUDGET", budget - 1)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    monkeypatch.setattr(cli, "MEMORY_BUDGET", budget)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


@pytest.mark.parametrize("command", ["analog", "bound"])
def test_time_grid_rows_count_against_the_memory_budget(command, monkeypatch, capsys):
    # 10^5 + 1 report rows need about 115 MiB, over a 64 MiB budget
    monkeypatch.setattr(cli, "MEMORY_BUDGET", 64 << 20)
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "4", "--dt", "1e-5", "--horizon", "1", "--out", os.devnull])
    assert exc.value.code == 2
    assert "the time grid (from --energy/--horizon/--dt) of 100001 points" in capsys.readouterr().err


def test_analog_counts_its_n_part_and_grid_rows_against_one_budget(monkeypatch, capsys):
    # Each part fits a 16 MiB budget alone: 1100 N bytes are 15.7 MiB, and the
    # 13,891 report rows of the grid 15.9 MiB. Together they do not.
    monkeypatch.setattr(cli, "MEMORY_BUDGET", 16 << 20)
    with pytest.raises(SystemExit) as exc:
        main(["analog", "--n", "15000", "--dt", "0.0277", "--out", os.devnull])
    assert exc.value.code == 2
    assert "this run needs about 31 MiB, more than the 16 MiB budget" in capsys.readouterr().err


def _assert_exit_1_without_report(argv, tmp_path, capsys, message=""):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"qsearch {argv[0]}:")
    assert message in err.splitlines()[-1]
    assert not out.exists()


def test_bound_norm_drift_exits_1(tmp_path, monkeypatch, capsys):
    # the reference's state at the segment end is the first table built here: its check fires
    phase_table = qsearch.bound._phase_table

    def drifting(*args, **kwargs):
        return phase_table(*args, **kwargs) * (1.0 + 1e-6)

    monkeypatch.setattr(qsearch.bound, "_phase_table", drifting)
    _assert_exit_1_without_report(["bound", "--n", "4"], tmp_path, capsys, "drifts in norm")


def test_bound_oracle_norm_drift_exits_1(tmp_path, monkeypatch, capsys):
    # the oracles' eigenvectors alone drift: the check on their hand-off states fires
    eigh = qsearch.bound.rank_one_eigh

    def drifting(*args, **kwargs):
        mu, phase, q = eigh(*args, **kwargs)
        return mu, phase, q * (1.0 + 1e-6)

    monkeypatch.setattr(qsearch.bound, "rank_one_eigh", drifting)
    _assert_exit_1_without_report(["bound", "--n", "4"], tmp_path, capsys, "drifts in norm")


@pytest.mark.parametrize("driver", ["paper", "piecewise"])
def test_bound_integral_drift_exits_1(driver, tmp_path, monkeypatch, capsys):
    # one node per step, the midpoint rule: the distance integrated to a segment's last
    # grid point misses the one its states give by about 1e-6
    monkeypatch.setattr(qsearch.bound, "GAUSS_RULES", ((1, 20.2),))
    _assert_exit_1_without_report(["bound", "--n", "4", "--driver", driver], tmp_path, capsys,
                                  "integrated distance misses")


def test_grover_norm_drift_exits_1(tmp_path, monkeypatch, capsys):
    reflect = qsearch.grover._reflect_about_mean

    def drifting(a, out):
        return np.multiply(reflect(a, out), 1.0 + 1e-6, out=out)

    monkeypatch.setattr(qsearch.grover, "_reflect_about_mean", drifting)
    # k* = 6 steps drift the norm by 6e-6, past NORM_TOL
    _assert_exit_1_without_report(["grover", "--n", "64"], tmp_path, capsys)


def test_failed_report_check_exits_1_and_writes_the_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "GROVER_PASS_TOL", 0.0)
    code, rep = run_cli(["grover", "--n", "64"], tmp_path)
    assert code == 1
    assert rep["summary"]["pass"] is False
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("qsearch grover: numerical check failed:")


def test_grid_error_names_the_flags_it_derives_from(capsys):
    # 2 * energy overflows, so the default t_m and dt are 0: no --dt was given
    with pytest.raises(SystemExit):
        main(["bound", "--n", "4", "--energy", "1e308", "--out", os.devnull])
    assert "--energy" in capsys.readouterr().err


def test_analog_report_is_independent_of_blas_thread_count(tmp_path):
    # Holds for this case; at N = 262144 the two thread counts still differ.
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "qsearch.cli", "analog", "--n", "512", "--w", "random",
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_stats_report_is_independent_of_blas_thread_count(tmp_path):
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "qsearch.cli", "stats", "--n", "256", "--samples", "20000",
             "--seed", "3", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_benchmark_tracer_installs_and_removes_its_wrappers(tmp_path, monkeypatch):
    # benchmark/spans.py wraps qsearch.cli names by getattr; a rename must fail here.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "benchmark" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_spans", spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    before = cli.cmd_analog
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert main(["analog", "--n", "4", "--out", str(tmp_path / "a.json")]) == 0
    assert cli.cmd_analog is before
    assert {"cli.cmd", "analog.closed_form", "cli.report_write"} <= {s.name for s in tracer.spans}


def test_driver_strength_scan_script_runs():
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "driver_strength_scan.py"), "--n", "4"],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "no driver beats the floor" in proc.stdout


def test_driver_strength_scan_exits_when_a_driver_beats_the_floor(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("driver_strength_scan", ROOT / "scripts" / "driver_strength_scan.py")
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    discrimination_time = scan.discrimination_time

    def early(traj, epsilon):
        return dataclasses.replace(discrimination_time(traj, epsilon), t_epsilon_second=0.0,
                                   lower_bound_satisfied=False)

    monkeypatch.setattr(scan, "discrimination_time", early)
    monkeypatch.setattr(sys, "argv", ["driver_strength_scan.py", "--n", "4"])
    with pytest.raises(SystemExit) as exc:
        scan.main()
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message  # one line on stderr, exit code 1
    assert message.startswith("paper driver at norm/E 1: t_eps 0.000") and "below the floor" in message
    assert "no driver beats the floor" not in capsys.readouterr().out


def test_reproduce_claims_script_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_claims.py"), "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.json"))) == 18
    headers = [line for line in proc.stdout.splitlines() if line.startswith("== ")]
    assert [h.split(":")[0] for h in headers] == [
        "== analog evolution", "== digital iteration", "== divergence growth", "== random overlaps"]
