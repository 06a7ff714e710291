import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qsearch.cli as cli
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


@pytest.mark.parametrize("command", ["analog", "bound"])
def test_time_grid_rows_count_against_the_memory_budget(command, monkeypatch, capsys):
    # 10^5 + 1 report rows need about 115 MiB, over a 64 MiB budget
    monkeypatch.setattr(cli, "MEMORY_BUDGET", 64 << 20)
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "4", "--dt", "1e-5", "--horizon", "1", "--out", os.devnull])
    assert exc.value.code == 2
    assert "the time grid (from --energy/--horizon/--dt) of 100001 points" in capsys.readouterr().err


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
