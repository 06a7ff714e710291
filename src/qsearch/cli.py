"""Command-line front door.

Four subcommands (``analog``, ``grover``, ``bound``, ``stats``) run the four
experiment families and emit a self-describing report (JSON schema "v1" or
CSV with comment headers) embedding the config, seed, tool version and all
derived constants, so downstream plotting needs no side channel. Exit codes:
0 pass, 1 numerical-check failure, 2 usage error. Every command is
deterministic given its full flag set, and reruns at a fixed BLAS thread
count produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analog import (
    COLINEAR_TOL,
    TwoLevelSystem,
    full_space_probability,
    measurement_time,
    success_probability,
    two_level_eigenvalues,
)
# Unused here; kept importable because the benchmark's tracer wraps it by name.
from .analog import assemble_search_hamiltonian  # noqa: F401
from .bound import build_driver, discrimination_time, evolve_trajectories
from .errors import QSearchError
from .grover import (
    GroverInstance,
    optimal_iterations,
    reduced_probability,
    rotation_angle,
    run_grover,
)
from .linalg import StateVector, inner_product
from .statistics import _CHUNK, GENERATOR_NAME, overlap_statistics, random_state

SCHEMA = "v1"

ANALOG_PASS_TOL = 1e-8
GROVER_PASS_TOL = 1e-9

# bound builds and eigendecomposes N x N matrices, one per oracle, so its N
# stays within the design envelope for direct eigendecomposition.
MAX_DENSE_DIM = 4096

# Each command checks its byte estimate (``_estimated_bytes``) against this
# share of physical memory first, and a time grid checks its report rows.
MEMORY_BUDGET = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2

# Largest time grid a command builds: 10^4 times the default 1001 points.
MAX_GRID_STEPS = 10**7

# Bytes a time-grid point or grover step costs in a report: a row of 4 to 6
# numbers as a Python list and as JSON text (measured: analog 0.83 kB, bound
# 1.1 kB, grover 0.75 kB).
REPORT_ROW_BYTES = 1200


class UsageError(Exception):
    """Flags that parse one by one but together ask for something unbuildable;
    ``main`` reports it as a usage error (exit 2)."""


def _check_budget(nbytes: int, what: str) -> None:
    """A usage error when ``what`` needs more than MEMORY_BUDGET bytes."""
    if nbytes > MEMORY_BUDGET:
        raise UsageError(  # MiB by integer shift: an --n of any size can be printed
            f"{what} needs about {nbytes >> 20} MiB, more than the "
            f"{MEMORY_BUDGET >> 20} MiB budget (half of physical memory)"
        )


def _int_at_least(lo: int, hi: int | None = None):
    """argparse type: an integer no less than lo (and no more than hi)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value

    return parse


def _positive_float(hi: float = math.inf):
    """argparse type: a finite float in (0, hi]."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not (math.isfinite(value) and 0.0 < value <= hi):
            bounds = "positive and finite" if hi == math.inf else f"in (0, {hi:g}]"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {text}")
        return value

    return parse


def _check_index(parser: argparse.ArgumentParser, flag: str, value: str, n: int, words: tuple) -> None:
    """Cross-flag rule: ``value`` is one of ``words`` or a basis index below --n."""
    try:
        ok = value in words or 0 <= int(value) < n
    except ValueError:
        ok = False
    if not ok:
        parser.error(f"argument {flag}: expected {'/'.join(words)} or an index below --n {n}, got {value!r}")


def _estimated_bytes(command: str, cfg: argparse.Namespace) -> int:
    """Peak bytes a command allocates, from peak-RSS slopes measured with
    numpy 2.4 on CPython 3.11. Integer arithmetic, so any --n gives an
    estimate; bound's grid is a usage error first if it is too large."""
    if command == "analog":
        # s and w as arrays, as lists of float pairs and as JSON text
        return 1100 * cfg.n
    if command == "grover":
        # three state vectors, then one report row per step; k* < sqrt(N)
        steps = cfg.iterations if cfg.iterations is not None else math.isqrt(cfg.n)
        return 64 * cfg.n + REPORT_ROW_BYTES * (steps + 1)
    if command == "bound":
        # per segment its matrix twice (the driver's, one oracle's) and 0.6 kB of
        # objects; per grid point 6.5 rows of N amplitudes while an oracle is reduced
        segments = cfg.segments if cfg.driver == "piecewise" else 1
        _, horizon, dt = _bound_times(cfg)
        return (32 * cfg.n**2 + 600) * segments + 104 * cfg.n * _grid_points(dt, horizon)
    # stats: one float32 buffer of 4 coordinates per dimension per chunk sample,
    # then a few float64 arrays of one entry per sample
    return 16 * cfg.n * min(_CHUNK, cfg.samples) + 24 * cfg.samples


def _non_finite_entry(payload: dict) -> str | None:
    """Where the report holds an inf or nan (which JSON cannot hold), or None."""
    for section in ("derived", "summary"):
        for key, val in payload[section].items():
            if isinstance(val, float) and not math.isfinite(val):
                return f"{section}.{key}"
    for row in payload["series"]["rows"]:
        for column, val in zip(payload["series"]["columns"], row):
            if isinstance(val, float) and not math.isfinite(val):
                return f"series column {column}"
    return None


def _fmt(value) -> str:
    if value is None:
        return "nan"
    return f"{value:.17g}"


def _complex_pairs(amps: np.ndarray) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in amps]


def _write_report(payload: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        lines = [f"# schema: {payload['schema']}", f"# tool: qsearch {payload['version']}"]
        lines.append(f"# command: {payload['command']}")
        for section in ("config", "derived", "summary"):
            for key, val in payload.get(section, {}).items():
                if isinstance(val, (list, dict)):
                    continue  # vectors stay JSON-only; scalars are enough for CSV
                lines.append(f"# {section}.{key} = {val}")
        series = payload["series"]
        lines.append(",".join(series["columns"]))
        for row in series["rows"]:
            lines.append(",".join(_fmt(v) if not isinstance(v, int) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _payload_skeleton(command: str, cfg: argparse.Namespace) -> dict:
    return {"schema": SCHEMA, "version": __version__, "command": command, "config": dict(vars(cfg))}


def _grid_points(dt: float, horizon: float) -> int:
    """Points of the uniform grid over [0, horizon] at step dt; a usage error when
    it would need more than MAX_GRID_STEPS steps or its report rows more than MEMORY_BUDGET."""
    # The defaults derive from --energy and can overflow or underflow to 0.
    steps = horizon / dt if dt > 0.0 else math.inf
    if not steps <= MAX_GRID_STEPS:  # also rejects inf and nan
        raise UsageError(
            f"the time grid (from --energy/--horizon/--dt) needs {steps:g} steps, "
            f"more than {MAX_GRID_STEPS}"
        )
    points = max(1, int(round(steps))) + 1
    _check_budget(points * REPORT_ROW_BYTES, f"the time grid (from --energy/--horizon/--dt) of {points} points")
    return points


def _bound_times(cfg: argparse.Namespace) -> tuple[float, float, float]:
    """bound's t_m equivalent, and its horizon and step defaulted from it."""
    t_m_equiv = math.pi * math.sqrt(cfg.n) / (2.0 * cfg.energy)
    return t_m_equiv, cfg.horizon or 2.0 * t_m_equiv, cfg.dt or t_m_equiv / 500.0


def cmd_analog(cfg: argparse.Namespace) -> tuple[int, dict]:
    n, e = cfg.n, cfg.energy
    s = StateVector.uniform(n)
    rng = np.random.default_rng(cfg.seed)
    if cfg.w == "s":
        w = s
    elif cfg.w == "random":
        w = random_state(n, rng)
    else:
        w = StateVector.basis_state(n, int(cfg.w))

    x = min(abs(inner_product(s, w)), 1.0)
    colinear = x >= 1.0 - COLINEAR_TOL
    system = TwoLevelSystem(energy=e, overlap=1.0 if colinear else x, dim_hint=n)
    t_m = measurement_time(system)
    dt = cfg.dt if cfg.dt is not None else t_m / 500.0
    horizon = cfg.horizon if cfg.horizon is not None else 2.0 * t_m
    grid = np.linspace(0.0, horizon, _grid_points(dt, horizon))

    p_full = full_space_probability(e, s, w, grid)
    p_closed = np.array([success_probability(system, t) for t in grid])
    deviation = np.abs(p_closed - p_full)
    max_dev = float(deviation.max())

    lo, hi = two_level_eigenvalues(system)
    payload = _payload_skeleton("analog", cfg)
    payload["derived"] = {
        "x": system.overlap,
        "t_m": t_m,
        "eigenvalue_low": lo,
        "eigenvalue_high": hi,
        "max_deviation": max_dev,
        "s": _complex_pairs(s.amps),
        "w": _complex_pairs(w.amps),
    }
    payload["summary"] = {"pass": max_dev < ANALOG_PASS_TOL, "pass_tolerance": ANALOG_PASS_TOL}
    payload["series"] = {
        "columns": ["t", "p_closed_form", "p_full_space", "abs_difference"],
        "rows": [
            [float(t), float(pc), float(pf), float(d)]
            for t, pc, pf, d in zip(grid, p_closed, p_full, deviation)
        ],
    }
    return (0 if max_dev < ANALOG_PASS_TOL else 1), payload


def cmd_grover(cfg: argparse.Namespace) -> tuple[int, dict]:
    n = cfg.n
    rng = np.random.default_rng(cfg.seed)
    marked = int(rng.integers(n)) if cfg.marked == "random" else int(cfg.marked)
    inst = GroverInstance(dim=n, marked=marked)
    theta = rotation_angle(n)
    k_star = optimal_iterations(n)
    k = cfg.iterations if cfg.iterations is not None else k_star
    run = run_grover(inst, k)
    p_reduced = np.array([reduced_probability(n, j) for j in range(k + 1)])
    deviation = np.abs(run.probabilities - p_reduced)
    max_dev = float(deviation.max())

    equiv = TwoLevelSystem(energy=1.0, overlap=1.0 / math.sqrt(n), dim_hint=n)
    t_m = measurement_time(equiv)
    payload = _payload_skeleton("grover", cfg)
    payload["derived"] = {
        "marked": marked,
        "theta": theta,
        "k_star": k_star,
        "iterations": k,
        "oracle_calls": run.oracle_calls,
        "max_deviation": max_dev,
        "correspondence": {
            "t_m_times_ex": t_m * equiv.energy * equiv.overlap,
            "k_star_theta": k_star * theta,
            "analog_p_at_t_m": success_probability(equiv, t_m),
            "digital_p_at_k_star": reduced_probability(n, k_star),
        },
    }
    payload["summary"] = {"pass": max_dev < GROVER_PASS_TOL, "pass_tolerance": GROVER_PASS_TOL}
    payload["series"] = {
        "columns": ["k", "p_full", "p_reduced", "oracle_calls"],
        "rows": [
            [j, float(run.probabilities[j]), float(p_reduced[j]), 2 * j]
            for j in range(k + 1)
        ],
    }
    return (0 if max_dev < GROVER_PASS_TOL else 1), payload


def cmd_bound(cfg: argparse.Namespace) -> tuple[int, dict]:
    n, e = cfg.n, cfg.energy
    t_m_equiv, horizon, dt = _bound_times(cfg)
    # No eigenvalue exceeds E * (mult + 1): past a double, a phase is inf and a state nan.
    if not math.isfinite(e * (cfg.driver_norm_mult + 1.0) * horizon):
        raise UsageError(f"the largest phase --energy * (--driver-norm-mult + 1) * horizon = "
                         f"{e:g} * ({cfg.driver_norm_mult:g} + 1) * {horizon:g} overflows")
    grid = np.linspace(0.0, horizon, _grid_points(dt, horizon))

    rng = np.random.default_rng(cfg.seed)
    driver = build_driver(cfg.driver, n, e, cfg.driver_norm_mult, horizon, rng, cfg.segments)
    basis = [StateVector.basis_state(n, i) for i in range(n)]
    traj = evolve_trajectories(e, basis, driver, StateVector.uniform(n), grid)
    report = discrimination_time(traj, cfg.epsilon)

    deriv = [None] + [float(d) for d in report.derivative_estimates] + [None]
    ratio_at_tm = None
    if t_m_equiv <= grid[-1] + 1e-12:
        j = int(np.argmin(np.abs(grid - t_m_equiv)))
        if report.bound_line[j] > 0:
            ratio_at_tm = float(report.divergence[j] / report.bound_line[j])

    payload = _payload_skeleton("bound", cfg)
    payload["derived"] = {
        "rate_cap": report.rate_cap,
        "t_m_equivalent": t_m_equiv,
        "fd_curvature": report.fd_curvature,
        "ratio_at_t_m_equivalent": ratio_at_tm,
    }
    payload["summary"] = {
        "pass": report.bound_satisfied,
        "bound_satisfied": report.bound_satisfied,
        "derivative_bound_satisfied": report.derivative_bound_satisfied,
        "epsilon": report.epsilon,
        "t_epsilon": report.t_epsilon,
        "t_epsilon_second": report.t_epsilon_second,
        "lower_bound": report.lower_bound,
        "lower_bound_satisfied": report.lower_bound_satisfied,
    }
    payload["series"] = {
        "columns": ["t", "divergence", "bound_line", "dD_dt", "min_distance", "second_min_distance"],
        "rows": [
            [
                float(grid[j]),
                float(report.divergence[j]),
                float(report.bound_line[j]),
                deriv[j],
                float(report.min_distance[j]),
                float(report.second_min_distance[j]),
            ]
            for j in range(grid.shape[0])
        ],
    }
    return (0 if report.bound_satisfied else 1), payload


def cmd_stats(cfg: argparse.Namespace) -> tuple[int, dict]:
    sample = overlap_statistics(cfg.n, cfg.samples, cfg.seed)
    target = 1.0 / cfg.n
    ok = abs(sample.mean_x2 - target) <= 4.0 * sample.stderr_x2
    payload = _payload_skeleton("stats", cfg)
    payload["derived"] = {
        "generator": GENERATOR_NAME,
        "target_mean_x2": target,
        "mean_x2": sample.mean_x2,
        "stderr_x2": sample.stderr_x2,
        "mean_x": sample.mean_x,
        "expected_mean_x_scale": 1.0 / math.sqrt(cfg.n),
    }
    payload["summary"] = {"pass": ok, "pass_band_sigmas": 4.0}
    payload["series"] = {
        "columns": ["n", "num_samples", "mean_x2", "stderr_x2", "mean_x", "seed"],
        "rows": [[sample.n, sample.num_samples, sample.mean_x2, sample.stderr_x2, sample.mean_x, sample.seed]],
    }
    return (0 if ok else 1), payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsearch",
        description="Rank-one Hamiltonian search experiments: closed-form "
        "dynamics, digital amplitude amplification, driver-independent time "
        "lower bounds, and random-overlap statistics.",
    )
    parser.add_argument("--version", action="version", version=f"qsearch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _positive_float()

    def common(p, n_type):
        p.add_argument("--n", type=n_type, required=True, help="Hilbert space dimension (>= 2)")
        p.add_argument("--seed", type=_int_at_least(0), default=0, help="RNG seed (default 0)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")

    p = sub.add_parser("analog", help="closed-form vs full-space rank-one search dynamics")
    common(p, _int_at_least(2))
    p.add_argument("--energy", type=positive, default=1.0)
    p.add_argument("--w", default="0", help="marked state: basis index, 'random', or 's' (colinear)")
    p.add_argument("--dt", type=positive, default=None, help="grid spacing (default t_m/500)")
    p.add_argument("--horizon", type=positive, default=None, help="grid end (default 2*t_m)")

    p = sub.add_parser("grover", help="digital iteration vs reduced rotation prediction")
    common(p, _int_at_least(2))
    p.add_argument("--marked", default="0", help="marked index or 'random'")
    p.add_argument("--iterations", type=_int_at_least(0), default=None, help="steps to run (default k*)")

    p = sub.add_parser("bound", help="divergence growth bound under a chosen driver")
    common(p, _int_at_least(2, MAX_DENSE_DIM))
    p.add_argument("--energy", type=positive, default=1.0)
    p.add_argument("--driver", choices=("paper", "zero", "random-dense", "piecewise"), default="paper")
    p.add_argument("--driver-norm-mult", type=positive, default=1.0, dest="driver_norm_mult")
    p.add_argument("--epsilon", type=_positive_float(4.0), default=1.0)
    p.add_argument("--segments", type=_int_at_least(1), default=10, help="segments for the piecewise driver")
    p.add_argument("--dt", type=positive, default=None)
    p.add_argument("--horizon", type=positive, default=None)

    p = sub.add_parser("stats", help="Monte Carlo overlap statistics")
    # n = 1 is meaningful here (a pure phase, x = 1 exactly)
    common(p, _int_at_least(1))
    p.add_argument("--samples", type=_int_at_least(100), default=100_000)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Built per call, so a cmd_* name rebound on the module (as a tracer does)
    # is the one that runs.
    commands = {
        "analog": (cmd_analog, ("n", "energy", "w", "seed", "dt", "horizon")),
        "grover": (cmd_grover, ("n", "marked", "iterations", "seed")),
        "bound": (cmd_bound, ("n", "energy", "driver", "driver_norm_mult", "epsilon",
                              "segments", "seed", "dt", "horizon")),
        "stats": (cmd_stats, ("n", "samples", "seed")),
    }
    runner, fields = commands[args.command]
    if args.command == "analog":
        _check_index(parser, "--w", args.w, args.n, ("random", "s"))
    elif args.command == "grover":
        _check_index(parser, "--marked", args.marked, args.n, ("random",))
    cfg = argparse.Namespace(**{name: getattr(args, name) for name in fields})
    try:
        _check_budget(_estimated_bytes(args.command, cfg), "this run")
        code, payload = runner(cfg)
    except UsageError as exc:
        parser.error(str(exc))  # exits with code 2
    except QSearchError as exc:
        print(f"qsearch {args.command}: {exc}", file=sys.stderr)
        return 1
    bad = _non_finite_entry(payload)
    if bad is not None:
        parser.error(f"the report's {bad} is not finite: the flags ask for numbers beyond the range of a double")
    _write_report(payload, args.out, args.fmt)
    if code != 0:
        checks = payload.get("summary", {})
        print(f"qsearch {args.command}: numerical check failed: {checks}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
