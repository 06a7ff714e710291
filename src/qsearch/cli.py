"""Command-line front door.

Four subcommands (``analog``, ``grover``, ``bound``, ``stats``) run the four
experiment families and emit a self-describing report (JSON schema "v1" or
CSV with comment headers) embedding the config, seed, tool version and all
derived constants, so downstream plotting needs no side channel. ``main``
alone picks the exit code: 1 when the report's ``summary.pass`` is false or a
computation's check of its own result raised ``QSearchError``; 2 for a usage
error (a flag out of range, a library ``ValueError`` refusing the flags,
arithmetic beyond the range of a double, or an ``--out`` it cannot write); 0
otherwise. Every command is deterministic given its full flag set, and reruns
at a fixed BLAS thread count produce byte-identical files.
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
from .bound import ORACLE_BATCH_ELEMENTS, build_driver, discrimination_time, evolve_trajectories
from .errors import QSearchError
from .grover import (
    GroverInstance,
    optimal_iterations,
    reduced_probability,
    rotation_angle,
    run_grover,
)
from .linalg import StateVector, inner_product
from .statistics import _CHUNK, GENERATOR_NAME, _worker_count, overlap_statistics, random_state

SCHEMA = "v1"

ANALOG_PASS_TOL = 1e-8
GROVER_PASS_TOL = 1e-9

# bound builds an N x N matrix per driver segment and eigendecomposes each once
# (O(N^3)); each oracle then costs O(N^2) per segment and O(N p) per grid point
# for p integration nodes a step, so its N stays within the design envelope for
# direct eigendecomposition.
MAX_DENSE_DIM = 4096

# main checks each command's byte estimate (``_estimated_bytes``) against this
# share of physical memory before it runs; a command with a time grid checks
# that estimate plus the grid's bytes once the grid is known.
MEMORY_BUDGET = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2

# Largest time grid a command builds: 10^4 times the default 1001 points.
MAX_GRID_STEPS = 10**7

# Bytes a time-grid point or grover step costs in a report: a row of 4 to 6
# numbers as a Python list and as JSON text (measured: analog 0.83 kB, bound
# 1.1 kB, grover 0.75 kB).
REPORT_ROW_BYTES = 1200


def _check_budget(nbytes: int, what: str) -> None:
    """A usage error when ``what`` needs more than MEMORY_BUDGET bytes."""
    if nbytes > MEMORY_BUDGET:
        raise ValueError(  # MiB by integer shift: an --n of any size can be printed
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


def _index_or(*words: str):
    """argparse type: an integer index or one of ``words``, kept as its text."""

    def parse(text: str) -> str:
        if text not in words:
            try:
                int(text)
            except ValueError:
                *head, last = ["a basis index", *(repr(word) for word in words)]
                raise argparse.ArgumentTypeError(
                    f"expected {', '.join(head)} or {last}, got {text!r}") from None
        return text

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


def _estimated_bytes(command: str, cfg: argparse.Namespace) -> int:
    """Peak bytes a command allocates apart from its time grid, from peak-RSS
    slopes measured with numpy 2.4 on CPython 3.11. Integer arithmetic, so
    any --n gives an estimate."""
    if command == "analog":
        # s and w as arrays, as lists of float pairs and as JSON text
        return 1100 * cfg.n
    if command == "grover":
        # one real state vector, then one report row per step; k* < sqrt(N)
        steps = cfg.iterations if cfg.iterations is not None else math.isqrt(cfg.n)
        return 8 * cfg.n + REPORT_ROW_BYTES * (steps + 1)
    if command == "bound":
        # per segment its N x N operator and 0.6 kB of objects; 200 bytes per N x N
        # entry for building an operator, the driver's eigensystem, the N basis states
        # and the hand-off states; one batch of rank-one updates (measured: 104-111
        # bytes per N x N entry in all at N = 512, 48 per batch entry)
        segments = cfg.segments if cfg.driver == "piecewise" else 1
        return ((24 * cfg.n**2 + 600) * segments + 200 * cfg.n**2
                + 128 * min(cfg.n**3, ORACLE_BATCH_ELEMENTS))
    # stats: 60 bytes per coordinate pair of each chunk in flight, one a worker
    # (measured: 28, the two raw words and the worker's three float32 terms), of
    # up to _CHUNK pairs, or one sample if n is larger; then a few float64
    # arrays of one entry per sample
    pairs = cfg.n * min(max(1, _CHUNK // cfg.n), cfg.samples)
    return 60 * pairs * _worker_count(cfg.n, cfg.samples) + 24 * cfg.samples


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
    """A complex vector of a report as JSON holds it: one [re, im] per entry."""
    return [[float(a.real), float(a.imag)] for a in amps]


def _write_report(payload: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, allow_nan=False, default=_complex_pairs) + "\n"
    else:
        lines = [f"# schema: {payload['schema']}", f"# tool: qsearch {payload['version']}"]
        lines.append(f"# command: {payload['command']}")
        for section in ("config", "derived", "summary"):
            for key, val in payload.get(section, {}).items():
                if isinstance(val, dict):  # grover's correspondence: one line per scalar
                    lines.extend(f"# {section}.{key}.{sub} = {v}" for sub, v in val.items())
                elif not isinstance(val, (list, np.ndarray)):  # vectors stay JSON-only
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


def _time_grid(dt: float, horizon: float, run_bytes: int, point_bytes: int = REPORT_ROW_BYTES) -> np.ndarray:
    """The uniform grid over [0, horizon] at step dt. A usage error when it would
    need more than MAX_GRID_STEPS steps, or more than MEMORY_BUDGET bytes for its
    report rows alone or for the run_bytes of the rest of the run plus
    point_bytes per point."""
    # The defaults derive from --energy and can overflow or underflow to 0.
    steps = horizon / dt if dt > 0.0 else math.inf
    if not steps <= MAX_GRID_STEPS:  # also rejects inf and nan
        raise ValueError(
            f"the time grid (from --energy/--horizon/--dt) needs {steps:g} steps, "
            f"more than {MAX_GRID_STEPS}"
        )
    points = max(1, int(round(steps))) + 1
    _check_budget(points * REPORT_ROW_BYTES, f"the time grid (from --energy/--horizon/--dt) of {points} points")
    _check_budget(run_bytes + points * point_bytes, "this run")
    return np.linspace(0.0, horizon, points)


def cmd_analog(cfg: argparse.Namespace) -> dict:
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
    # The eigenvalues are E (1 -+ x); the last bit of a phase, 2^-52 of it, must resolve the tolerance.
    if not e * (1.0 + system.overlap) * horizon * 2.0**-52 <= ANALOG_PASS_TOL:
        raise ValueError(f"the largest phase --energy * (1 + x) * horizon = {e:g} * {1.0 + system.overlap:g} "
                         f"* {horizon:g} is beyond double precision: its last bit exceeds the pass "
                         f"tolerance {ANALOG_PASS_TOL:g}")
    grid = _time_grid(dt, horizon, _estimated_bytes("analog", cfg))

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
        "s": s.amps,  # as [re, im] pairs in JSON
        "w": w.amps,
    }
    payload["summary"] = {"pass": max_dev < ANALOG_PASS_TOL, "pass_tolerance": ANALOG_PASS_TOL}
    payload["series"] = {
        "columns": ["t", "p_closed_form", "p_full_space", "abs_difference"],
        "rows": [
            [float(t), float(pc), float(pf), float(d)]
            for t, pc, pf, d in zip(grid, p_closed, p_full, deviation)
        ],
    }
    return payload


def cmd_grover(cfg: argparse.Namespace) -> dict:
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
    return payload


def cmd_bound(cfg: argparse.Namespace) -> dict:
    n, e = cfg.n, cfg.energy
    t_m_equiv = math.pi * math.sqrt(n) / (2.0 * e)
    horizon = cfg.horizon or 2.0 * t_m_equiv
    # per grid point N distances and a batch's running integrals, charged at 56 N
    # bytes (measured: 10 N), and its report row
    grid = _time_grid(cfg.dt or t_m_equiv / 500.0, horizon, _estimated_bytes("bound", cfg),
                      56 * n + REPORT_ROW_BYTES)
    # No eigenvalue exceeds E * (mult + 1): past a double, a phase is inf and a state nan.
    if not math.isfinite(e * (cfg.driver_norm_mult + 1.0) * horizon):
        raise ValueError(f"the largest phase --energy * (--driver-norm-mult + 1) * horizon = "
                         f"{e:g} * ({cfg.driver_norm_mult:g} + 1) * {horizon:g} overflows")

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
    return payload


def cmd_stats(cfg: argparse.Namespace) -> dict:
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
    return payload


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
    p.add_argument("--w", type=_index_or("random", "s"), default="0",
                   help="marked state: basis index, 'random', or 's' (colinear)")
    p.add_argument("--dt", type=positive, default=None, help="grid spacing (default t_m/500)")
    p.add_argument("--horizon", type=positive, default=None, help="grid end (default 2*t_m)")

    p = sub.add_parser("grover", help="digital iteration vs reduced rotation prediction")
    common(p, _int_at_least(2))
    p.add_argument("--marked", type=_index_or("random"), default="0", help="marked index or 'random'")
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
    cfg = argparse.Namespace(**{name: getattr(args, name) for name in fields})
    beyond = "the flags ask for numbers beyond the range of a double"
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            _check_budget(_estimated_bytes(args.command, cfg), "this run")
            payload = runner(cfg)
    except QSearchError as exc:
        print(f"qsearch {args.command}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        parser.error(str(exc) if isinstance(exc, ValueError) else f"{beyond} ({exc})")
    bad = _non_finite_entry(payload)
    if bad is not None:  # Python floats overflow to inf without raising
        parser.error(f"the report's {bad} is not finite: {beyond}")
    try:
        _write_report(payload, args.out, args.fmt)
    except OSError as exc:  # a missing directory, a directory, no permission, a full disk
        parser.error(f"cannot write the report to --out {args.out}: {exc.strerror}")
    if not payload["summary"]["pass"]:
        print(f"qsearch {args.command}: numerical check failed: {payload['summary']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
