#!/usr/bin/env python3
"""qsearch benchmark: run one named workload of CLI cases in this process.

Usage:
    python3 benchmark/run.py --workload dense-large --seed 1 --seconds 36 --trace 0

Every case goes through ``qsearch.cli.main`` with ``--out`` pointing at a
file under ``.bench_out/``; the report is read back and checked (see
``checks.py``). The whole case list is one pass. Passes repeat until the
next one would overrun ``--seconds``, with at least two, so every case runs
at least twice and the repeat must give byte-identical report bytes. A
case's time is its fastest untraced pass: machine noise only ever adds time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``spans.py``). The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it show every metric, each case and the environment, and the same goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.

The BLAS thread count is pinned to min(2, nproc) through the environment
before numpy loads, because OpenBLAS results can differ in the last bit
between thread counts; the count OpenBLAS reports back is stamped into the
result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import cases
import checks

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 1
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
# setup_s is the median of at least this many set-ups in fresh interpreters,
# one before the passes and one after each pass, so that they span the run.
SETUP_SAMPLES = 12
MB = 1024.0 * 1024.0
COMMANDS = ("analog", "grover", "bound", "stats")
# The end-to-end metrics that exist on every workload; BENCHMARK.json lists these.
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "headroom_digits")


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _openblas():
    """The OpenBLAS library numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    return ctypes.CDLL(sorted(paths)[0]) if paths else None


def _blas_fn(lib, base: str, restype):
    """Function ``base`` of the OpenBLAS that ships with numpy's wheels, or None."""
    fn = getattr(lib, f"scipy_openblas_{base}64_", None) if lib is not None else None
    if fn is not None:
        fn.restype = restype
    return fn


def setup() -> float:
    """Import numpy and qsearch from this checkout and touch LAPACK and BLAS
    once; return the seconds it took."""
    t0 = time.perf_counter()
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import qsearch.cli

    if not pathlib.Path(qsearch.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qsearch was imported from {qsearch.cli.__file__}, not from {SRC}")
    np.linalg.eigh(np.eye(4, dtype=complex))
    np.ones((64, 64)) @ np.ones((64, 64))
    return time.perf_counter() - t0


def fresh_setup_seconds() -> float:
    """setup() timed inside a new interpreter."""
    code = f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; print(run.setup())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib = _openblas()
    config = _blas_fn(lib, "get_config", ctypes.c_char_p)
    threads = _blas_fn(lib, "get_num_threads", ctypes.c_int)
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                   platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps.get('name')} {deps.get('version')}",
        "blas_config": config().decode().strip() if config else None,
        "blas_threads": threads() if threads else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _malloc_trim():
    """glibc's malloc_trim, or None elsewhere."""
    try:
        fn = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return None
    fn.restype, fn.argtypes = ctypes.c_int, [ctypes.c_size_t]
    return fn


class RssSampler:
    """Background thread that tracks the process's peak resident set size
    between reset() and peak(), so each case gets its own peak.

    reset() first hands freed heap back to the system, so a case's peak does
    not depend on what earlier cases left in the allocator's free lists.
    """

    def __init__(self, interval: float = 0.002):
        self._interval = interval
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._lock = threading.Lock()
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._trim = _malloc_trim()

    def _rss(self) -> int:
        return int(os.pread(self._fd, 256, 0).split()[1]) * self._page

    def _note(self, rss: int) -> None:
        with self._lock:
            self._peak = max(self._peak, rss)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._note(self._rss())

    def reset(self) -> None:
        if self._trim:
            self._trim(0)
        rss = self._rss()
        with self._lock:
            self._peak = rss

    def peak_mb(self) -> float:
        self._note(self._rss())
        with self._lock:
            return self._peak / MB

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        os.close(self._fd)


@dataclass
class CaseRun:
    case: cases.Case
    wall_s: float
    peak_rss_mb: float
    digest: str
    failure: str | None
    headroom: float | None


def run_case(case: cases.Case, sampler: RssSampler, out_dir: pathlib.Path, tracer=None) -> CaseRun:
    """One case from argv to a written and verified report."""
    import qsearch.cli

    path = out_dir / f"{case.name}.json"
    path.unlink(missing_ok=True)
    span = tracer.span("case", case=case.name) if tracer else contextlib.nullcontext()
    sampler.reset()
    t0 = time.perf_counter()
    with span:
        try:
            code = qsearch.cli.main([*case.argv, "--out", str(path)])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing case is a failed case; the run goes on
            code = repr(exc)
        data = path.read_bytes() if path.exists() else b""
        failure, headroom = checks.check(case.argv, code, data)
    wall = time.perf_counter() - t0
    return CaseRun(case, wall, sampler.peak_mb(), hashlib.sha256(data).hexdigest(), failure, headroom)


@dataclass
class Pass:
    traced: bool
    runs: list[CaseRun]
    layers: dict | None = None

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)


def fastest_s(passes: list[Pass], command: str | None = None) -> float:
    """Sum over the cases (of ``command``, or all) of each case's fastest pass."""
    per_case = zip(*(p.runs for p in passes))
    return sum(min(r.wall_s for r in runs) for runs in per_case
               if command is None or runs[0].case.command == command)


def run_passes(case_list, seconds: float, trace: bool, out_dir: pathlib.Path,
               after_pass) -> tuple[list[Pass], list]:
    """Run passes until the next would overrun ``seconds`` (at least two),
    calling ``after_pass()`` after each. With ``trace`` the passes alternate
    untraced and traced."""
    import spans

    passes: list[Pass] = []
    span_log = []
    start = time.perf_counter()
    with RssSampler() as sampler:
        while len(passes) < 2 or time.perf_counter() - start + statistics.median(
            p.wall_s for p in passes
        ) <= seconds:
            traced = trace and len(passes) % 2 == 1
            if traced:
                tracer = spans.Tracer()
                with spans.traced(tracer):
                    runs = [run_case(c, sampler, out_dir, tracer) for c in case_list]
                passes.append(Pass(True, runs, spans.layer_metrics(tracer.spans)))
                span_log.append(tracer.to_json())
            else:
                passes.append(Pass(False, [run_case(c, sampler, out_dir) for c in case_list]))
            p = passes[-1]
            bad = sum(r.failure is not None for r in p.runs)
            print(f"# pass {len(passes)} ({'traced' if traced else 'untraced'}): {p.wall_s:.3f} s, "
                  f"{len(p.runs)} cases, {bad} failed", flush=True)
            after_pass()
    # A repeat of a case must give the bytes of its first run.
    for p in passes[1:]:
        for first, again in zip(passes[0].runs, p.runs):
            if again.failure is None and again.digest != first.digest:
                again.failure = "report bytes differ from the first pass"
    return passes, span_log


def end_to_end(passes: list[Pass], setup_samples: list[float]) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric, from the untraced passes. Per-command metrics
    appear only for commands the workload runs."""
    plain = [p for p in passes if not p.traced]
    all_runs = [r for p in passes for r in p.runs]
    failed = sum(r.failure is not None for r in all_runs)
    heads = [r.headroom for p in plain for r in p.runs if r.headroom is not None]
    m = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (fastest_s(plain), "s"),
        "peak_rss_mb": (statistics.median(max(r.peak_rss_mb for r in p.runs) for p in plain), "MB"),
        "headroom_digits": (min(heads, default=0.0), "digits"),
        "failed_ratio": (failed / len(all_runs), "ratio"),
    }
    for cmd in COMMANDS:
        per_pass = [[r for r in p.runs if r.case.command == cmd] for p in plain]
        if not per_pass[0]:
            continue
        m[f"{cmd}.wall_s"] = (fastest_s(plain, cmd), "s")
        m[f"{cmd}.peak_rss_mb"] = (statistics.median(max(r.peak_rss_mb for r in runs) for runs in per_pass), "MB")
        cmd_heads = [r.headroom for r in per_pass[0] if r.headroom is not None]
        if cmd_heads:
            m[f"{cmd}.headroom_digits"] = (min(cmd_heads), "digits")
    return m


def per_layer(passes: list[Pass]) -> dict[str, tuple[float, str]]:
    import spans

    traced = [p for p in passes if p.traced]
    values = spans.median_metrics([p.layers for p in traced])
    values["trace.overhead_s"] = fastest_s(traced) - fastest_s([p for p in passes if not p.traced])
    return {name: (values[name], unit) for name, unit in spans.LAYER_METRICS}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qsearch benchmark")
    parser.add_argument("--workload", choices=cases.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time per run (default 36)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from traced passes")
    parser.add_argument("--tiny", action="store_true", help="self-test scale: same cases at tiny N")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        setup()
        samples = [fresh_setup_seconds()]
    except (ImportError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    env = environment()
    case_list = cases.cases(args.workload, args.seed, tiny=args.tiny)
    print(f"# qsearch benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}{', tiny' if args.tiny else ''}")
    print(f"# env: {json.dumps(env)}")
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    passes, span_log = run_passes(case_list, args.seconds, bool(args.trace), out_dir,
                                  lambda: samples.append(fresh_setup_seconds()))
    samples += [fresh_setup_seconds() for _ in range(SETUP_SAMPLES - len(samples))]

    for i, case in enumerate(case_list):
        runs = [p.runs[i] for p in passes]
        plain = [r for p, r in zip(passes, runs) if not p.traced]
        failures = sorted({r.failure for r in runs if r.failure})
        head = runs[0].headroom
        print(f"# case {case.name:<28} {min(r.wall_s for r in plain):9.4f} s "
              f"{statistics.median(r.peak_rss_mb for r in plain):8.1f} MB  "
              f"headroom {'-' if head is None else f'{head:.2f}'}  {'; '.join(failures) or 'ok'}")
    e2e = end_to_end(passes, samples)
    layers = per_layer(passes) if args.trace else {}
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"# metric {name} = {value!r} {unit}")

    attempted = sum(len(p.runs) for p in passes)
    failed = sum(r.failure is not None for p in passes for r in p.runs)
    reported = layers if args.trace else {k: e2e[k] for k in END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "env": env,
        "setup_samples_s": samples,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "cases": [{"name": r.case.name, "argv": list(r.case.argv), "wall_s": r.wall_s,
                               "peak_rss_mb": r.peak_rss_mb, "failure": r.failure, "headroom": r.headroom}
                              for r in p.runs]} for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **layers}.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if span_log:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(span_log) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
