"""Outside-in tracing of qsearch for the benchmark's traced run.

The program is not instrumented. Instead, ``traced()`` temporarily replaces
the attributes through which the program makes its calls (``numpy.linalg.eigh``,
the names ``qsearch.cli`` imported, ``qsearch.grover.apply_uf``/``apply_us``
and ``HermitianOperator.__post_init__``) with wrappers that record a span:
name, start, end, parent and a few computed counts. Spans stay in memory;
the runner writes them out when the run ends.

Counts labelled "computed" come from argument shapes, not from the program:
``eigh_dim3`` is sum N^3, ``hermitian_bytes`` is 16 N^2 per operator built,
``per_oracle_bytes`` is 16 N^2 M per trajectory set, ``bytes_per_iter`` is
the state bytes each Grover reflection reads and writes, ``coords`` is
4 m n per overlap sample.
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

MB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest through a stack (one thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        idx = len(self.spans)
        rec = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1, counts=counts)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counts=None, measure_memory=False):
        """``fn`` wrapped in a span; ``counts(args, kwargs)`` gives the span's
        computed counts, and ``measure_memory`` records the tracemalloc peak
        (MB) of the call."""
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name, **(counts(args, kwargs) if counts else {})) as rec:
                if not measure_memory:
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.counts["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()

        return wrapper

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.counts}
            for s in self.spans
        ]


def _eigh_counts(args, kwargs):
    shape = args[0].shape
    return {"dim3": math.prod(shape[:-2]) * shape[-1] ** 3}


def _evolve_counts(args, kwargs):
    # evolve_trajectories(e, oracle_basis, driver, initial, grid)
    oracles, n, m = len(args[1]), args[3].dim, len(args[4])
    return {
        "trajectories": oracles + 1,
        "per_oracle_bytes": 16 * oracles * m * n,
        "useful_elems": 2 * oracles * m,
        "stored_elems": oracles * m * n,
    }


def _apply_counts(args, kwargs):
    # apply_uf(inst, v) / apply_us(v): the state is read once and written once
    return {"bytes": 2 * args[-1].amps.nbytes}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    import numpy.linalg
    import qsearch.cli as cli
    import qsearch.grover as grover
    from qsearch.linalg import HermitianOperator

    build = HermitianOperator.__post_init__

    def build_traced(self):
        with tracer.span("linalg.hermitian_build") as rec:
            build(self)
            rec.counts["bytes"] = 16 * self.mat.shape[0] ** 2

    def write_traced(payload, out, fmt):
        with tracer.span("cli.report_write") as rec:
            write(payload, out, fmt)
            rec.counts["bytes"] = os.path.getsize(out)

    write = cli._write_report
    patches = [
        (numpy.linalg, "eigh", tracer.wrap("linalg.eigh", numpy.linalg.eigh, _eigh_counts)),
        (HermitianOperator, "__post_init__", build_traced),
        (cli, "assemble_search_hamiltonian", tracer.wrap("analog.assemble", cli.assemble_search_hamiltonian)),
        (cli, "success_probability", tracer.wrap("analog.closed_form", cli.success_probability)),
        (cli, "run_grover", tracer.wrap("grover.run", cli.run_grover, lambda a, k: {"iterations": a[1]})),
        (grover, "apply_uf", tracer.wrap("grover.apply_uf", grover.apply_uf, _apply_counts)),
        (grover, "apply_us", tracer.wrap("grover.apply_us", grover.apply_us, _apply_counts)),
        (cli, "build_driver", tracer.wrap("cli.build_driver", cli.build_driver)),
        (cli, "evolve_trajectories",
         tracer.wrap("bound.evolve", cli.evolve_trajectories, _evolve_counts, measure_memory=True)),
        (cli, "discrimination_time",
         tracer.wrap("bound.discrimination", cli.discrimination_time, measure_memory=True)),
        (cli, "overlap_statistics",
         tracer.wrap("statistics.sample", cli.overlap_statistics, lambda a, k: {"coords": 4 * a[0] * a[1]})),
        (cli, "random_state", tracer.wrap("statistics.random_state", cli.random_state)),
        (cli, "_write_report", write_traced),
    ]
    for cmd in ("cmd_analog", "cmd_grover", "cmd_bound", "cmd_stats"):
        patches.append((cli, cmd, tracer.wrap("cli.cmd", getattr(cli, cmd))))
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield tracer
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(spans: list[Span], idx: int) -> float:
    """Duration of span ``idx`` minus the part its child spans cover."""
    children = [(s.start, s.end) for s in spans if s.parent == idx]
    return spans[idx].duration - _union_length(children)


# (metric, unit) in the order the benchmark reports them.
LAYER_METRICS = (
    ("linalg.eigh_s", "s"), ("linalg.eigh_calls", "count"), ("linalg.eigh_dim3", "count"),
    ("linalg.hermitian_build_s", "s"), ("linalg.hermitian_build_calls", "count"),
    ("linalg.hermitian_bytes", "B"),
    ("analog.assemble_s", "s"), ("analog.closed_form_s", "s"), ("analog.closed_form_calls", "count"),
    ("grover.run_s", "s"), ("grover.apply_uf_s", "s"), ("grover.apply_us_s", "s"),
    ("grover.apply_calls", "count"), ("grover.iter_ms", "ms"), ("grover.bytes_per_iter", "B"),
    ("bound.evolve_s", "s"), ("bound.discrimination_s", "s"), ("bound.evolve_peak_mb", "MB"),
    ("bound.discrimination_peak_mb", "MB"), ("bound.trajectories", "count"),
    ("bound.per_oracle_bytes", "B"), ("bound.useful_ratio", "ratio"),
    ("statistics.sample_s", "s"), ("statistics.coords", "count"), ("statistics.coords_per_s", "1/s"),
    ("statistics.random_state_s", "s"),
    ("cli.cmd_self_s", "s"), ("cli.build_driver_s", "s"), ("cli.report_write_s", "s"),
    ("cli.report_bytes", "B"),
    ("trace.overhead_s", "s"),
)

# Counts derived from argument shapes; they must repeat exactly between runs.
COMPUTED = ("linalg.eigh_dim3", "linalg.hermitian_bytes", "bound.per_oracle_bytes",
            "grover.bytes_per_iter", "statistics.coords", "cli.report_bytes")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (everything but trace.overhead_s)."""
    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def peak(name):
        return max((s.counts["peak_mb"] for s in spans if s.name == name), default=0.0)

    apply_calls = calls("grover.apply_uf") + calls("grover.apply_us")
    iterations = count("grover.run", "iterations")
    run_s = total("grover.run")
    stored = count("bound.evolve", "stored_elems")
    sample_s = total("statistics.sample")
    coords = count("statistics.sample", "coords")
    return {
        "linalg.eigh_s": total("linalg.eigh"),
        "linalg.eigh_calls": calls("linalg.eigh"),
        "linalg.eigh_dim3": count("linalg.eigh", "dim3"),
        "linalg.hermitian_build_s": total("linalg.hermitian_build"),
        "linalg.hermitian_build_calls": calls("linalg.hermitian_build"),
        "linalg.hermitian_bytes": count("linalg.hermitian_build", "bytes"),
        "analog.assemble_s": total("analog.assemble"),
        "analog.closed_form_s": total("analog.closed_form"),
        "analog.closed_form_calls": calls("analog.closed_form"),
        "grover.run_s": run_s,
        "grover.apply_uf_s": total("grover.apply_uf"),
        "grover.apply_us_s": total("grover.apply_us"),
        "grover.apply_calls": apply_calls,
        "grover.iter_ms": 1e3 * run_s / iterations if iterations else 0.0,
        "grover.bytes_per_iter": (count("grover.apply_uf", "bytes") + count("grover.apply_us", "bytes"))
        // iterations if iterations else 0,
        "bound.evolve_s": total("bound.evolve"),
        "bound.discrimination_s": total("bound.discrimination"),
        "bound.evolve_peak_mb": peak("bound.evolve"),
        "bound.discrimination_peak_mb": peak("bound.discrimination"),
        "bound.trajectories": count("bound.evolve", "trajectories"),
        "bound.per_oracle_bytes": count("bound.evolve", "per_oracle_bytes"),
        "bound.useful_ratio": count("bound.evolve", "useful_elems") / stored if stored else 0.0,
        "statistics.sample_s": sample_s,
        "statistics.coords": coords,
        "statistics.coords_per_s": coords / sample_s if sample_s else 0.0,
        "statistics.random_state_s": total("statistics.random_state"),
        "cli.cmd_self_s": sum(self_time(spans, i) for i, s in enumerate(spans) if s.name == "cli.cmd"),
        "cli.build_driver_s": total("cli.build_driver"),
        "cli.report_write_s": total("cli.report_write"),
        "cli.report_bytes": count("cli.report_write", "bytes"),
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes; integer counts stay integers."""
    def med(values):
        if all(isinstance(v, int) for v in values):
            return statistics.median_low(values)
        return statistics.median(values)

    return {key: med([p[key] for p in passes]) for key in passes[0]}
