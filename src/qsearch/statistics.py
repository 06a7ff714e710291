"""Monte Carlo check that two random unit vectors in complex dimension N
have E[|<s|w>|^2] = 1/N.

Each pair (s, w) is drawn in full, every coordinate of both vectors from
its own random bits. A standard complex Gaussian z has |z|^2 ~ Exp(1) and
an independent phase uniform on [0, 2 pi) (Box & Muller, Ann. Math. Stat.
29, 610 (1958)), so N such coordinates normalized are uniform on the unit
sphere, and x^2 = |<s|w>|^2 / (<s|s><w|w>) needs no normalization step.
The law is exact up to the 24-bit resolution of the two uniforms, and even
that keeps E[x^2] = 1/N exact: the phase takes 2^24 equally spaced values,
so the cross terms of |<s|w>|^2 average to zero, and the moduli are
exchangeable. Nothing is taken from the known Beta(1, N-1) law of x^2, and
s is not fixed to a basis vector, so the check stays an experiment.

Bits map to coordinates as follows. The generator is numpy's SFC64 (named,
seedable, platform independent), and a fixed seed reproduces results byte
for byte. Each chunk takes 2 c N raw 64-bit words, shaped (2, c, N): one
word per coordinate of s and one per coordinate of w. The top 24 bits of a
word are the modulus word m, with |z|^2 = -log((m + 1) 2^-24), and bits 8
to 31 are the phase word p, with arg z = 2 pi p 2^-24. Then conj(s_i) w_i =
sqrt(|s_i|^2 |w_i|^2) exp(2 pi i (p_w - p_s) 2^-24), taking the integer
difference first so one cos and one sin serve a coordinate pair. The terms
are float32 and every sum is float64. These reports differ from those of
the float32-normal sampler this replaced, for every seed.

Chunks are computed on up to two threads: the caller's and, where the
process may run on two CPUs and there are two chunks, one more. Under one
lock a worker takes the next chunk and draws its words, so chunk k always
gets the k-th block of the stream; outside the lock it computes that
chunk's x^2 into its own slice of the result, with the same operations at
any worker count. The samples, and so the reports, are therefore the same
bytes at any worker count and any BLAS thread count. The draw holds the
interpreter lock, but the arithmetic releases it, so the threads overlap.
Each worker runs in a copy of the caller's contextvars context, under the
caller's np.errstate. If a chunk raises, no worker takes another chunk, and
the caller raises that exception once all have stopped.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import StateVector

GENERATOR_NAME = "numpy-SFC64"

# Coordinate pairs per chunk: max(1, _CHUNK // n) samples at a time.
_CHUNK = 1 << 16
_ULP = np.float32(2.0**-24)
_TWO_PI_ULP = np.float32(2.0 * math.pi * 2.0**-24)
# Most threads that compute chunks: two cores is the measured case.
_WORKERS = 2


@dataclass(frozen=True)
class OverlapSample:
    """Summary of m draws of x = |<s|w>| in dimension n."""

    n: int
    num_samples: int
    mean_x2: float
    stderr_x2: float
    mean_x: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.mean_x2 <= 1.0:
            raise ValueError(f"mean_x2 must lie in [0, 1], got {self.mean_x2}")
        if self.stderr_x2 < 0.0:
            raise ValueError(f"stderr_x2 must be >= 0, got {self.stderr_x2}")


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    """State drawn uniformly from the unit sphere in complex dimension n."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    z = rng.standard_normal((2, n))
    v = z[0] + 1j * z[1]
    return StateVector(v / np.linalg.norm(v))


def _worker_count(n: int, m: int) -> int:
    """Threads that compute the chunks of m samples in dimension n: one per
    CPU this process may run on, at most one per chunk and at most _WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        cpus = os.cpu_count() or 1
    return min(cpus, -(-m // max(1, _CHUNK // n)), _WORKERS)


def _chunk_x2(raw: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """x^2 of the c = len(out) pairs drawn as the 2 c n words raw, into out.

    scratch is float32 with room for 3 c n entries: the phases, then the log
    moduli of s and of w. The integer phase differences pass through the
    space of w's log moduli, and the terms overwrite the log moduli once
    their sums are taken, so a chunk allocates no array of c n entries.
    """
    c = len(out)
    pairs = raw.size // 2
    phase = scratch[:pairs].reshape(c, -1)
    log_u = scratch[pairs : 3 * pairs].reshape(2, c, -1)  # log u = -|z|^2, u in (0, 1]
    # Little-endian halves of each word, shifted to their top 24 bits:
    # [..., 1] is bits 40-63 (modulus), [..., 0] is bits 8-31 (phase).
    halves = raw.astype("<u8", copy=False).view("<u4")
    np.right_shift(halves, 8, out=halves)
    words = halves.view(np.int32).reshape(2, c, -1, 2)
    diff = log_u[1].view(np.int32)
    np.subtract(words[1, ..., 0], words[0, ..., 0], out=diff)
    phase[...] = diff  # exact, as is the cast below: both are below 2^24 in size
    phase *= _TWO_PI_ULP
    log_u[...] = words[..., 1]
    log_u += 1.0
    log_u *= _ULP
    np.log(log_u, out=log_u)
    norms = log_u.sum(axis=2, dtype=np.float64)  # -<s|s>, -<w|w>
    amp = np.multiply(log_u[0], log_u[1], out=log_u[0])
    np.sqrt(amp, out=amp)
    trig = log_u[1]
    re = np.einsum("ij,ij->i", amp, np.cos(phase, out=trig), dtype=np.float64)
    im = np.einsum("ij,ij->i", amp, np.sin(phase, out=trig), dtype=np.float64)
    out[:] = (re * re + im * im) / (norms[0] * norms[1])


def _sample_x2(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m draws of x^2 for independent uniform pairs, _CHUNK coordinate pairs a chunk."""
    x2 = np.empty(m, dtype=np.float64)
    per_chunk = max(1, _CHUNK // n)
    starts = iter(range(0, m, per_chunk))
    lock = threading.Lock()
    failures: list[BaseException] = []

    def work() -> None:
        try:
            scratch = np.empty(3 * min(per_chunk, m) * n, dtype=np.float32)
            while True:
                with lock:  # chunk k takes the k-th block of the stream
                    start = next(starts, None)
                    if start is None or failures:
                        return
                    c = min(per_chunk, m - start)
                    raw = rng.bit_generator.random_raw(2 * c * n)
                _chunk_x2(raw, x2[start : start + c], scratch)
                del raw  # a worker holds one chunk's words at a time
        except BaseException as exc:  # re-raised by the caller once all have stopped
            with lock:
                failures.append(exc)

    # The caller's thread is one worker; each other runs in a copy of the
    # caller's context, and so under its np.errstate.
    started = []
    try:
        for _ in range(_worker_count(n, m) - 1):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(work,))
            thread.start()
            started.append(thread)
        work()
    finally:
        for thread in started:
            thread.join()
    if failures:
        raise failures[0]
    return np.minimum(x2, 1.0, out=x2)


def overlap_statistics(n: int, m: int, seed: int) -> OverlapSample:
    """Estimate E[x^2] (with standard error) and E[x] from m fresh pairs.

    Dimension one is a pure phase, so the exact values are returned without
    sampling.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if m < 100:
        raise ValueError(f"need at least 100 samples, got {m}")
    if n == 1:
        return OverlapSample(n=1, num_samples=m, mean_x2=1.0, stderr_x2=0.0, mean_x=1.0, seed=seed)
    rng = np.random.Generator(np.random.SFC64(seed))
    x2 = _sample_x2(n, m, rng)
    return OverlapSample(
        n=n,
        num_samples=m,
        mean_x2=float(x2.mean()),
        stderr_x2=float(x2.std(ddof=1) / math.sqrt(m)),
        mean_x=float(np.sqrt(x2).mean()),
        seed=seed,
    )
