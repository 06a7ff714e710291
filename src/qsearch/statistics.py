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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import StateVector

GENERATOR_NAME = "numpy-SFC64"

# Coordinate pairs per chunk: max(1, _CHUNK // n) samples at a time.
_CHUNK = 1 << 16
_ULP = np.float32(2.0**-24)
_TWO_PI_ULP = np.float32(2.0 * math.pi * 2.0**-24)


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


def _sample_x2(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m draws of x^2 for independent uniform pairs, _CHUNK coordinate pairs a chunk."""
    x2 = np.empty(m, dtype=np.float64)
    per_chunk = max(1, _CHUNK // n)
    done = 0
    while done < m:
        c = min(per_chunk, m - done)
        # Little-endian halves of each word, shifted to their top 24 bits:
        # [..., 1] is bits 40-63 (modulus), [..., 0] is bits 8-31 (phase).
        halves = rng.bit_generator.random_raw(2 * c * n).astype("<u8", copy=False).view("<u4")
        np.right_shift(halves, 8, out=halves)
        words = halves.view(np.int32).reshape(2, c, n, 2)
        log_u = words[..., 1].astype(np.float32)  # log u = -|z|^2, u in (0, 1]
        log_u += 1.0
        log_u *= _ULP
        np.log(log_u, out=log_u)
        phase = np.subtract(words[1, ..., 0], words[0, ..., 0]).astype(np.float32)
        phase *= _TWO_PI_ULP
        amp = np.multiply(log_u[0], log_u[1])
        np.sqrt(amp, out=amp)
        re = np.einsum("ij,ij->i", amp, np.cos(phase), dtype=np.float64)
        im = np.einsum("ij,ij->i", amp, np.sin(phase), dtype=np.float64)
        norms = log_u.sum(axis=2, dtype=np.float64)  # -<s|s>, -<w|w>
        x2[done : done + c] = (re * re + im * im) / (norms[0] * norms[1])
        done += c
    return np.minimum(x2, 1.0)


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
