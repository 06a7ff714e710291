"""Monte Carlo check that two random unit vectors in complex dimension N
have E[|<s|w>|^2] = 1/N.

Sampling draws all 2N real coordinates from a standard normal and
normalizes, which is the uniform distribution on the unit sphere. The
generator is numpy's SFC64 (named, seedable, platform independent) so a
fixed seed reproduces results byte for byte; parallel use would carve
sub-streams with ``numpy.random.SeedSequence(seed).spawn``, which keeps the
merged estimate order independent. The bulk estimator draws coordinates in
float32 (same distribution up to coordinate discretization, roughly 3x the
throughput on one core) and accumulates the estimates in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import StateVector

GENERATOR_NAME = "numpy-SFC64"

_CHUNK = 4096


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
    """m draws of x^2 for independent uniform pairs, chunked float32 path."""
    x2 = np.empty(m, dtype=np.float64)
    # One buffer for every chunk: the draws land in it in C order, exactly as
    # in a fresh (4, c, n) array, without a new allocation per chunk.
    buf = np.empty(4 * min(_CHUNK, m) * n, dtype=np.float32)
    done = 0
    while done < m:
        c = min(_CHUNK, m - done)
        z = buf[: 4 * c * n].reshape(4, c, n)
        rng.standard_normal(dtype=np.float32, out=z)
        a, b, cc, d = z
        ip_re = np.einsum("ij,ij->i", a, cc) + np.einsum("ij,ij->i", b, d)
        ip_im = np.einsum("ij,ij->i", a, d) - np.einsum("ij,ij->i", b, cc)
        ns = np.einsum("ij,ij->i", a, a) + np.einsum("ij,ij->i", b, b)
        nw = np.einsum("ij,ij->i", cc, cc) + np.einsum("ij,ij->i", d, d)
        x2[done : done + c] = (
            (ip_re.astype(np.float64) ** 2 + ip_im.astype(np.float64) ** 2)
            / (ns.astype(np.float64) * nw.astype(np.float64))
        )
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
