"""Digital amplitude amplification: reflection operators, the reduced
two-dimensional rotation picture, and full state-vector runs.

The oracle is modeled as a marked index, not executable code; each iterate
is booked as two oracle calls (the work-bit erasure cost of a reversible
implementation). ``apply_us`` uses the O(N) inversion-about-the-mean
identity; a dense reference matrix is available for small N to cross-check
it.

``run_grover`` iterates on one real float64 array in place. Real arithmetic
is exact here, not an approximation: U_f, U_s and the start state |s> are
real, so the imaginary half of a complex state would stay zero throughout.
Both paths apply the reflections through the same two helpers, so
``apply_uf``/``apply_us`` on a ``StateVector`` and the in-place loop share
one definition of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QSearchError
from .linalg import NORM_TOL, StateVector

US_DENSE_MAX_DIM = 64


@dataclass(frozen=True)
class GroverInstance:
    """Search space of size dim with one marked index."""

    dim: int
    marked: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if not 0 <= self.marked < self.dim:
            raise ValueError(f"marked index {self.marked} out of range for dim {self.dim}")


@dataclass(frozen=True, eq=False)
class GroverRun:
    """Record of one run: success probability after 0..k iterations and the
    oracle-call count (two calls per iteration)."""

    instance: GroverInstance
    iterations: int
    probabilities: np.ndarray
    oracle_calls: int

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.shape != (self.iterations + 1,):
            raise ValueError(f"need {self.iterations + 1} probabilities, got {probs.shape}")
        if not np.all((0.0 <= probs) & (probs <= 1.0)):  # also rejects nan
            raise ValueError("probabilities must lie in [0, 1]")
        if self.oracle_calls != 2 * self.iterations:
            raise ValueError(f"oracle_calls must be 2k = {2 * self.iterations}")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)


def _flip(a: np.ndarray, marked: int) -> None:
    """(1 - 2|w><w|) a in place, exactly."""
    a[marked] = -a[marked]


def _reflect_about_mean(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = (2|s><s| - 1) a = 2 mean(a) - a; ``out`` may be ``a`` itself."""
    return np.subtract(2.0 * a.mean(), a, out=out)


def apply_uf(inst: GroverInstance, v: StateVector) -> StateVector:
    """Flip the sign of the marked amplitude: (1 - 2|w><w|) v, exactly."""
    if v.dim != inst.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {inst.dim}")
    amps = v.amps.copy()
    _flip(amps, inst.marked)
    return StateVector(amps)


def apply_us(v: StateVector) -> StateVector:
    """(2|s><s| - 1) v for the uniform s, via inversion about the mean."""
    return StateVector(_reflect_about_mean(v.amps, np.empty_like(v.amps)))


def us_matrix(n: int) -> np.ndarray:
    """Dense reference for apply_us, capped at small N for testing."""
    if n > US_DENSE_MAX_DIM:
        raise ValueError(f"dense path limited to dim <= {US_DENSE_MAX_DIM}, got {n}")
    return (2.0 / n) * np.ones((n, n), dtype=np.complex128) - np.eye(n, dtype=np.complex128)


def rotation_angle(n: int) -> float:
    """Per-iteration rotation angle theta, cos(theta) = 1 - 2/N.

    Evaluated by the half-angle form 2*atan2(1, sqrt(N-1)), the same angle
    without the precision loss of acos(1 - 2/N) for large N.
    """
    if n < 2:
        raise ValueError(f"dim must be >= 2, got {n}")
    return 2.0 * math.atan2(1.0, math.sqrt(n - 1.0))


def reduced_step_matrix(n: int) -> np.ndarray:
    """One iterate as a 2x2 rotation in (|w>, |r>) coordinates.

    Oriented so that the all-positive initial state (A8-style coordinates
    (N^-1/2, sqrt(1-1/N))) rotates toward the |w> axis, which is what the
    full state-vector iteration does.
    """
    th = rotation_angle(n)
    c, s = math.cos(th), math.sin(th)
    return np.array([[c, s], [-s, c]], dtype=np.float64)


def reduced_initial_state(n: int) -> np.ndarray:
    """Uniform superposition in (|w>, |r>) coordinates."""
    if n < 2:
        raise ValueError(f"dim must be >= 2, got {n}")
    return np.array([1.0 / math.sqrt(n), math.sqrt(1.0 - 1.0 / n)], dtype=np.float64)


def reduced_probability(n: int, k: int) -> float:
    """Reduced-basis prediction for the success probability after k steps."""
    th = rotation_angle(n)
    return math.sin((2 * k + 1) * th / 2.0) ** 2


def run_grover(inst: GroverInstance, k: int) -> GroverRun:
    """Apply (U_s U_f) k times to the uniform superposition.

    Records |<w|psi>|^2 after 0..k steps; the j-th entry should match
    ``reduced_probability(dim, j)``.

    The state is one real float64 array of N entries 1/sqrt(N) (each within
    half an ulp, so it is not renormalized), reflected in place by the
    helpers behind ``apply_uf``/``apply_us`` (exact, since U_f, U_s and |s>
    are real), so a run holds 8 N bytes of state. Every step still takes the
    mean over the full N-vector; the two reduced coordinates are never used,
    so the result stays an independent check of ``reduced_probability``. The
    norm is checked once, after the last step (else ``QSearchError``).
    """
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    amps = np.full(inst.dim, 1.0 / math.sqrt(inst.dim))
    probs = np.empty(k + 1, dtype=np.float64)
    probs[0] = min(amps[inst.marked] ** 2, 1.0)
    for j in range(1, k + 1):
        _flip(amps, inst.marked)
        _reflect_about_mean(amps, out=amps)
        probs[j] = min(amps[inst.marked] ** 2, 1.0)
    nrm = np.linalg.norm(amps)
    if not abs(nrm - 1.0) <= NORM_TOL:  # also rejects nan
        raise QSearchError(f"grover iterate drifted to norm {nrm!r}")
    return GroverRun(instance=inst, iterations=k, probabilities=probs, oracle_calls=2 * k)


def optimal_iterations(n: int) -> int:
    """Iteration count maximizing the success probability.

    Nearest integer to pi/(2*theta) - 1/2 with exact half-way ties broken
    toward the smaller count (at N = 2 every count gives probability 1/2,
    so the answer is 0).
    """
    th = rotation_angle(n)
    target = math.pi / (2.0 * th) - 0.5
    return max(0, math.ceil(target - 0.5))
