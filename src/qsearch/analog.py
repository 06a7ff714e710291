"""Closed-form dynamics of the rank-one search Hamiltonian.

The full Hamiltonian E|w><w| + E|s><s| confines the motion to the plane
spanned by the target |w> and the unit vector |r> orthogonal to it inside
that plane. With x the (rephased, non-negative) overlap <s|w>, the state
rotates at angular frequency E*x and reaches |w> with probability one at
t = pi / (2 E x). Everything here but ``full_space_probability`` is the exact
trigonometric solution; that function propagates the same plane with the
generic propagator in ``linalg`` and serves as its independent cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import HermitianOperator, RankOneHamiltonian, StateVector, inner_product, propagate

# |<s|w>| at or above this is treated as colinear: no orthogonal complement.
COLINEAR_TOL = 1e-12


@dataclass(frozen=True)
class TwoLevelSystem:
    """(energy, overlap) parameterization of the invariant two-dimensional
    subspace. ``dim_hint`` records the originating full dimension and has no
    effect on the dynamics."""

    energy: float
    overlap: float
    dim_hint: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.energy) and self.energy > 0.0):
            raise ValueError(f"energy must be positive, got {self.energy}")
        if not (math.isfinite(self.overlap) and 0.0 <= self.overlap <= 1.0):
            raise ValueError(f"overlap must lie in [0, 1], got {self.overlap}")


@dataclass(frozen=True)
class TwoLevelState:
    """Amplitudes on (|w>, |r>), unit norm within 1e-12."""

    amp_w: complex
    amp_r: complex

    def __post_init__(self):
        nrm2 = abs(self.amp_w) ** 2 + abs(self.amp_r) ** 2
        if abs(nrm2 - 1.0) > 1e-12:
            raise ValueError(f"|amp_w|^2 + |amp_r|^2 = {nrm2!r}, expected 1")

    @property
    def probability_w(self) -> float:
        return abs(self.amp_w) ** 2


def absorb_phase(s: StateVector, w: StateVector) -> StateVector:
    """Rephase s so that <s|w> becomes real and non-negative."""
    ip = inner_product(s, w)
    x = abs(ip)
    if x == 0.0:
        return s
    return StateVector((ip / x) * s.amps)


def reduced_basis(s: StateVector, w: StateVector) -> tuple[float, StateVector]:
    """Overlap x = |<s|w>| and the unit vector r completing {|w>, |r>}.

    r is built from the rephased s, so s' = x*w + sqrt(1-x^2)*r with all
    coefficients real. Colinear inputs (x within COLINEAR_TOL of 1) raise
    ``ValueError``.
    """
    if s.dim != w.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {w.dim}")
    x = abs(inner_product(s, w))
    if x >= 1.0 - COLINEAR_TOL:
        raise ValueError(f"overlap {x!r} leaves no orthogonal component")
    s_re = absorb_phase(s, w)
    r = (s_re.amps - x * w.amps) / math.sqrt(1.0 - x * x)
    return x, StateVector(r)


def two_level_hamiltonian(sys: TwoLevelSystem) -> HermitianOperator:
    """The search Hamiltonian restricted to the (|w>, |r>) plane."""
    e, x = sys.energy, sys.overlap
    c = x * math.sqrt(1.0 - x * x)
    return HermitianOperator(
        e * np.array([[1.0 + x * x, c], [c, 1.0 - x * x]], dtype=np.complex128)
    )


def two_level_eigenvalues(sys: TwoLevelSystem) -> tuple[float, float]:
    """(E(1-x), E(1+x)); the gap 2xE sets the rotation rate."""
    e, x = sys.energy, sys.overlap
    return e * (1.0 - x), e * (1.0 + x)


def evolve_closed_form(sys: TwoLevelSystem, t: float) -> TwoLevelState:
    """State at time t, starting from s = (x, sqrt(1-x^2)) at t = 0."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    e, x = sys.energy, sys.overlap
    phase = cmath.exp(-1j * e * t)
    c, s_ = math.cos(e * x * t), math.sin(e * x * t)
    return TwoLevelState(
        amp_w=phase * (x * c - 1j * s_),
        amp_r=phase * (math.sqrt(1.0 - x * x) * c),
    )


def success_probability(sys: TwoLevelSystem, t: float) -> float:
    """Probability of finding |w> at time t: sin^2(Ext) + x^2 cos^2(Ext)."""
    e, x = sys.energy, sys.overlap
    c, s_ = math.cos(e * x * t), math.sin(e * x * t)
    p = s_ * s_ + x * x * c * c
    return min(max(p, 0.0), 1.0)


def measurement_time(sys: TwoLevelSystem) -> float:
    """First time the success probability reaches one: pi / (2 E x)."""
    if sys.overlap == 0.0:
        raise ValueError("zero overlap: probability stays at 0 for all t")
    return math.pi / (2.0 * sys.energy * sys.overlap)


def full_space_probability(energy: float, s: StateVector, w: StateVector, times) -> np.ndarray:
    """P(t) = |<w| exp(-i H t) |s>|^2 for H = E|w><w| + E|s><s|, one entry
    per time: the full-space success probability, which a global phase on
    the start (as ``absorb_phase`` applies) leaves unchanged.

    Exact for any N without an N x N matrix: with B = [w, s], H B = B (E G)
    for the Gram matrix G = B^dagger B = [[1, g], [conj g, 1]], g = <w|s>, so
    a state B c stays in span{w, s} and its coefficients evolve as
    exp(-i E (G - I) t) c from c0 = (0, 1). The E I shift is a global phase;
    it leaves a zero diagonal, so no eigenvalue near E is rounded.
    <w|B c> = (G c)_0. No N-vector is projected onto a basis or summed into
    c0, so c0 carries no O(sqrt(N) eps) rounding, and the colinear case
    (singular G) stays exact.
    """
    if s.dim != w.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {w.dim}")
    g = inner_product(w, s)
    gram = np.array([[1.0, g], [g.conjugate(), 1.0]])
    coeffs = propagate(*np.linalg.eigh(energy * (gram - np.eye(2))), np.array([0.0, 1.0]), times)
    return np.abs(coeffs[:, 0] + g * coeffs[:, 1]) ** 2


def assemble_search_hamiltonian(
    oracle: RankOneHamiltonian, driver: RankOneHamiltonian
) -> HermitianOperator:
    """Full N x N sum of the oracle and driver rank-one terms: the dense
    small-N reference that ``full_space_probability`` is tested against.
    Unequal scales are accepted (a stronger driver, say); the closed form
    holds only for equal ones.
    """
    if oracle.dim != driver.dim:
        raise ValueError(f"dimension mismatch: {oracle.dim} vs {driver.dim}")
    return HermitianOperator(oracle.matrix().mat + driver.matrix().mat)
