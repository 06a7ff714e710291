"""Numerical experiment behind the query lower bound.

For every candidate target w, the state evolved under E|w><w| + H_D(t) is
compared against the reference evolved under H_D(t) alone. The summed
squared distance D(t) grows at most 2*E*sqrt(N) per unit time regardless of
the driver, which is what caps how fast any drive can reveal w. This module
evolves all N + 1 trajectories over a time grid, keeping per oracle only
what the bound reads (its distance to the reference and <w|psi_w(t)>), then
computes D(t), checks the integrated and derivative forms of the growth
bound, and locates the first time the trajectories become distinguishable
at a given threshold.

Drivers are piecewise-constant schedules; each segment is propagated exactly
(up to eigendecomposition error) in its own eigenbasis, so no ODE-stepping
error pollutes the bound checks. A smooth driver can be approximated by
refining segments; convergence of that approximation is the caller's
responsibility. The per-oracle trajectories are independent and could run in
parallel; they are reduced in a fixed order so results never depend on
scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import BasisError, DimensionError, NormalizationError, ScheduleError
from .linalg import HermitianOperator, RankOneHamiltonian, StateVector, propagate

ORTHONORMAL_TOL = 1e-10


@dataclass(frozen=True)
class DriverSchedule:
    """Piecewise-constant driver: ordered (duration, operator) segments."""

    segments: tuple[tuple[float, HermitianOperator], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        dims = {op.dim for _, op in self.segments}
        if len(dims) != 1:
            raise DimensionError(f"segments mix dimensions {sorted(dims)}")
        for dur, _ in self.segments:
            if not (math.isfinite(dur) and dur > 0.0):
                raise ValueError(f"segment duration must be positive, got {dur}")

    @property
    def dim(self) -> int:
        return self.segments[0][1].dim

    @property
    def horizon(self) -> float:
        return float(sum(dur for dur, _ in self.segments))

    @classmethod
    def constant(cls, op: HermitianOperator, horizon: float) -> "DriverSchedule":
        return cls(segments=((float(horizon), op),))

    @classmethod
    def rank_one(cls, term: RankOneHamiltonian, horizon: float) -> "DriverSchedule":
        return cls.constant(term.matrix(), horizon)

    @classmethod
    def zero(cls, n: int, horizon: float) -> "DriverSchedule":
        return cls.constant(HermitianOperator.zero(n), horizon)

    @classmethod
    def piecewise(
        cls, ops: Sequence[HermitianOperator], durations: Sequence[float]
    ) -> "DriverSchedule":
        if len(ops) != len(durations):
            raise ValueError("need one duration per operator")
        return cls(segments=tuple((float(d), op) for d, op in zip(durations, ops)))


def _random_hermitian(n: int, spectral_norm: float, rng: np.random.Generator) -> HermitianOperator:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2.0
    top = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    return HermitianOperator(h * (spectral_norm / top))


def build_driver(
    family: str,
    n: int,
    energy: float,
    norm_mult: float,
    horizon: float,
    rng: np.random.Generator,
    segments: int = 10,
) -> DriverSchedule:
    """Driver schedule for one of the experiment families ("paper", "zero",
    "random-dense", "piecewise"); random families set the spectral norm to
    energy * norm_mult."""
    if family == "paper":
        return DriverSchedule.rank_one(
            RankOneHamiltonian(energy * norm_mult, StateVector.uniform(n)), horizon
        )
    if family == "zero":
        return DriverSchedule.zero(n, horizon)
    if family == "random-dense":
        return DriverSchedule.constant(_random_hermitian(n, energy * norm_mult, rng), horizon)
    if family == "piecewise":
        ops = [_random_hermitian(n, energy * norm_mult, rng) for _ in range(segments)]
        return DriverSchedule.piecewise(ops, [horizon / segments] * segments)
    raise ValueError(f"unknown driver family {family!r}")


def _check_orthonormal(basis_rows: np.ndarray) -> None:
    gram = basis_rows.conj() @ basis_rows.T
    if float(np.max(np.abs(gram - np.eye(basis_rows.shape[0])))) > ORTHONORMAL_TOL:
        raise BasisError("basis fails the orthonormality check")


def sum_oracle_hamiltonians(
    e: float, basis: Sequence[StateVector]
) -> HermitianOperator:
    """Sum of E|w><w| over an orthonormal basis; completeness makes it E*I."""
    rows = np.asarray([w.amps for w in basis])
    if rows.shape[0] != rows.shape[1]:
        raise BasisError(f"need a full basis: {rows.shape[0]} vectors in dimension {rows.shape[1]}")
    _check_orthonormal(rows)
    return HermitianOperator(e * (rows.T @ rows.conj()))


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """The driver-only reference's amplitude rows ``reference[j]`` on a common
    time grid, and per oracle w (row w of ``oracle_basis``) only what the bound
    reads: ``distance[w, j]`` = ||psi_w(t_j) - psi(t_j)||^2 and
    ``amplitude[w, j]`` = <w|psi_w(t_j)>."""

    grid: np.ndarray
    reference: np.ndarray
    distance: np.ndarray
    amplitude: np.ndarray
    oracle_scale: float
    oracle_basis: np.ndarray

    def __post_init__(self):
        for name in ("grid", "reference", "distance", "amplitude", "oracle_basis"):
            getattr(self, name).setflags(write=False)

    @property
    def dim(self) -> int:
        return self.reference.shape[1]

    @property
    def num_oracles(self) -> int:
        return self.distance.shape[0]


def _propagate_schedule(
    segments: list[tuple[float, np.ndarray]], psi0: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """Evolve psi0 across the grid under (duration, Hamiltonian) segments.

    Each segment is one ``propagate`` call from its entry state, at the
    segment's grid times and then at its end; that last row is the state
    handed to the next segment. Checked: rows keep unit norm to 1e-9.
    """
    out = np.empty((grid.shape[0], psi0.shape[0]), dtype=np.complex128)
    out[0] = psi0
    psi, t_entry, lo = psi0, 0.0, 1
    for seg_idx, (dur, mat) in enumerate(segments):
        seg_end = t_entry + dur
        # Grid points up to (and including) this segment's end belong here.
        hi = int(np.searchsorted(grid, seg_end, side="right"))
        if seg_idx == len(segments) - 1:
            hi = grid.shape[0]  # absorb horizon-level roundoff into the last segment
        rel = np.maximum(grid[lo:hi] - t_entry, 0.0)
        rows = propagate(mat, psi, np.append(rel, seg_end - t_entry))
        out[lo:hi] = rows[:-1]
        psi = rows[-1]
        lo, t_entry = hi, seg_end
    drift = float(np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)))
    if not drift <= 1e-9:  # also catches nan
        raise NormalizationError(f"trajectory drifts in norm by {drift!r}")
    return out


def oracle_trajectory(
    e: float, w: np.ndarray, driver: DriverSchedule, psi0: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """Amplitude rows of psi0 evolved under E|w><w| + driver at the grid
    times: one oracle's full (len(grid), N) block."""
    proj = e * np.outer(w, w.conj())
    return _propagate_schedule([(dur, op.mat + proj) for dur, op in driver.segments], psi0, grid)


def evolve_trajectories(
    e: float,
    oracle_basis: Sequence[StateVector],
    driver: DriverSchedule,
    initial: StateVector,
    grid: np.ndarray,
) -> TrajectorySet:
    """Evolve the reference and every per-oracle trajectory over the grid.

    The reference follows the driver alone; trajectory w follows
    E|w><w| + driver and is checked and reduced before the next is made.
    The grid must start at 0, increase strictly, and stay within the
    schedule horizon.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.shape[0] < 1 or grid[0] != 0.0:
        raise ValueError("grid must be a 1-d array starting at 0")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid times must increase strictly")
    if grid[-1] > driver.horizon + 1e-9:
        raise ScheduleError(
            f"grid reaches {grid[-1]!r} beyond the schedule horizon {driver.horizon!r}"
        )
    n = initial.dim
    if driver.dim != n:
        raise DimensionError(f"dimension mismatch: driver {driver.dim} vs state {n}")
    rows = np.asarray([w.amps for w in oracle_basis])
    if rows.shape != (n, n):
        raise BasisError(f"need a full oracle basis of shape ({n}, {n}), got {rows.shape}")
    _check_orthonormal(rows)

    reference = _propagate_schedule([(dur, op.mat) for dur, op in driver.segments], initial.amps, grid)
    distance = np.empty((n, grid.shape[0]))
    amplitude = np.empty((n, grid.shape[0]), dtype=np.complex128)
    for wi in range(n):
        block = oracle_trajectory(e, rows[wi], driver, initial.amps, grid)
        diff = block - reference
        distance[wi] = np.einsum("jn,jn->j", diff, diff.conj()).real
        amplitude[wi] = np.einsum("n,jn->j", rows[wi].conj(), block)

    return TrajectorySet(
        grid=grid.copy(),
        reference=reference,
        distance=distance,
        amplitude=amplitude,
        oracle_scale=float(e),
        oracle_basis=rows,
    )


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Divergence profile, growth-bound checks, and (optionally) the first
    time the trajectories separate by a threshold epsilon.

    ``t_epsilon`` uses the smallest per-oracle distance (every candidate
    distinguishable); ``t_epsilon_second`` uses the second-smallest, the
    all-but-one criterion the lower bound is stated for. Either is None when
    the threshold is never reached on the grid.
    """

    grid: np.ndarray
    divergence: np.ndarray
    bound_line: np.ndarray
    derivative_estimates: np.ndarray
    min_distance: np.ndarray
    second_min_distance: np.ndarray
    oracle_scale: float
    dim: int
    bound_satisfied: bool
    derivative_bound_satisfied: bool
    fd_curvature: float
    epsilon: float | None = None
    t_epsilon: float | None = None
    t_epsilon_second: float | None = None
    lower_bound: float | None = None
    lower_bound_satisfied: bool | None = None

    @property
    def rate_cap(self) -> float:
        return 2.0 * self.oracle_scale * math.sqrt(self.dim)


BOUND_SLACK = 1e-6
FD_ABS_SLACK = 1e-9


def divergence_profile(traj: TrajectorySet) -> BoundReport:
    """D(t) = sum_w ||psi_w,t - psi_t||^2 against the 2*E*sqrt(N)*t line.

    Also reports central-difference dD/dt estimates with a grid-dependent
    tolerance C*dt, where C is the largest second-difference curvature of
    the sampled D.
    """
    divergence = traj.distance.sum(axis=0)
    grid = traj.grid
    rate = 2.0 * traj.oracle_scale * math.sqrt(traj.dim)
    bound_line = rate * grid

    if grid.shape[0] >= 3:
        deriv = (divergence[2:] - divergence[:-2]) / (grid[2:] - grid[:-2])
        dt = float(np.max(np.diff(grid)))
        with np.errstate(over="ignore"):  # an inf reaches the caller's finiteness check
            second = np.abs(np.diff(divergence, 2)) / np.diff(grid)[:-1] / np.diff(grid)[1:]
        curvature = float(np.max(second)) if second.size else 0.0
        deriv_ok = bool(np.all(deriv <= rate + curvature * dt + FD_ABS_SLACK))
    else:
        deriv = np.empty(0)
        curvature = 0.0
        deriv_ok = True

    runner_up = min(1, traj.num_oracles - 1)  # a lone oracle is its own runner-up
    part = np.partition(traj.distance, runner_up, axis=0)
    min_d, second_d = part[0], part[runner_up]

    return BoundReport(
        grid=grid,
        divergence=divergence,
        bound_line=bound_line,
        derivative_estimates=deriv,
        min_distance=min_d,
        second_min_distance=second_d,
        oracle_scale=traj.oracle_scale,
        dim=traj.dim,
        bound_satisfied=bool(np.all(divergence <= bound_line + BOUND_SLACK)),
        derivative_bound_satisfied=deriv_ok,
        fd_curvature=curvature,
    )


def _first_crossing(grid: np.ndarray, values: np.ndarray, threshold: float) -> float | None:
    hits = np.nonzero(values >= threshold)[0]
    return float(grid[hits[0]]) if hits.size else None


def discrimination_time(traj: TrajectorySet, epsilon: float) -> BoundReport:
    """Locate the first grid time the per-oracle distances reach epsilon.

    The squared distance between unit vectors tops out at 4, so epsilon may
    be anywhere in (0, 4]. When a crossing exists it must come no earlier
    than epsilon*sqrt(N)/(2E) minus one grid step.
    """
    if not 0.0 < epsilon <= 4.0:
        raise ValueError(f"epsilon must lie in (0, 4], got {epsilon}")
    report = divergence_profile(traj)
    t_eps = _first_crossing(report.grid, report.min_distance, epsilon)
    t_eps2 = _first_crossing(report.grid, report.second_min_distance, epsilon)
    lower = epsilon * math.sqrt(traj.dim) / (2.0 * traj.oracle_scale)
    dt = float(np.max(np.diff(report.grid))) if report.grid.shape[0] > 1 else 0.0
    satisfied = None if t_eps2 is None else bool(t_eps2 >= lower - dt)
    return replace(
        report,
        epsilon=float(epsilon),
        t_epsilon=t_eps,
        t_epsilon_second=t_eps2,
        lower_bound=lower,
        lower_bound_satisfied=satisfied,
    )


def per_oracle_rates(traj: TrajectorySet) -> np.ndarray:
    """Instantaneous growth rate 2*Im <psi_w,t| E|w><w| |psi_t> per oracle.

    Shape (num_oracles, len(grid)); summing over oracles gives the exact
    dD/dt whose Cauchy-Schwarz estimate is the 2*E*sqrt(N) cap.
    """
    overlap = np.conj(traj.amplitude) * (traj.oracle_basis.conj() @ traj.reference.T)
    return 2.0 * traj.oracle_scale * overlap.imag


def oracle_coupling_norms(traj: TrajectorySet) -> np.ndarray:
    """|| E|w><w| psi_t || = E |<w|psi_t>| per oracle and grid time.

    Diagnostic for how much slack the Cauchy-Schwarz step leaves; shape
    (num_oracles, len(grid)).
    """
    return traj.oracle_scale * np.abs(traj.oracle_basis.conj() @ traj.reference.T)
