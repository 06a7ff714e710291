"""Numerical experiment behind the query lower bound.

For every candidate target w, the state evolved under E|w><w| + H_D(t) is
compared against the reference evolved under H_D(t) alone. The summed
squared distance D(t) grows at most 2*E*sqrt(N) per unit time regardless of
the driver, which is what caps how fast any drive can reveal w. This module
evolves all N + 1 trajectories over an evenly spaced time grid, keeping per
oracle only its squared distance to the reference, then computes D(t),
checks the integrated and derivative forms of the growth bound, and locates
the first time the trajectories become distinguishable at a given threshold.

Drivers are piecewise-constant schedules; each segment is propagated exactly
(up to eigendecomposition error) in its own eigenbasis, so no ODE-stepping
error pollutes the bound checks. A segment's driver is eigendecomposed once
(O(N^3)); every oracle term is rank one, so each oracle's eigensystem is a
rank-one update of the driver's (O(N^2)), and its trajectory costs O(N^2)
per grid point; the even spacing lets its phase table take one cos/sin
column per PHASE_BLOCK points. A smooth driver can be approximated by
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

from .errors import QSearchError
from .linalg import (
    HermitianOperator,
    RankOneHamiltonian,
    StateVector,
    _phase_table,
    propagate,
    rank_one_eigh,
)

ORTHONORMAL_TOL = 1e-10

# Oracles whose eigensystems ``rank_one_eigh`` finds together: the batch's
# N x N arrays hold about this many entries (512 KiB of float64).
ORACLE_BATCH_ELEMENTS = 1 << 16

# An oracle's segment is worked in blocks of grid points: its phase table and
# its states are two N x width complex buffers of about this many entries each
# (2 MiB apiece). The width, 1024 points at N = 128, keeps a grid of 1001 points
# in one block; 256- and 128-point blocks were 9% and 21% slower there.
TIME_BLOCK_ELEMENTS = 1 << 17

# The grid is evenly spaced, so the phase table exp(-i mu t_{aB+b}) is built
# from two small tables, exp(-i mu t_{aB}) and exp(-i mu b dt), for
# B = PHASE_BLOCK: about B times fewer cos/sin evaluations. A grid point may
# lie up to UNIFORM_ULPS ulps of the grid's end from np.linspace's.
PHASE_BLOCK = 32
UNIFORM_ULPS = 16


@dataclass(frozen=True)
class DriverSchedule:
    """Piecewise-constant driver: ordered (duration, operator) segments."""

    segments: tuple[tuple[float, HermitianOperator], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        dims = {op.dim for _, op in self.segments}
        if len(dims) != 1:
            raise ValueError(f"segments mix dimensions {sorted(dims)}")
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
    re, im = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    # (g + g^dagger) / 2 for g = re + i im, written into one complex array
    h = np.empty((n, n), dtype=np.complex128)
    np.add(re, re.T, out=h.real)
    np.subtract(im, im.T, out=h.imag)
    del re, im
    h *= 0.5
    h *= spectral_norm / float(np.max(np.abs(np.linalg.eigvalsh(h))))
    return HermitianOperator(h)


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


def sum_oracle_hamiltonians(
    e: float, basis: Sequence[StateVector]
) -> HermitianOperator:
    """Sum of E|w><w| over an orthonormal basis; completeness makes it E*I."""
    rows = np.asarray([w.amps for w in basis])
    if rows.shape[0] != rows.shape[1]:
        raise ValueError(f"need a full basis: {rows.shape[0]} vectors in dimension {rows.shape[1]}")
    if float(np.max(np.abs(rows.conj() @ rows.T - np.eye(rows.shape[0])))) > ORTHONORMAL_TOL:
        raise ValueError("basis fails the orthonormality check")
    return HermitianOperator(e * (rows.T @ rows.conj()))


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """Per oracle E|w><w|, w = e_w of the standard basis, and grid time t_j,
    only what the bound reads: ``distance[w, j]`` = ||psi_w(t_j) - psi(t_j)||^2,
    the squared distance to the driver-only reference."""

    grid: np.ndarray
    distance: np.ndarray
    oracle_scale: float

    def __post_init__(self):
        self.grid.setflags(write=False)
        self.distance.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.distance.shape[0]


def _segment_times(durations: Sequence[float], grid: np.ndarray):
    """Per segment, the slice [lo, hi) of grid points it owns and the times,
    from its entry, to propagate to: those points, then the segment's end,
    whose state is handed to the next segment. Point 0 is the initial state."""
    t_entry, lo = 0.0, 1
    for seg_idx, dur in enumerate(durations):
        seg_end = t_entry + dur
        # Grid points up to (and including) this segment's end belong here.
        hi = int(np.searchsorted(grid, seg_end, side="right"))
        if seg_idx == len(durations) - 1:
            hi = grid.shape[0]  # absorb horizon-level roundoff into the last segment
        rel = np.maximum(grid[lo:hi] - t_entry, 0.0)
        yield lo, hi, np.append(rel, seg_end - t_entry)
        lo, t_entry = hi, seg_end


def _check_norms(cols: np.ndarray) -> None:
    """Each column of ``cols`` (states side by side, in one matrix or a stack
    of them) has unit norm to 1e-9, else ``QSearchError``: the propagation
    failed its own check."""
    flat = cols.view(np.float64)  # real and imaginary parts side by side
    norms = np.sqrt(np.einsum("...ij,...ij->...j", flat, flat).reshape(-1, 2).sum(axis=1))
    drift = float(np.max(np.abs(norms - 1.0), initial=0.0))
    if not drift <= 1e-9:  # also catches nan
        raise QSearchError(f"trajectory drifts in norm by {drift!r}")


def _factored_table(lam: np.ndarray, times: np.ndarray, dt: float, c: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The N x len(times) table exp(-i lam t_j) c for a run of times
    t_{aB+b} = t_{aB} + b dt, B = PHASE_BLOCK, C-ordered, in the front of the
    flat buffer ``out`` when one is given.

    Column aB + b is the product of exp(-i lam t_{aB}) c, at the block's own
    first time, and exp(-i lam b dt) = exp(-i lam dt)^b: per block of B
    columns, one column of cos/sin and B complex products.
    """
    n, count = lam.shape[0], times.shape[0]
    buf = np.empty((n, count), dtype=np.complex128) if out is None else out[:n * count].reshape(n, count)
    full, rest = divmod(count, PHASE_BLOCK)
    heads = _phase_table(lam, times[::PHASE_BLOCK], c)
    # the powers of exp(-i lam dt) by repeated products: within B - 1 roundings
    powers = np.empty((n, PHASE_BLOCK), dtype=np.complex128)
    powers[:, 0] = 1.0
    powers[:, 1:] = _phase_table(lam, np.array([dt]))
    np.cumprod(powers, axis=1, out=powers)
    # a view: the split axis is contiguous within each row
    body = buf[:, :full * PHASE_BLOCK].reshape(n, full, PHASE_BLOCK)
    np.multiply(heads[:, :full, None], powers[:, None, :], out=body)
    np.multiply(heads[:, full:], powers[:, :rest], out=buf[:, full * PHASE_BLOCK:])
    return buf


def _real_product(q: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """q @ cols for a real q and complex cols (one matrix each, or stacks),
    as one real product on the float64 view of cols, whose last axis must be
    contiguous; into the front of the flat buffer ``out`` when one is given."""
    if out is not None:
        out = out[:cols.size].reshape(cols.shape).view(np.float64)
    return np.matmul(q, cols.view(np.float64), out=out).view(np.complex128)


def _propagate_schedule(
    segments: list[tuple[float, np.ndarray, np.ndarray]], psi0: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """Evolve psi0 across the grid under (duration, eigenvalues, eigenvectors)
    segments: one ``propagate`` call per segment from its entry state.
    Checked: rows keep unit norm to 1e-9."""
    out = np.empty((grid.shape[0], psi0.shape[0]), dtype=np.complex128)
    out[0] = psi0
    psi = psi0
    for (lo, hi, times), (_, evals, vecs) in zip(_segment_times([s[0] for s in segments], grid), segments):
        rows = propagate(evals, vecs, psi, times)
        out[lo:hi] = rows[:-1]
        psi = rows[-1]
    _check_norms(np.ascontiguousarray(out.T))
    return out


def oracle_trajectory(
    e: float, w: np.ndarray, driver: DriverSchedule, psi0: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """Amplitude rows of psi0 evolved under E|w><w| + driver at the grid
    times: one oracle's full (len(grid), N) block, from a dense ``eigh`` of
    each segment's matrix. The dense reference for ``evolve_trajectories``."""
    proj = e * np.outer(w, w.conj())
    return _propagate_schedule(
        [(dur, *np.linalg.eigh(op.mat + proj)) for dur, op in driver.segments], psi0, grid
    )


def evolve_trajectories(
    e: float,
    oracle_basis: Sequence[StateVector],
    driver: DriverSchedule,
    initial: StateVector,
    grid: np.ndarray,
) -> TrajectorySet:
    """Evolve the reference and every per-oracle trajectory over the grid,
    keeping per oracle only its squared distance to the reference.

    The reference follows the driver alone; trajectory w follows
    E|w><w| + driver. The oracles are those of the standard basis: the
    ``oracle_basis`` must be e_0 ... e_{N-1} exactly, in order, and any other
    raises ``ValueError``. The oracle scale E must be finite and positive; the
    grid must stay within the schedule horizon and increase in even steps
    from 0: within ``UNIFORM_ULPS`` ulps of its end T from
    ``np.linspace(0, T, M)``, whose points are j dt, dt = T / (M - 1), and T.

    Each segment's driver is eigendecomposed once, H_D = V diag(lam) V^dagger
    (one ``eigh`` per segment), and everything is worked in its eigenbasis,
    which V maps back without changing a distance. There the reference is
    exp(-i lam t) V^dagger psi. With u = V^dagger e_w, the conjugated row w of V,
    E|w><w| + H_D = V (diag(lam) + E u u^dagger) V^dagger, and ``rank_one_eigh``
    gives the eigensystem of the middle factor in O(N^2) as diag(phase) Q with
    Q real. Oracle w's states are then diag(phase) Q exp(-i mu t) c with
    c = Q^T (conj(phase) * V^dagger psi_w): per block of grid points, a phase
    table (``_factored_table``, from the grid's own points every PHASE_BLOCK
    and the step dt) and one real N x N by N x 2M product (O(N^2 M) for M
    grid points), checked for norm drift, rephased and reduced at once to the
    distances to the reference. Only the state at the segment end, built
    directly from its exact time, is kept, mapped back by V.
    """
    if not (math.isfinite(e) and e > 0.0):
        raise ValueError(f"oracle scale must be positive, got {e}")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.shape[0] < 1 or grid[0] != 0.0:
        raise ValueError("grid must be a 1-d array starting at 0")
    if grid[-1] > driver.horizon + 1e-9 * max(1.0, driver.horizon):  # the summed durations round
        raise ValueError(
            f"grid reaches {grid[-1]!r} beyond the schedule horizon {driver.horizon!r}"
        )
    # at a subnormal step even np.linspace's points need not increase
    steps = grid.shape[0] - 1
    if not (np.all(np.diff(grid) > 0.0) and np.all(  # also nan
            np.abs(grid - np.linspace(0.0, grid[-1], steps + 1)) <= UNIFORM_ULPS * np.spacing(grid[-1]))):
        raise ValueError(f"grid must increase in even steps: within {UNIFORM_ULPS} ulps of its end "
                         f"from np.linspace(0, end, {steps + 1})")
    dt = grid[-1] / steps if steps else 0.0
    n = initial.dim
    if driver.dim != n:
        raise ValueError(f"dimension mismatch: driver {driver.dim} vs state {n}")
    if len(oracle_basis) != n or any(w.dim != n or w.amps[i] != 1.0 or np.count_nonzero(w.amps) != 1
                                     for i, w in enumerate(oracle_basis)):
        raise ValueError(f"the oracle basis must be the standard basis e_0 ... e_{n - 1}, in order")

    distance = np.zeros((n, grid.shape[0]))
    psi_ref = initial.amps
    states = np.repeat(initial.amps[None, :], n, axis=0)  # row w: trajectory w at the segment entry
    batch = max(1, ORACLE_BATCH_ELEMENTS // (n * n))
    block = max(PHASE_BLOCK, TIME_BLOCK_ELEMENTS // n // PHASE_BLOCK * PHASE_BLOCK)
    durations = [dur for dur, _ in driver.segments]
    for (lo, hi, times), (_, op) in zip(_segment_times(durations, grid), driver.segments):
        evals, vecs = np.linalg.eigh(op.mat)
        points, end, m = times[:-1], times[-1:], hi - lo
        # From here on, the driver's eigenbasis: the reference's states (columns)
        # exp(-i lam t) V^dagger psi; per batch, the oracles u = V^dagger e_w, which
        # are the conjugated rows w of V, and the entry states V^dagger psi_w (rows).
        coeffs = vecs.conj().T @ psi_ref
        ref = _factored_table(evals, points, dt, coeffs)
        ref_end = _phase_table(evals, end, coeffs)
        _check_norms(ref)
        _check_norms(ref_end)
        psi_ref = vecs @ ref_end[:, 0]
        size = n * min(block, m)
        table, cols = np.empty(size, dtype=np.complex128), np.empty(size, dtype=np.complex128)
        for start in range(0, n, batch):
            ws = range(start, min(n, start + batch))
            mu, phase, q = rank_one_eigh(evals, vecs[start:ws.stop].conj(), e)
            # before the hand-off below overwrites these rows; no N x N copy of conj(V)
            entry = (states[start:ws.stop].conj() @ vecs).conj()
            # Oracle w's eigenvectors are diag(phase_w) Q_w with Q_w real: its states are
            # worked as Q_w exp(-i mu t) c_w, c_w = Q_w^T (conj(phase_w) * entry_w), then
            # rephased; a diagonal unitary keeps their norms. A batch at a time: the c_w,
            # and the states at the segment end, mapped back by V.
            c = _real_product(q.transpose(0, 2, 1), (phase.conj() * entry)[:, :, None])
            last = _real_product(q, _phase_table(mu.ravel(), end, c.ravel()).reshape(c.shape))
            _check_norms(last)
            states[start:ws.stop] = (phase * last[:, :, 0]) @ vecs.T
            for wi, mu_w, phase_w, q_w, c_w in zip(ws, mu, phase, q, c[:, :, 0]):
                for j in range(0, m, block):
                    count = min(block, m - j)
                    state = _real_product(q_w, _factored_table(mu_w, points[j:j + count], dt, c_w, out=table),
                                          out=cols)
                    _check_norms(state)
                    state *= phase_w[:, None]
                    state -= ref[:, j:j + count]  # now the differences from the reference
                    diff = state.view(np.float64)
                    distance[wi, lo + j:lo + j + count] = (
                        np.einsum("ij,ij->j", diff, diff).reshape(-1, 2).sum(axis=1))

    return TrajectorySet(grid=grid.copy(), distance=distance, oracle_scale=float(e))


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
        second = np.abs(np.diff(divergence, 2)) / np.diff(grid)[:-1] / np.diff(grid)[1:]
        curvature = float(np.max(second)) if second.size else 0.0
        deriv_ok = bool(np.all(deriv <= rate + curvature * dt + FD_ABS_SLACK))
    else:
        deriv = np.empty(0)
        curvature = 0.0
        deriv_ok = True

    runner_up = min(1, traj.dim - 1)  # a lone oracle is its own runner-up
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
