"""Numerical experiment behind the query lower bound.

For every candidate target w, the state evolved under E|w><w| + H_D(t) is
compared against the reference evolved under H_D(t) alone. The summed
squared distance D(t) grows at most 2*E*sqrt(N) per unit time regardless of
the driver, which is what caps how fast any drive can reveal w. This module
evolves all N + 1 trajectories over an evenly spaced time grid, keeping per
oracle only its squared distance to the reference, then computes D(t),
checks the integrated and derivative forms of the growth bound, and locates
the first time the trajectories become distinguishable at a given threshold.

Drivers are piecewise-constant schedules; each segment is worked exactly
(up to eigendecomposition error) in its own eigenbasis, so no ODE-stepping
error pollutes the bound checks. A segment's driver is eigendecomposed once
(O(N^3)); every oracle term is rank one, so each oracle's eigensystem is a
rank-one update of the driver's (O(N^2)). Each oracle's distance is then
integrated from the paper's identity dD_w/dt = -2E Im(<psi|w><w|psi_w>),
whose two amplitudes are sums of N exponentials: O(N) per integration node
instead of the O(N^2) of a state. States are built only at a segment's
first and last grid points, where the integral starts and is checked, and
at its end, where they are handed on. A smooth driver can be
approximated by refining segments; convergence of that approximation is the
caller's responsibility. The per-oracle trajectories are independent and
could run in parallel; they are reduced in a fixed order so results never
depend on scheduling.
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
    _cis,
    _phase_table,
    propagate,
    rank_one_eigh,
)

ORTHONORMAL_TOL = 1e-10

# Oracles whose eigensystems ``rank_one_eigh`` finds together: the batch's
# N x N arrays hold about this many entries (512 KiB of float64), as do its
# tables of amplitudes at the integration nodes.
ORACLE_BATCH_ELEMENTS = 1 << 16

# The Gauss-Legendre rules of the distance integral, (p nodes, largest omega h):
# each integrates exp(i omega t) over a step [0, h] to within 1e-13 h; the
# limits are where that error reaches 1e-13, rounded down to three digits. A
# step beyond the last is cut into equal parts, each within it.
GAUSS_RULES = ((4, 0.339), (6, 1.68), (8, 4.09), (12, 11.2), (16, 20.2))

# A grid point may lie up to UNIFORM_ULPS ulps of the grid's end from
# np.linspace's, whose steps the integration nodes take as exact.
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


def _squared_norms(cols: np.ndarray) -> np.ndarray:
    """Squared norms of the columns of ``cols``, one matrix or a stack of
    them, whose last axis must be contiguous: shape cols.shape minus its
    second-to-last axis."""
    flat = cols.view(np.float64)  # real and imaginary parts side by side
    return np.einsum("...ij,...ij->...j", flat, flat).reshape(*cols.shape[:-2], -1, 2).sum(axis=-1)


def _check_norms(cols: np.ndarray) -> None:
    """Each column of ``cols`` (states side by side, in one matrix or a stack
    of them) has unit norm to 1e-9, else ``QSearchError``: the propagation
    failed its own check."""
    drift = float(np.max(np.abs(np.sqrt(_squared_norms(cols)) - 1.0), initial=0.0))
    if not drift <= 1e-9:  # also catches nan
        raise QSearchError(f"trajectory drifts in norm by {drift!r}")


def _node_rule(omega_h: float) -> tuple[int, float]:
    """(p, parts) for a grid step h whose rate has no frequency above omega:
    the first rule of ``GAUSS_RULES`` that reaches omega * h = omega_h, on the
    whole step, else the last rule on each of ``parts`` equal parts of it
    (inf where omega_h is)."""
    for p, reach in GAUSS_RULES:
        if omega_h <= reach:
            return p, 1.0
    return p, float(np.ceil(omega_h / reach))


def _gauss_nodes(p: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in [0, 1] and weights, summing to 1, of the p-node
    Gauss-Legendre rule repeated on ``parts`` equal parts of [0, 1]."""
    # imported here: numpy.polynomial adds about 5 ms to every start of the CLI
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(p)
    nodes = (np.arange(parts)[:, None] + 0.5 * (x + 1.0)) / parts
    return nodes.ravel(), np.tile(0.5 * w / parts, parts)


def _offset_table(lam: np.ndarray, dt: float, block: int, nodes: np.ndarray) -> np.ndarray:
    """For a spectrum lam, or a stack of them, exp(-i lam (b + x_l) dt) at the
    nodes x_l of the steps b < block after a head, (..., N, block * len(nodes)),
    column b * len(nodes) + l: the product of a table over b and one over the
    nodes, block + len(nodes) cos/sin per row."""
    offsets = _phase_table(lam, np.arange(block) * dt)[..., None] * _phase_table(lam, nodes * dt)[..., None, :]
    return offsets.reshape(lam.shape + (-1,))


def _weighted_rates(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_l weights_l Im(conj(a_l) b_l) over each run of len(weights)
    entries along the last axis of a and b, which must be contiguous: from
    their float64 views, Im(conj(a) b) = Re a Im b - Im a Re b."""
    a, b = a.view(np.float64), b.view(np.float64)
    rates = a[..., ::2] * b[..., 1::2]
    rates -= a[..., 1::2] * b[..., ::2]
    return rates.reshape(rates.shape[:-1] + (-1, weights.shape[0])) @ weights


def _oracle_states(q: np.ndarray, phase: np.ndarray, mu: np.ndarray, c: np.ndarray,
                   times: np.ndarray) -> np.ndarray:
    """A batch of oracles' states diag(phase_b) Q_b exp(-i mu_b t) c_b in the
    driver's eigenbasis, (B, N, len(times)), from ``rank_one_eigh``'s stacks:
    Q_b is real, so the product is a real one on the float64 view of the
    phase table."""
    table = _phase_table(mu, times, c)
    return phase[..., None] * np.matmul(q, table.view(np.float64)).view(np.complex128)


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

    The reference psi follows the driver alone; trajectory psi_w follows
    E|w><w| + driver. The oracles are those of the standard basis: the
    ``oracle_basis`` must be e_0 ... e_{N-1} exactly, in order, and any other
    raises ``ValueError``. The oracle scale E must be finite and positive; the
    grid must stay within the schedule horizon and increase in even steps
    from 0: within ``UNIFORM_ULPS`` ulps of its end T from
    ``np.linspace(0, T, M)``, whose points are j dt, dt = T / (M - 1), and T.

    The distance D_w = ||psi_w - psi||^2 is integrated from the paper's
    identity: whatever the driver, its terms cancel in d/dt <psi|psi_w>, so
    dD_w/dt = -2E Im(conj(a_w) b_w) with a_w = <w|psi> and b_w = <w|psi_w>.
    Each segment's driver is eigendecomposed once, H_D = V diag(lam) V^dagger
    (one ``eigh`` per segment). With r = V^dagger psi at the segment's entry,
    a_w(t) = sum_i V_wi r_i exp(-i lam_i t). With u = V^dagger e_w, the
    conjugated row w of V, E|w><w| + H_D = V (diag(lam) + E u u^dagger)
    V^dagger, and ``rank_one_eigh`` gives the eigensystem of the middle factor
    in O(N^2) as diag(phase) Q with Q real; since V_wi phase_i = |u_i|,
    b_w(t) = sum_k g_k c_k exp(-i mu_k t) with g = Q^T |u| and
    c = Q^T (conj(phase) * V^dagger psi_w). Both are sums of N terms, so the
    rate costs O(N) per time where a state costs O(N^2).

    Each segment's states are built only where they are needed: at its first
    grid point, where they give D_w, at its last, where they check the
    integral, and at its end, from its exact time, whence they are handed to
    the next segment, mapped back by V; each is checked for norm drift. The
    ``count`` whole grid steps between those two points are integrated by a
    Gauss-Legendre rule chosen from omega dt (``GAUSS_RULES``), omega =
    (lam_max - lam_min) + E bounding the rate's frequencies |mu_k - lam_i|.
    On the even grid the nodes are t_{aB} + (b + x_l) dt for the grid's own
    points t_{aB}, so each sum is a table at those heads times a fixed table
    of offsets: one small complex product per batch of oracles, O(N M p) per
    oracle for M points and p nodes per step. From the states' D_w at the
    first point, the integral must reach theirs at the last within
    1e-9 (1 + 2E count dt), else ``QSearchError``. Where a step would take
    more than N / 2 nodes, states at the grid points cost less (measured),
    and every grid point's distance is read off them instead. A segment
    without grid points, such as one past a grid that ends before the
    horizon, only hands its states on.
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
    n = initial.dim
    if driver.dim != n:
        raise ValueError(f"dimension mismatch: driver {driver.dim} vs state {n}")
    if len(oracle_basis) != n or any(w.dim != n or w.amps[i] != 1.0 or np.count_nonzero(w.amps) != 1
                                     for i, w in enumerate(oracle_basis)):
        raise ValueError(f"the oracle basis must be the standard basis e_0 ... e_{n - 1}, in order")

    distance = np.zeros((n, grid.shape[0]))
    if not steps:
        return TrajectorySet(grid=grid.copy(), distance=distance, oracle_scale=float(e))
    dt = grid[-1] / steps
    psi_ref = initial.amps
    states = np.repeat(initial.amps[None, :], n, axis=0)  # row w: trajectory w at the segment entry
    batch = min(n, max(1, ORACLE_BATCH_ELEMENTS // (n * n)))
    durations = [dur for dur, _ in driver.segments]
    for (lo, hi, times), (_, op) in zip(_segment_times(durations, grid), driver.segments):
        evals, vecs = np.linalg.eigh(op.mat)
        # From here on, the driver's eigenbasis. The reference at the segment's end, handed on.
        coeffs = vecs.conj().T @ psi_ref
        ref_end = _phase_table(evals, times[-1:], coeffs)
        _check_norms(ref_end)
        psi_ref = vecs @ ref_end[:, 0]
        # The rate's frequencies mu_k - lam_i lie within the spread of lam plus E. Past
        # N / 2 nodes a step, states at the grid points cost less, and the segment's
        # distances are read off them instead. Measured with OpenBLAS at 2 threads on
        # 201 points, the integral took 0.73, 0.77, 1.01, 1.00 and 1.02 times the
        # states' time at N / 2 nodes for N = 16, 32, 64, 128 and 256, and 1.25, 1.31,
        # 1.02 and 1.90 times at N nodes for N = 16, 32, 64 and 128.
        p, parts = _node_rule((evals[-1] - evals[0] + e) * dt)
        # The segment's grid points whose states are built: its first and last, between
        # which its `count` whole steps are integrated, or else all of them.
        count = max(hi - lo - 1, 0)
        integrated = 2 * p * parts <= n and count > 0
        exact = np.array([0, count]) if integrated else np.arange(hi - lo)
        if integrated:
            nodes, weights = _gauss_nodes(p, int(parts))
            weights *= -2.0 * e * dt  # the rate's factor and the step
            # The whole steps from heads every `block` steps, about sqrt(count) keeping
            # the heads' and the offsets' cos/sin fewest, in runs of `run` steps: a
            # batch's offset, head and rate tables stay within ORACLE_BATCH_ELEMENTS
            # entries where their least sizes allow (one step a block, one head a run).
            width = nodes.shape[0]
            block = max(1, min(round(math.sqrt(count)), ORACLE_BATCH_ELEMENTS // (batch * n * width)))
            run = block * max(1, ORACLE_BATCH_ELEMENTS // (batch * max(n, block * width)))
            heads = times[:count:block]
            lam_heads = _cis(heads[:, None], evals)
            lam_offsets = _offset_table(evals, dt, block, nodes)
        for start in range(0, n, batch):
            ws = slice(start, min(n, start + batch))
            u = vecs[ws].conj()
            mu, phase, q = rank_one_eigh(evals, u, e)
            # c = Q^T (conj(phase) * V^dagger psi_w) and g = Q^T |u| in one real product;
            # the entry states' rows read before the hand-off below overwrites them
            entry = phase.conj() * (states[ws].conj() @ vecs).conj()
            rhs = np.empty(u.shape + (3,))
            rhs[:, :, :2] = entry.view(np.float64).reshape(u.shape + (2,))
            np.abs(u, out=rhs[:, :, 2])
            cg = np.matmul(q.transpose(0, 2, 1), rhs)
            c = cg[:, :, 0] + 1j * cg[:, :, 1]
            # the hand-off: the states at the segment's end, mapped back by V
            end_states = _oracle_states(q, phase, mu, c, times[-1:])
            _check_norms(end_states)
            states[ws] = end_states[:, :, 0] @ vecs.T
            # the distances at the exact points, about ORACLE_BATCH_ELEMENTS state entries at a time
            row = distance[ws, lo:hi]
            chunk = max(1, ORACLE_BATCH_ELEMENTS // (len(u) * n))
            for j in range(0, exact.shape[0], chunk):
                at = exact[j:j + chunk]
                exact_states = _oracle_states(q, phase, mu, c, times[at])
                _check_norms(exact_states)
                row[:, at] = _squared_norms(exact_states - _phase_table(evals, times[at], coeffs))
            if not integrated:
                continue
            # the sums a_w = <w|psi> and b_w = <w|psi_w>: coefficients V_wi r_i and g_k c_k;
            # the whole steps' integrals of dD_w/dt = -2E Im(conj(a_w) b_w), summed in place
            # from the first grid point on, must reach the states' distance at the last
            alpha, beta = vecs[ws] * coeffs, cg[:, :, 2] * c
            last = row[:, count].copy()
            mu_offsets = _offset_table(mu, dt, block, nodes)
            for j in range(0, count, run):
                h = slice(j // block, (j + run) // block)
                rates = _weighted_rates(np.matmul(lam_heads[h] * alpha[:, None, :], lam_offsets),
                                        np.matmul(_cis(mu[:, None, :], heads[h, None]) * beta[:, None, :],
                                                  mu_offsets), weights)
                row[:, j + 1:j + run + 1] = rates.reshape(len(u), -1)[:, :count - j]
            np.cumsum(row, axis=1, out=row)
            drift = float(np.max(np.abs(row[:, count] - last)))
            if not drift <= 1e-9 * (1.0 + 2.0 * e * count * dt):  # also catches nan
                raise QSearchError(f"the integrated distance misses the states' by {drift!r}")

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
