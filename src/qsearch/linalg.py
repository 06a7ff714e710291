"""Dense complex linear algebra substrate: normalized state vectors,
Hermitian operators, rank-one Hamiltonians, eigendecomposition, the
rank-one update of an eigensystem and the package's one eigenbasis
propagator.

The value types check their input and store a write-locked copy of it
unchanged: nothing is rescaled or symmetrized on the way in. All values are
therefore immutable after construction, so they are safe to share between
threads; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NormalizationError

# StateVector rejects a norm further than this from 1; it never rescales.
NORM_TOL = 1e-6

HERMITICITY_TOL = 1e-10

# rank_one_eigh treats a rank-one component or an eigenvalue gap at or below
# this many ulps of the problem's scale as zero (LAPACK dlaed2 uses 8).
DEFLATION_ULPS = 8.0
# Secular-equation steps per root; quadratic convergence needs a handful, and
# bisection (the safeguard) halves a bracket at most this many times.
SECULAR_MAX_STEPS = 100


@dataclass(frozen=True, eq=False, repr=False)
class StateVector:
    """Normalized complex amplitude vector.

    The input is copied and stored unchanged. It must be 1-d and non-empty
    (else ``DimensionError``) with a norm within ``NORM_TOL`` of 1 (else
    ``NormalizationError``); it is never rescaled, so a state built by an
    exact operation (a sign flip, ``uniform``) keeps every bit, and a caller
    with an unnormalized vector divides by its norm itself.
    """

    amps: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amps, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionError(f"state vector must be 1-d and non-empty, got shape {arr.shape}")
        nrm = np.linalg.norm(arr)
        if not abs(nrm - 1.0) <= NORM_TOL:  # also rejects nan
            raise NormalizationError(f"norm {nrm!r} is not within {NORM_TOL} of 1")
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    @classmethod
    def basis_state(cls, n: int, i: int) -> "StateVector":
        """Standard basis vector e_i in dimension n."""
        if not 0 <= i < n:
            raise DimensionError(f"basis index {i} out of range for dimension {n}")
        arr = np.zeros(n, dtype=np.complex128)
        arr[i] = 1.0
        return cls(arr)

    @classmethod
    def uniform(cls, n: int) -> "StateVector":
        """Uniform superposition over the n standard basis states."""
        return cls(np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with conjugation on the first argument."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


@dataclass(frozen=True, eq=False, repr=False)
class HermitianOperator:
    """N x N complex matrix, Hermitian within ``HERMITICITY_TOL``.

    The input is copied and stored unchanged. It must be square and
    non-empty (else ``DimensionError``) and deviate from its conjugate
    transpose by at most ``HERMITICITY_TOL`` relative to its largest entry
    (else ``ValueError``, which nan and inf entries also raise). It is not
    symmetrized: everything in this package that computes with ``mat``
    passes it to ``np.linalg.eigh``, which reads only the lower triangle and
    the real part of the diagonal.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionError(f"operator must be square, got shape {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if not float(np.max(np.abs(m - m.conj().T))) <= HERMITICITY_TOL * scale:  # also nan, inf
            raise ValueError("matrix is not Hermitian within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @classmethod
    def zero(cls, n: int) -> "HermitianOperator":
        return cls(np.zeros((n, n), dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


@dataclass(frozen=True)
class RankOneHamiltonian:
    """scale * |v><v| for a normalized direction |v>, with scale >= 0."""

    scale: float
    direction: StateVector

    def __post_init__(self):
        if not math.isfinite(self.scale) or self.scale < 0.0:
            raise ValueError(f"scale must be finite and >= 0, got {self.scale}")

    @property
    def dim(self) -> int:
        return self.direction.dim

    def matrix(self) -> HermitianOperator:
        v = self.direction.amps
        return HermitianOperator(self.scale * np.outer(v, v.conj()))


def eigendecompose(h: HermitianOperator) -> tuple[np.ndarray, list[StateVector]]:
    """Eigenvalues (ascending) and an orthonormal eigenvector sequence.

    Backed by LAPACK via ``numpy.linalg.eigh``; within a degenerate cluster
    the returned eigenvectors are an arbitrary orthonormal basis, so
    downstream checks must be spectrum- or projector-level.
    """
    evals, vecs = np.linalg.eigh(h.mat)
    return evals, [StateVector(vecs[:, i]) for i in range(h.dim)]


def rank_one_eigh(evals: np.ndarray, u: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystems of diag(evals) + rho u_b u_b^dagger for each row u_b of a
    stack ``u`` of shape (B, N), in the form ``np.linalg.eigh`` gives them:
    ascending eigenvalues (B, N) and the unitaries (B, N, N) whose columns
    are eigenvectors.

    ``evals`` is real and ascending and ``rho`` >= 0; a 1-d ``u`` or a
    negative ``rho`` raises ``ValueError``. The stack shares one deflation
    tolerance, set by its largest rho ||u_b||^2. O(N^2) work per row
    instead of the O(N^3) of a dense ``eigh`` (Golub 1973; Bunch, Nielsen &
    Sorensen 1978):

    - the phases of u are pulled out, leaving the real problem
      diag(evals) + r z z^T with z = |u| / ||u|| >= 0 and r = rho ||u||^2,
      which is solved scaled by a power of two to unit size;
    - deflation: within each run of eigenvalues no further apart than
      ``DEFLATION_ULPS`` ulps of the scale max(|evals|, r), a Householder
      reflection moves z onto the run's first index, and any component with
      r z_i at or below that tolerance keeps its eigenpair (evals_i, e_i);
    - the other eigenvalues are the roots of the secular equation
      1 + r sum_i z_i^2 / (evals_i - mu) = 0 (``_secular_roots``), with
      eigenvectors (evals - mu_k)^-1 z-hat, normalized, where z-hat is the
      Loewner vector for which the computed roots are exact eigenvalues, so
      the eigenvectors are orthogonal to working precision (Gu & Eisenstat
      1994).
    """
    d = np.asarray(evals, dtype=np.float64)
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or rho < 0.0:
        raise ValueError(f"need a (B, N) stack u and rho >= 0, got shape {u.shape} and rho {rho}")
    batch, n = u.shape
    z = np.abs(u)
    phase = np.ones_like(u)
    np.divide(u, z, out=phase, where=z > 0.0)
    unorm = np.linalg.norm(z, axis=1)
    np.divide(z, unorm[:, None], out=z, where=unorm[:, None] > 0.0)
    r = rho * unorm * unorm
    scale = max(float(np.max(np.abs(d), initial=0.0)), float(np.max(r)))
    # Work at unit scale: a power of two scales exactly, and no later step under- or overflows.
    shift = math.frexp(scale)[1]
    d, r = np.ldexp(d, -shift), np.ldexp(r, -shift)
    tol = DEFLATION_ULPS * np.finfo(np.float64).eps * math.ldexp(scale, -shift)

    starts = np.flatnonzero(np.diff(d, prepend=-np.inf) > tol)
    stops = np.append(starts[1:], n)
    reflections = []
    for lo, hi in zip(starts[stops - starts > 1], stops[stops - starts > 1]):
        v = z[:, lo:hi].copy()
        rest = np.sum(v[:, 1:] ** 2, axis=1)
        head = np.sqrt(v[:, 0] ** 2 + rest)
        # v = z - |z| e_0 without cancellation; no reflection (beta 0) where z = z_0 e_0
        np.divide(-rest, v[:, 0] + head, out=v[:, 0], where=rest > 0.0)
        vv = np.sum(v * v, axis=1)
        beta = np.zeros(batch)
        np.divide(2.0, vv, out=beta, where=rest > 0.0)
        reflections.append((lo, hi, v, beta))
        z[:, lo] = head
        z[:, lo + 1:hi] = 0.0

    keep = r[:, None] * z > tol
    if keep.all():  # no deflation, no reflection, and the roots come sorted
        mu, q = _secular_roots(np.broadcast_to(d, (batch, n)), r[:, None] * z * z)
        return np.ldexp(mu, shift), phase[:, :, None] * q
    count = np.sum(keep, axis=1)
    vals = np.empty((batch, n))
    q = np.zeros((batch, n, n))
    # rows that keep equally many components solve together
    for k in np.flatnonzero(np.bincount(count)):
        rows = np.flatnonzero(count == k)
        kept = keep[rows]
        kept_idx = np.nonzero(kept)[1].reshape(rows.size, k)
        dropped_idx = np.nonzero(~kept)[1].reshape(rows.size, n - k)
        w2 = np.take_along_axis(r[rows, None] * z[rows] ** 2, kept_idx, axis=1)
        mu, vecs = _secular_roots(d[kept_idx], w2)
        vals[rows] = np.concatenate((d[dropped_idx], mu), axis=1)
        q[rows[:, None], dropped_idx, np.arange(n - k)] = 1.0
        q[rows[:, None, None], kept_idx[:, :, None], np.arange(n - k, n)] = vecs
    order = np.argsort(vals, axis=1, kind="stable")
    q = np.take_along_axis(q, order[:, None, :], axis=2)
    for lo, hi, v, beta in reflections:
        q[:, lo:hi] -= (beta[:, None] * v)[:, :, None] * np.einsum("bm,bmn->bn", v, q[:, lo:hi])[:, None, :]
    return np.ldexp(np.take_along_axis(vals, order, axis=1), shift), phase[:, :, None] * q


def _secular_roots(d: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit eigenvectors (as columns) of diag(d) + v v^T with
    v = sqrt(w2), for each row of strictly ascending d and positive w2.

    Root k solves f(mu) = 1 + sum_i w2_i / (d_i - mu) = 0 in (d_k, d_k+1)
    (the last in (d_K, d_K + sum w2)); all roots of all rows step together.
    Each is found as an offset tau from its nearer pole, so d_i - mu_k keeps
    full relative accuracy (LAPACK ``dlaed4``). Each step solves a model that
    keeps the two poles beside the root and matches f and f' at the iterate
    (the fixed-weight rational step of Bunch, Nielsen & Sorensen, quadratically
    convergent); a step that leaves the bracket known from the signs of f
    bisects instead.
    """
    rows, k = d.shape
    idx = np.arange(k)
    nxt = np.minimum(idx + 1, k - 1)
    last = idx == k - 1
    ones = np.ones(k)
    eps = np.finfo(np.float64).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        left = d[:, None, :] - d[:, :, None]  # left[., k, i] = d_i - d_k
        # f at the middle of each interval, and at the upper end for the last root
        reach = np.concatenate((np.diff(d, axis=1) / 2.0, np.sum(w2, axis=1, keepdims=True)), axis=1)
        gaps = left - reach[:, :, None]
        f_at = 1.0 + np.divide(w2[:, None, :], gaps, out=gaps) @ ones
        right = (f_at < 0.0) & ~last  # root nearer d_k+1: measure tau from there
        d_origin = np.take_along_axis(d, idx + right, axis=1)
        base = d[:, None, :] - d_origin[:, :, None]
        lo = np.where(right, -reach, 0.0).ravel()
        # the last root may sit at reach itself, so its bracket reaches past it
        hi = np.where(right, 0.0, np.where(last, 2.0 * reach, reach)).ravel()
        wq = np.where(last, 0.0, w2[:, nxt])
        # start from the two beside poles exact and the rest of f frozen at reach
        rest = f_at + w2 / reach - wq / reach
        tau = _model_root(rest.ravel(), base[:, idx, idx].ravel(), base[:, idx, nxt].ravel(),
                          w2.ravel(), wq.ravel(), lo, hi)

        # One row per root from here on; converged roots leave the tables.
        root = np.tile(idx, rows)
        active = np.arange(rows * k)
        table = base.reshape(rows * k, k)
        weights = np.repeat(w2, k, axis=0)
        left_of = np.tile((idx[None, :] <= idx[:, None]).astype(np.float64), (rows, 1))
        del left, gaps
        for _ in range(SECULAR_MAX_STEPS):
            t, j, at = tau[active], root[active], np.arange(active.size)
            delta = table - t[:, None]
            dp, dq = delta[at, j], delta[at, nxt[j]]
            terms = weights / delta
            slopes = np.divide(terms, delta, out=delta)
            psi, dpsi = np.einsum("ri,ri->r", terms, left_of), np.einsum("ri,ri->r", slopes, left_of)
            phi, dphi = terms @ ones - psi, slopes @ ones - dpsi
            del terms, slopes
            f = 1.0 + psi + phi
            tol = eps * (8.0 * (1.0 + phi - psi) + np.abs(t) * (dpsi + dphi))
            t_lo, t_hi = lo[active], hi[active]
            done = (np.abs(f) <= tol) | (t_hi - t_lo <= 2.0 * eps * np.maximum(np.abs(t_lo), np.abs(t_hi)))
            if done.all():
                break
            t_lo = lo[active] = np.where(f < 0.0, t, t_lo)
            t_hi = hi[active] = np.where(f > 0.0, t, t_hi)
            ends = last[j]
            dq = np.where(ends, 1.0, dq)
            wp, wq = dpsi * dp * dp, np.where(ends, 0.0, dphi * dq * dq)
            c = f - dpsi * dp - wq / dq
            step = _model_root(c, table[at, j], table[at, nxt[j]], wp, wq, t_lo, t_hi)
            tau[active] = np.where(done, t, step)
            if 4 * np.count_nonzero(done) >= done.size:
                active, table, weights, left_of = (x[~done] for x in (active, table, weights, left_of))
        tau = tau.reshape(rows, k)
        delta = base - tau[:, :, None]
        # Loewner: z-hat_i^2 = prod_k (mu_k - d_i) / prod_{j != i} (d_j - d_i)
        left = d[:, None, :] - d[:, :, None]
        left[:, idx, idx] = -1.0
        zhat = np.sqrt(np.prod(np.divide(delta, left, out=left), axis=1))
        vecs = np.divide(zhat[:, None, :], delta, out=delta)
    vecs /= np.sqrt(np.einsum("rki,rki->rk", vecs, vecs))[:, :, None]
    return d_origin + tau, vecs.transpose(0, 2, 1)


def _model_root(c, dp, dq, wp, wq, lo, hi):
    """The root in (lo, hi) of c + wp / (dp - x) + wq / (dq - x), or the middle
    of (lo, hi) where that root is not found in floating point."""
    a = c * (dp + dq) + wp + wq
    b = c * dp * dq + wp * dq + wq * dp
    s = a + np.copysign(np.sqrt(np.maximum(a * a - 4.0 * b * c, 0.0)), a)
    big, small = s / (2.0 * c), 2.0 * b / s  # the two roots of c x^2 - a x + b
    return np.where((small > lo) & (small < hi), small,
                    np.where((big > lo) & (big < hi), big, 0.5 * (lo + hi)))


def propagate(
    evals: np.ndarray, vecs: np.ndarray, psi: np.ndarray, times, out: np.ndarray | None = None
) -> np.ndarray:
    """Rows exp(-i H t) psi, one per entry of ``times``, for H = vecs diag(evals) vecs^dagger.

    ``evals`` and ``vecs`` are an orthonormal eigensystem, as
    ``np.linalg.eigh(mat)`` or ``rank_one_eigh`` give it, and ``times`` any
    real 1-d sequence (negative t evolves backward). Every row comes from the
    same eigensystem, so the result is exact up to its error; rows keep unit
    norm to ~1e-15 and are not renormalized. Cost: the N x len(times) phase
    table and one N x N by N x len(times) product. The result is the
    transpose of that C-ordered product, written into ``out`` (N x
    len(times)) when one is given, so that a caller propagating many states
    can keep one buffer.
    """
    coeffs = vecs.conj().T @ psi
    # exp(-i theta) for theta = evals x times, built in one complex buffer: theta goes
    # in the imaginary part, then cos and sin; the same bits as np.exp(-1j * theta), faster
    phases = np.empty((len(evals), len(times)), dtype=np.complex128)
    np.multiply.outer(evals, times, out=phases.imag)
    np.cos(phases.imag, out=phases.real)
    np.sin(phases.imag, out=phases.imag)
    np.negative(phases.imag, out=phases.imag)
    phases *= coeffs[:, None]
    return np.matmul(vecs, phases, out=out).T


def expm_apply(h: HermitianOperator, t: float, v: StateVector) -> StateVector:
    """exp(-i h t) |v>: ``propagate`` at the single time t, with checks."""
    if h.dim != v.dim:
        raise DimensionError(f"dimension mismatch: {h.dim} vs {v.dim}")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return StateVector(propagate(*np.linalg.eigh(h.mat), v.amps, [t])[0])
