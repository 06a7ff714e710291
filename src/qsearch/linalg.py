"""Dense complex linear algebra substrate: normalized state vectors,
Hermitian operators, rank-one Hamiltonians, eigendecomposition, the
rank-one update of an eigensystem, the phase table exp(-i lam t) c and the
eigenbasis propagator built on it.

The value types check their input and store a write-locked copy of it
unchanged: nothing is rescaled or symmetrized on the way in. All values are
therefore immutable after construction, so they are safe to share between
threads; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# StateVector rejects a norm further than this from 1; it never rescales.
NORM_TOL = 1e-6

HERMITICITY_TOL = 1e-10

# rank_one_eigh treats a rank-one component or an eigenvalue gap at or below
# this many ulps of the problem's scale as zero (LAPACK dlaed2 uses 8).
DEFLATION_ULPS = 8.0
# Evaluations of the secular equation per root. Most roots stop after four and
# roots beside a cluster of poles after up to ten; bisection, the safeguard,
# halves a bracket at most this many times.
SECULAR_MAX_STEPS = 100


@dataclass(frozen=True, eq=False, repr=False)
class StateVector:
    """Normalized complex amplitude vector.

    The input is copied and stored unchanged. It must be 1-d and non-empty,
    with a norm within ``NORM_TOL`` of 1 (else ``ValueError``); it is never
    rescaled, so a state built by an exact operation (a sign flip,
    ``uniform``) keeps every bit, and a caller with an unnormalized vector
    divides by its norm itself.
    """

    amps: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amps, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"state vector must be 1-d and non-empty, got shape {arr.shape}")
        nrm = np.linalg.norm(arr)
        if not abs(nrm - 1.0) <= NORM_TOL:  # also rejects nan
            raise ValueError(f"norm {nrm!r} is not within {NORM_TOL} of 1")
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    @classmethod
    def basis_state(cls, n: int, i: int) -> "StateVector":
        """Standard basis vector e_i in dimension n."""
        if not 0 <= i < n:
            raise ValueError(f"basis index {i} out of range for dimension {n}")
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
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


@dataclass(frozen=True, eq=False, repr=False)
class HermitianOperator:
    """N x N complex matrix, Hermitian within ``HERMITICITY_TOL``.

    The input is copied and stored unchanged. It must be square and
    non-empty and deviate from its conjugate transpose by at most
    ``HERMITICITY_TOL`` relative to its largest entry (else ``ValueError``,
    which nan and inf entries also raise). It is not
    symmetrized: everything in this package that computes with ``mat``
    passes it to ``np.linalg.eigh``, which reads only the lower triangle and
    the real part of the diagonal.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"operator must be square, got shape {m.shape}")
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


def rank_one_eigh(
    evals: np.ndarray, u: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigensystems of diag(evals) + rho u_b u_b^dagger for each row u_b of a
    stack ``u`` of shape (B, N), as ``(mu, phase, q)``: eigenvalues (B, N),
    the unit phases (B, N) of u and real orthogonal matrices (B, N, N), each
    ``q[b]`` C-contiguous, such that diag(phase_b) q_b is a unitary whose
    columns are eigenvectors, column k for eigenvalue mu_b[k]. A caller can
    so work with the real q_b in the basis rephased by phase_b. The
    eigenpairs come in the order the solver makes them, not sorted: the
    deflated ones first, then the roots of the secular equation, ascending.

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
    if keep.all():  # no deflation and no reflection
        mu, q = _secular_roots(d[None, :], r[:, None] * z * z)
        return np.ldexp(mu, shift), phase, q
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
    for lo, hi, v, beta in reflections:
        q[:, lo:hi] -= (beta[:, None] * v)[:, :, None] * np.einsum("bm,bmn->bn", v, q[:, lo:hi])[:, None, :]
    return np.ldexp(vals, shift), phase, q


def _secular_roots(d: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and unit eigenvectors of diag(d) + v v^T with
    v = sqrt(w2), for each row of strictly ascending d and positive w2: the
    eigenvectors as the columns of C-ordered (rows, k, k) matrices. A ``d``
    of one row (1, k) serves every row of ``w2``.

    Root j solves f(mu) = 1 + sum_i w2_i / (d_i - mu) = 0 in (d_j, d_j+1)
    (the last in (d_k, d_k + sum w2]); all roots of all rows step together.
    Each is found as an offset tau from one of the two poles p < q beside
    it (for the last root, the last two), its origin, so d_i - mu_j keeps
    full relative accuracy (LAPACK ``dlaed4``). The first evaluation of f,
    at the middle of each interval (for the last root, half its length),
    makes the pole on the root's side the origin. Each evaluation then takes
    one step, to the root of a model of f by the two poles alone that
    matches f and f' there: both keep their own weights, and the one that is
    not the origin also takes the f' of all the other poles (fixed weight).
    Where that has not cut |f| tenfold, by turns the poles beyond the origin
    go with the origin instead (the middle way), as ``dlaed4`` switches
    (R.-C. Li, LAPACK Working Note 89). A step that leaves the bracket known
    from the signs of f bisects.

    A root stops where |f| is within its rounding error, and also, with no
    further evaluation, where its step s after a step s' (not the first, from
    the middle) predicts by quadratic convergence an error s^3 / s'^2 within
    an ulp of tau. While most roots step, an evaluation takes the whole
    (rows, k, k) table, whose weights need no gather (four evaluations at
    ``bound``'s batch sizes), and then only the rows of the roots left. One
    (rows, k, k) buffer holds each evaluation's table and, at the end, the
    eigenvectors.
    """
    rows, k = w2.shape
    if k < 2:  # mu = d + w2, with the eigenvector 1
        return np.broadcast_to(d, w2.shape) + w2, np.ones((rows, k, k))
    count = rows * k
    eps = np.finfo(np.float64).eps
    vecs = np.empty((rows, k, k))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gaps = d[:, None, :] - d[:, :, None]  # gaps[., j, i] = d_i - d_j
        d = np.broadcast_to(d, w2.shape)
        idx = np.arange(k)
        p = np.minimum(idx, k - 2)  # the poles p and p + 1, the last two for the last root
        reach = np.concatenate((np.diff(d, axis=1), np.sum(w2, axis=1, keepdims=True)), axis=1) / 2.0
        p_root = np.tile(p, rows)
        sums = _secular_sums(np.subtract(gaps, reach[:, :, None], out=vecs), w2[:, None, :], p_root)
        # the origin is p + 1 where the root lies right of the middle, and for the last root
        right = (sums[0] < -1.0).reshape(rows, k)
        right[:, -1] = True
        d_origin = np.take_along_axis(d, p + right, axis=1)
        other = (np.take_along_axis(d, p + ~right, axis=1) - d_origin).ravel()  # the other pole
        weight = np.take_along_axis(w2, p + right, axis=1).ravel()
        weight_other = np.take_along_axis(w2, p + ~right, axis=1).ravel()
        # row rows_at[m] of `from_origin` is d_i - d_origin for root m
        rows_at = (p + right + k * np.arange(gaps.shape[0])[:, None]).ravel()
        from_origin = gaps.reshape(-1, k)
        # start at the middle, in the bracket (d_p, d_p+1), or (d_k, d_k + 2 sum w2) for the last root
        tau = np.where(right, -reach, reach)
        lo, hi = np.where(right, -2.0 * reach, 0.0), np.where(right, 0.0, 2.0 * reach)
        tau[:, -1], lo[:, -1], hi[:, -1] = reach[:, -1], 0.0, 4.0 * reach[:, -1]
        tau, lo, hi, right = tau.ravel(), lo.ravel(), hi.ravel(), right.ravel()

        done, steps = np.zeros(count, dtype=bool), np.zeros(count)
        middle, f_before = np.zeros(count, dtype=bool), np.zeros(count)
        table = vecs.reshape(count, k)
        at = slice(None)  # every root while most step, then the index of those left
        for step in range(SECULAR_MAX_STEPS):
            total, size, far = sums  # and the rows of `table` hold 1 / (d_i - mu)^2, 0 at p and p + 1
            t, f = tau[at], 1.0 + total
            x, w_o, w_x = other[at], weight[at], weight_other[at]
            dx = x - t
            slope = far + w_o / (t * t) + w_x / (dx * dx)
            stop = done[at] | (np.abs(f) <= eps * (8.0 + 8.0 * size + np.abs(t) * slope))
            t_lo = lo[at] = np.where(f < 0.0, t, lo[at])
            t_hi = hi[at] = np.where(f > 0.0, t, hi[at])
            # The two poles keep their weights and the one that is not the origin takes `far`
            # too. Where that has not cut |f| tenfold, by turns the poles beyond the origin
            # go with the origin instead.
            f_last = f_before[at]
            mid = middle[at] = middle[at] ^ ((f * f_last > 0.0) & (np.abs(f) > 0.1 * np.abs(f_last)))
            f_before[at] = f
            if mid.any():
                m = np.flatnonzero(mid)
                roots = np.arange(count)[at][m]
                # the f' of the poles below p and above p + 1, for the roots that need them
                ends = np.repeat(np.arange(0, m.size * k, k), 2)
                ends[1::2] += p_root[roots] + 1
                sides = np.add.reduceat((table[m] * w2[roots // k]).reshape(-1), ends).reshape(-1, 2)
                near = np.zeros(t.size)
                near[m] = np.where(right[roots], sides[:, 1], sides[:, 0])
                w_o, far = w_o + near * (t * t), far - near
            w_x = w_x + far * (dx * dx)
            new = np.where(stop, t, _model_root(f + w_o / t - w_x / dx, x, w_o, w_x, t_lo, t_hi))
            s = np.abs(new - t)
            done[at] = stop | (s * s * s <= eps * np.abs(new) * steps[at] ** 2)
            tau[at], steps[at] = new, s if step else 0.0  # the first, from the middle, is no error estimate
            left = np.flatnonzero(~done)
            if not left.size:
                break
            # the whole table while most roots step, so that the weights need no gather
            at = slice(None) if 2 * left.size > count else left
            # mode "clip" lets take write straight into `out` ("raise" buffers it); rows_at is in range
            delta = np.take(from_origin, rows_at[at], axis=0, mode="clip", out=table[:tau[at].size])
            delta -= tau[at, None]
            if at is left:
                sums = _secular_sums(delta, w2[left // k], p_root[left])
            else:
                sums = _secular_sums(vecs, w2[:, None, :], p_root)

        # vecs[., i, j] = 1 / (d_i - mu_j)
        np.subtract(d[:, :, None], d_origin[:, None, :], out=vecs)
        vecs -= tau.reshape(rows, 1, k)
        np.divide(1.0, vecs, out=vecs)
        # Loewner: z-hat_i^2 = prod_j (mu_j - d_i) / prod_{l != i} (d_l - d_i), the inverse of
        # the product of the factors (d_j - d_i) / (d_i - mu_j) (all negative), and
        # 1 / (d_i - mu_i) for j = i
        gaps[:, idx, idx] = 1.0
        vecs *= gaps
        zhat = 1.0 / np.sqrt(np.abs(np.prod(vecs, axis=2)))
        vecs /= gaps
        # vecs[., i, j] = zhat_i / (d_i - mu_j), in C order, so each q[b] is handed over without a copy
        vecs *= zhat[:, :, None]
    vecs /= np.sqrt(np.einsum("rij,rij->rj", vecs, vecs))[:, None, :]
    return d_origin + tau.reshape(rows, k), vecs


def _secular_sums(delta, w, p):
    """For each root's row of ``delta``, d_i - mu, the sums of w_i / delta_i and
    of their magnitudes, and ``far``, the sum of w_i / delta_i^2 over the poles
    i other than p and p + 1, flat. ``delta`` is overwritten with the terms
    1 / delta_i^2 of ``far``; those two poles are left out so that ``far``
    keeps its precision where they dominate."""
    inv = np.divide(1.0, delta, out=delta)
    total = np.einsum("...i,...i->...", inv, w).reshape(-1)
    size = np.einsum("...i,...i->...", np.abs(inv, out=inv), w).reshape(-1)
    squares = np.multiply(inv, inv, out=inv).reshape(-1, inv.shape[-1])
    at = np.arange(p.size)
    squares[at, p] = 0.0
    squares[at, p + 1] = 0.0
    return total, size, np.einsum("...i,...i->...", inv, w).reshape(-1)


def _model_root(c, x, w_o, w_x, lo, hi):
    """The root in (lo, hi) of c - w_o / t + w_x / (x - t), or the middle of
    (lo, hi) where that root is not found in floating point."""
    a = c * x + w_o + w_x
    b = w_o * x
    s = a + np.copysign(np.sqrt(np.maximum(a * a - 4.0 * b * c, 0.0)), a)
    big, small = s / (2.0 * c), 2.0 * b / s  # the two roots of c t^2 - a t + b
    return np.where((small > lo) & (small < hi), small,
                    np.where((big > lo) & (big < hi), big, 0.5 * (lo + hi)))


def propagate(evals: np.ndarray, vecs: np.ndarray, psi: np.ndarray, times) -> np.ndarray:
    """Rows exp(-i H t) psi, one per entry of ``times``, for H = vecs diag(evals) vecs^dagger.

    ``evals`` and ``vecs`` are an orthonormal eigensystem, as
    ``np.linalg.eigh(mat)`` gives it, and ``times`` any real 1-d sequence
    (negative t evolves backward). Every row comes from the same eigensystem,
    so the result is exact up to its error; rows keep unit norm to ~1e-15 and
    are not renormalized. Cost: the N x len(times) phase table and one
    N x N by N x len(times) product, whose C-ordered result is returned
    transposed.
    """
    coeffs = vecs.conj().T @ psi
    return (vecs @ _phase_table(evals, np.asarray(times, dtype=np.float64), coeffs)).T


def _phase_table(lam: np.ndarray, times: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """The table exp(-i lam_k t_j) c_k, C-ordered, of shape lam.shape +
    times.shape (c = 1 when None, else of lam's shape): N x len(times) for one
    spectrum, or one such table per row of a stack of spectra."""
    table = _cis(np.asarray(lam)[..., None], times)
    if c is not None:
        table *= c[..., None]
    return table


def _cis(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(-i a b) for broadcastable real arrays a and b, C-ordered."""
    # theta = a b goes in the imaginary part of one complex buffer, then cos and
    # sin: the same bits as np.exp(-1j * theta), faster
    table = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.complex128)
    theta = table.imag
    np.multiply(a, b, out=theta)
    np.cos(theta, out=table.real)
    np.sin(theta, out=theta)
    np.negative(theta, out=theta)
    return table


def expm_apply(h: HermitianOperator, t: float, v: StateVector) -> StateVector:
    """exp(-i h t) |v>: ``propagate`` at the single time t, with checks."""
    if h.dim != v.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {v.dim}")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return StateVector(propagate(*np.linalg.eigh(h.mat), v.amps, [t])[0])
