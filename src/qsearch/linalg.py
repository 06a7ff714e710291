"""Dense complex linear algebra substrate: normalized state vectors,
exactly-Hermitian operators, rank-one Hamiltonians, eigendecomposition and
the package's one eigenbasis propagator.

All values are immutable after construction (arrays are write-locked), so
they are safe to share between threads; every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NormalizationError

# Constructors repair vectors this close to unit norm and reject anything
# further out, so bad data is never silently "fixed".
NORM_REPAIR_TOL = 1e-6

HERMITICITY_TOL = 1e-10


@dataclass(frozen=True, eq=False, repr=False)
class StateVector:
    """Normalized complex amplitude vector.

    Input within ``NORM_REPAIR_TOL`` of unit norm is rescaled; anything
    further out raises ``NormalizationError``. Vectors already unit to
    1e-12 pass through untouched, so exact operations on normalized states
    (negation, sign flips) stay bit-faithful instead of being re-rounded by
    a division by 1 +- ulp.
    """

    amps: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amps, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionError(f"state vector must be 1-d and non-empty, got shape {arr.shape}")
        nrm = np.linalg.norm(arr)
        if abs(nrm - 1.0) > NORM_REPAIR_TOL:
            raise NormalizationError(f"norm {nrm!r} too far from 1 to normalize")
        if abs(nrm - 1.0) > 1e-12:
            arr = arr / nrm
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "StateVector":
        """Adopt a freshly computed array from a norm-preserving operation.

        Skips the renormalization pass so that exact operations (sign flips,
        reflections, unitary propagation) stay bit-faithful; the norm is
        still verified.
        """
        arr = np.asarray(arr, dtype=np.complex128)
        nrm = np.linalg.norm(arr)
        if abs(nrm - 1.0) > NORM_REPAIR_TOL:
            raise NormalizationError(f"propagation produced norm {nrm!r}")
        arr.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "amps", arr)
        return obj

    @classmethod
    def basis_state(cls, n: int, i: int) -> "StateVector":
        """Standard basis vector e_i in dimension n."""
        if not 0 <= i < n:
            raise DimensionError(f"basis index {i} out of range for dimension {n}")
        arr = np.zeros(n, dtype=np.complex128)
        arr[i] = 1.0
        return cls._wrap(arr)

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
    """N x N complex matrix that is Hermitian exactly as stored.

    Construction keeps the upper triangle, mirrors its conjugate into the
    lower triangle and drops any imaginary part of the diagonal, so
    ``mat[i, j] == conj(mat[j, i])`` holds bit-exactly. Input that deviates
    from Hermiticity beyond ``HERMITICITY_TOL`` (relative to the largest
    entry) is rejected rather than symmetrized.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionError(f"operator must be square, got shape {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
        if float(np.max(np.abs(m - m.conj().T))) > HERMITICITY_TOL * scale:
            raise ValueError("matrix is not Hermitian within tolerance")
        upper = np.triu(m, 1)
        exact = upper + upper.conj().T + np.diag(m.diagonal().real)
        exact.setflags(write=False)
        object.__setattr__(self, "mat", exact)

    @classmethod
    def zero(cls, n: int) -> "HermitianOperator":
        return cls(np.zeros((n, n), dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return HermitianOperator(self.mat + other.mat)

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
    return evals, [StateVector._wrap(vecs[:, i].copy()) for i in range(h.dim)]


def propagate(mat: np.ndarray, psi: np.ndarray, times) -> np.ndarray:
    """Rows exp(-i mat t) psi, one per entry of ``times``, from one ``eigh``.

    ``mat`` is a Hermitian N x N array and ``times`` any real 1-d sequence
    (negative t evolves backward). Every row comes from the same
    eigendecomposition, so the result is exact up to its error; rows keep
    unit norm to ~1e-15 and are not renormalized. The result is the
    transpose of a C-ordered N x len(times) product.
    """
    evals, vecs = np.linalg.eigh(mat)
    coeffs = vecs.conj().T @ psi
    return (vecs @ (np.exp(-1j * np.outer(evals, times)) * coeffs[:, None])).T


def expm_apply(h: HermitianOperator, t: float, v: StateVector) -> StateVector:
    """exp(-i h t) |v>: ``propagate`` at the single time t, with checks."""
    if h.dim != v.dim:
        raise DimensionError(f"dimension mismatch: {h.dim} vs {v.dim}")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return StateVector._wrap(propagate(h.mat, v.amps, [t])[0])
