import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearch import (
    DimensionError,
    HermitianOperator,
    NormalizationError,
    RankOneHamiltonian,
    StateVector,
    eigendecompose,
    expm_apply,
    inner_product,
)

from qsearch.linalg import propagate

from conftest import haar_state, random_hermitian


class TestStateVector:
    def test_accepts_and_rescales_near_unit_input(self):
        v = StateVector(np.array([1.0 + 2e-7, 0.0, 0.0]))
        assert v.norm() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_far_from_unit_norm(self):
        with pytest.raises(NormalizationError):
            StateVector(np.array([0.5, 0.5]))

    def test_rejects_nan(self):
        # nan fails every comparison, so the norm check must not be a "> tol" test
        arr = np.array([np.nan, 0.0])
        with pytest.raises(NormalizationError):
            StateVector(arr)
        with pytest.raises(NormalizationError):
            StateVector._wrap(arr)

    def test_rejects_non_vector_input(self):
        with pytest.raises(DimensionError):
            StateVector(np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            StateVector(np.array([]))

    def test_amps_are_immutable(self):
        v = StateVector.uniform(4)
        with pytest.raises(ValueError):
            v.amps[0] = 1.0

    def test_basis_state_is_exact(self):
        v = StateVector.basis_state(3, 1)
        assert np.array_equal(v.amps, np.array([0, 1, 0], dtype=complex))


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 17):
            v = haar_state(n, rng)
            assert inner_product(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_standard_basis_orthogonal(self):
        e0 = StateVector.basis_state(4, 0)
        e1 = StateVector.basis_state(4, 1)
        assert inner_product(e0, e1) == 0.0

    def test_uniform_against_basis_state(self):
        # <s|w> = 1/sqrt(N) for the uniform s and any basis w
        s = StateVector.uniform(4)
        w = StateVector.basis_state(4, 2)
        assert inner_product(s, w) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            inner_product(StateVector.uniform(2), StateVector.uniform(3))

    def test_cauchy_schwarz_cap(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = haar_state(8, rng)
            b = haar_state(8, rng)
            assert abs(inner_product(a, b)) <= 1.0 + 1e-12


class TestHermitianOperator:
    def test_storage_is_exactly_hermitian(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(6, rng)
        assert np.array_equal(h.mat, h.mat.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, entry):
        # the check sees inf - inf as nan; silence numpy's invalid-value warning on the way
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            HermitianOperator(np.array([[entry, 0.0], [0.0, 1.0]]))

    def test_rank_one_matrix(self):
        w = StateVector.basis_state(3, 0)
        h = RankOneHamiltonian(2.0, w).matrix()
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 0] = 2.0
        assert np.array_equal(h.mat, expected)

    def test_rank_one_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            RankOneHamiltonian(-1.0, StateVector.uniform(2))


class TestEigendecompose:
    def test_scaled_identity(self):
        e = 3.5
        h = HermitianOperator(e * np.eye(4))
        evals, vecs = eigendecompose(h)
        assert np.allclose(evals, e, atol=1e-14)
        gram = np.array([[inner_product(a, b) for b in vecs] for a in vecs])
        assert np.allclose(gram, np.eye(4), atol=1e-10)

    def test_two_level_matrix_of_the_search_problem(self):
        # E = 1, x = 0.5: spectrum must be E(1 -+ x) = {0.5, 1.5}
        c = 0.5 * math.sqrt(0.75)
        h = HermitianOperator(np.array([[1.25, c], [c, 0.75]]))
        evals, _ = eigendecompose(h)
        assert np.allclose(evals, [0.5, 1.5], atol=1e-12)

    def test_reconstruction_of_random_hermitian(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(8, rng)
        evals, vecs = eigendecompose(h)
        rebuilt = sum(
            lam * np.outer(v.amps, v.amps.conj()) for lam, v in zip(evals, vecs)
        )
        assert np.max(np.abs(rebuilt - h.mat)) < 1e-10

    def test_eigen_equation_and_ordering(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(9, rng)
        evals, vecs = eigendecompose(h)
        assert np.all(np.diff(evals) >= 0)
        scale = np.linalg.norm(h.mat)
        for lam, v in zip(evals, vecs):
            assert np.max(np.abs(h.mat @ v.amps - lam * v.amps)) < 1e-10 * scale


class TestExpmApply:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(4, rng)
        v = haar_state(4, rng)
        out = expm_apply(h, 0.0, v)
        assert np.max(np.abs(out.amps - v.amps)) < 1e-15

    def test_eigenvector_picks_up_pure_phase(self):
        s = StateVector.uniform(8)
        h = RankOneHamiltonian(2.0, s).matrix()
        t = 0.7
        out = expm_apply(h, t, s)
        assert np.max(np.abs(out.amps - np.exp(-2.0j * t) * s.amps)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            expm_apply(HermitianOperator(np.eye(3)), 1.0, StateVector.uniform(2))

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValueError):
            expm_apply(HermitianOperator(np.eye(2)), math.inf, StateVector.uniform(2))

    def test_propagate_rows_for_unsorted_and_negative_times(self):
        # H = Q diag(lam) Q^H from a known spectrum, so the reference
        # exp(-iHt) v needs no eigendecomposition
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        lam = rng.uniform(-2.0, 2.0, 6)
        h = HermitianOperator(q @ np.diag(lam) @ q.conj().T)
        v = haar_state(6, rng)
        times = [0.0, 2.5, -1.25, 0.4]
        rows = propagate(h.mat, v.amps, times)
        assert rows.shape == (4, 6)
        for t, row in zip(times, rows):
            expected = q @ (np.exp(-1j * lam * t) * (q.conj().T @ v.amps))
            assert np.max(np.abs(row - expected)) < 1e-12

    def test_full_space_matches_two_level_closed_form(self):
        # H = E|w><w| + E|s><s| at N = 4 confines s to the (w, r) plane;
        # the exact trigonometric solution is the oracle for the propagator.
        from qsearch import evolve_closed_form, reduced_basis, TwoLevelSystem

        n, e = 4, 1.0
        s = StateVector.uniform(n)
        w = StateVector.basis_state(n, 1)
        x, r = reduced_basis(s, w)
        h = HermitianOperator(
            e * np.outer(w.amps, w.amps.conj()) + e * np.outer(s.amps, s.amps.conj())
        )
        sys2 = TwoLevelSystem(energy=e, overlap=x)
        for t in (0.3, 1.0, 2.5, 7.0):
            full = expm_apply(h, t, s)
            reduced = evolve_closed_form(sys2, t)
            embedded = reduced.amp_w * w.amps + reduced.amp_r * r.amps
            assert np.max(np.abs(full.amps - embedded)) < 1e-10


@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1), t=st.floats(-8.0, 8.0))
@settings(max_examples=80)
def test_propagation_is_unitary(n, seed, t):
    rng = np.random.default_rng(seed)
    h = random_hermitian(n, rng)
    v = haar_state(n, rng)
    assert abs(expm_apply(h, t, v).norm() - 1.0) < 1e-10


@given(
    n=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
    t1=st.floats(-4.0, 4.0),
    t2=st.floats(-4.0, 4.0),
)
@settings(max_examples=80)
def test_propagation_group_property(n, seed, t1, t2):
    rng = np.random.default_rng(seed)
    h = random_hermitian(n, rng)
    v = haar_state(n, rng)
    once = expm_apply(h, t1 + t2, v)
    twice = expm_apply(h, t2, expm_apply(h, t1, v))
    assert np.max(np.abs(once.amps - twice.amps)) < 1e-9


@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), t=st.floats(-6.0, 6.0))
@settings(max_examples=60)
def test_energy_is_conserved(n, seed, t):
    rng = np.random.default_rng(seed)
    h = random_hermitian(n, rng)
    v = haar_state(n, rng)
    before = np.vdot(v.amps, h.mat @ v.amps).real
    moved = expm_apply(h, t, v)
    after = np.vdot(moved.amps, h.mat @ moved.amps).real
    assert abs(before - after) < 1e-9
