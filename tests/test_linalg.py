import math
import tracemalloc

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

from qsearch.linalg import propagate, rank_one_eigh
from qsearch.statistics import random_state

from conftest import haar_state, random_hermitian


class TestStateVector:
    def test_stores_near_unit_input_unchanged(self):
        arr = np.array([1.0 + 2e-7, 0.0, 0.0])
        v = StateVector(arr)
        assert np.array_equal(v.amps, arr)
        assert v.norm() == 1.0 + 2e-7

    def test_rejects_far_from_unit_norm(self):
        with pytest.raises(NormalizationError):
            StateVector(np.array([0.5, 0.5]))

    def test_rejects_nan(self):
        # nan fails every comparison, so the norm check must not be a "> tol" test
        arr = np.array([np.nan, 0.0])
        with pytest.raises(NormalizationError):
            StateVector(arr)

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

    def test_large_uniform_and_random_states_are_stored_exactly(self):
        # at this N (not a power of two) the complex norm of the exact uniform
        # state is more than 1e-12 from 1, so a rescale would move every amplitude
        n = 648059
        s = StateVector.uniform(n)
        assert np.array_equal(s.amps, np.full(n, 1.0 / math.sqrt(n)))
        assert abs(math.fsum(s.amps.real ** 2) - 1.0) <= 2.3e-16
        w = random_state(n, np.random.Generator(np.random.SFC64(19)))
        z = np.random.Generator(np.random.SFC64(19)).standard_normal((2, n))
        v = z[0] + 1j * z[1]
        assert np.array_equal(w.amps, v / np.linalg.norm(v))


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

    def test_near_hermitian_input_is_stored_unchanged(self):
        rng = np.random.default_rng(13)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = (g + g.conj().T) / 2.0 + 1e-13 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        assert not np.array_equal(m, m.conj().T)
        assert np.array_equal(HermitianOperator(m).mat, m)

    def test_construction_peaks_below_four_matrices(self):
        # the stored copy, m - m^dagger and its magnitudes: about 3 x 16 N^2 bytes
        n = 512
        m = random_hermitian(n, np.random.default_rng(14)).mat
        tracemalloc.start()
        try:
            HermitianOperator(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * 16 * n * n

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
        rows = propagate(*np.linalg.eigh(h.mat), v.amps, times)
        assert rows.shape == (4, 6)
        for t, row in zip(times, rows):
            expected = q @ (np.exp(-1j * lam * t) * (q.conj().T @ v.amps))
            assert np.max(np.abs(row - expected)) < 1e-12

    def test_full_space_matches_two_level_closed_form(self):
        # H = E|w><w| + E|s><s| at N = 4 confines s to the (w, r) plane;
        # the exact trigonometric solution is the oracle for the propagator.
        from qsearch import reduced_basis, TwoLevelSystem
        from qsearch.analog import evolve_closed_form

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


def gue_spectrum(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.eigvalsh((g + g.conj().T) / 2.0)


def assert_rank_one_eigensystem(lam, u, rho):
    """rank_one_eigh against eigh of the dense diag(lam) + rho u u^dagger."""
    mu, q = rank_one_eigh(lam, u[None], rho)
    mu, q = mu[0], q[0]
    dense = np.diag(lam) + rho * np.outer(u, u.conj())
    scale = max(float(np.max(np.abs(lam))), abs(rho) * float(np.vdot(u, u).real), 1e-300)
    assert np.all(np.diff(mu) >= 0.0)
    assert np.max(np.abs(mu - np.linalg.eigvalsh(dense))) <= 1e-13 * scale
    assert np.linalg.norm(q.conj().T @ q - np.eye(lam.size), 2) <= 1e-13
    assert np.linalg.norm(dense @ q - q * mu, 2) <= 1e-13 * scale


class TestRankOneEigh:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 128])
    @pytest.mark.parametrize("sign", [1.0])
    def test_gue_spectra(self, n, sign):
        rng = np.random.default_rng(n)
        assert_rank_one_eigensystem(gue_spectrum(n, rng), haar_state(n, rng).amps, sign * 1.5)

    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_zero_spectrum(self, n):
        # the zero driver: one eigenvalue rho ||u||^2, the rest stay 0
        rng = np.random.default_rng(20 + n)
        for u in (haar_state(n, rng).amps, StateVector.basis_state(n, n - 1).amps):
            assert_rank_one_eigensystem(np.zeros(n), u, 1.0)

    def test_one_eigenvalue_beside_zeros(self):
        # the paper driver: E mult |s><s| has N - 1 zero eigenvalues
        n = 16
        lam = np.zeros(n)
        lam[-1] = 2.0
        rng = np.random.default_rng(3)
        _, vecs = np.linalg.eigh(2.0 * np.outer(np.full(n, 0.25), np.full(n, 0.25)))
        for u in (vecs[5].conj(), haar_state(n, rng).amps, StateVector.basis_state(n, 0).amps):
            assert_rank_one_eigensystem(lam, u, 1.0)

    def test_clusters_within_1e_14(self):
        rng = np.random.default_rng(4)
        lam = gue_spectrum(32, rng)
        lam[4:9] = lam[4] + np.arange(5) * 1e-14
        lam[20:23] = lam[20]
        assert_rank_one_eigensystem(np.sort(lam), haar_state(32, rng).amps, 1.0)

    def test_zero_and_tiny_components(self):
        rng = np.random.default_rng(5)
        u = haar_state(32, rng).amps.copy()
        u[[3, 9]] = 0.0
        u[[7, 30]] = 1e-20
        assert_rank_one_eigensystem(gue_spectrum(32, rng), u / np.linalg.norm(u), 1.0)

    @pytest.mark.parametrize("exponent", [-8, -4, 0, 4, 8])
    def test_rho_across_sixteen_decades(self, exponent):
        rng = np.random.default_rng(6)
        lam = gue_spectrum(48, rng)
        u = haar_state(48, rng).amps
        assert_rank_one_eigensystem(lam, u, 10.0**exponent * np.max(np.abs(lam)))

    @pytest.mark.parametrize("size", [5e-324, 1e-306, 1e300])
    def test_scales_near_the_ends_of_the_double_range(self, size):
        # the problem is solved at unit scale, so neither 1/delta^2 nor z-hat overflows
        rng = np.random.default_rng(8)
        lam = gue_spectrum(10, rng)
        u = haar_state(10, rng).amps
        mu, q = rank_one_eigh(lam * size, u[None], size)
        mu, q = mu[0], q[0]
        assert np.linalg.norm(q.conj().T @ q - np.eye(10), 2) <= 1e-13
        if size > 1e-300:  # at 5e-324 only the unitarity is meaningful
            ref_mu = rank_one_eigh(lam, u[None], 1.0)[0][0]
            assert np.max(np.abs(mu / size - ref_mu)) <= 1e-13 * np.max(np.abs(ref_mu))

    def test_rho_zero_is_the_identity(self):
        lam = np.array([-1.0, 0.5, 2.0])
        mu, q = rank_one_eigh(lam, StateVector.uniform(3).amps[None], 0.0)
        assert np.array_equal(mu[0], lam)
        assert np.array_equal(q[0], np.eye(3))

    def test_refuses_one_vector_and_negative_rho(self):
        u = StateVector.uniform(3).amps
        with pytest.raises(ValueError):
            rank_one_eigh(np.zeros(3), u, 1.0)
        with pytest.raises(ValueError):
            rank_one_eigh(np.zeros(3), u[None], -1.0)

    def test_stack_matches_one_vector_at_a_time(self):
        # the rows of V^dagger, as bound passes them: one update per oracle
        rng = np.random.default_rng(7)
        lam, vecs = np.linalg.eigh(random_hermitian(12, rng).mat)
        mu, q = rank_one_eigh(lam, vecs.conj(), 0.8)
        assert mu.shape == (12, 12) and q.shape == (12, 12, 12)
        for w in range(12):
            one_mu, one_q = rank_one_eigh(lam, vecs[w].conj()[None], 0.8)
            assert np.max(np.abs(mu[w] - one_mu[0])) <= 1e-14
            assert np.max(np.abs(q[w] - one_q[0])) <= 1e-12


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
