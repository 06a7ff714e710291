import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearch import (
    RankOneHamiltonian,
    StateVector,
    TwoLevelSystem,
    absorb_phase,
    assemble_search_hamiltonian,
    eigendecompose,
    expm_apply,
    full_space_probability,
    measurement_time,
    reduced_basis,
    success_probability,
    two_level_eigenvalues,
    two_level_hamiltonian,
)

from qsearch.analog import evolve_closed_form

from qsearch.linalg import propagate

from conftest import haar_state


class TestReducedBasis:
    def test_orthogonal_pair_returns_s_itself(self):
        s = StateVector.basis_state(4, 1)
        w = StateVector.basis_state(4, 0)
        x, r = reduced_basis(s, w)
        assert x == 0.0
        assert np.array_equal(r.amps, s.amps)

    def test_uniform_vs_basis_at_n4(self):
        # x = 1/2 and r = (s - w/2) / sqrt(3/4), supported off the target
        s = StateVector.uniform(4)
        w = StateVector.basis_state(4, 0)
        x, r = reduced_basis(s, w)
        assert x == pytest.approx(0.5, abs=1e-15)
        expected = (s.amps - 0.5 * w.amps) / math.sqrt(0.75)
        assert np.max(np.abs(r.amps - expected)) < 1e-15
        assert abs(np.vdot(r.amps, w.amps)) < 1e-12
        assert r.norm() == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_identity_random_complex(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = haar_state(32, rng)
            w = haar_state(32, rng)
            x, r = reduced_basis(s, w)
            s_re = absorb_phase(s, w)
            rebuilt = x * w.amps + math.sqrt(1 - x * x) * r.amps
            assert np.max(np.abs(rebuilt - s_re.amps)) < 1e-12

    def test_colinear_rejection(self):
        s = StateVector.uniform(4)
        with pytest.raises(ValueError, match="leaves no orthogonal component"):
            reduced_basis(s, s)
        # same ray with a phase is still colinear
        with pytest.raises(ValueError, match="leaves no orthogonal component"):
            reduced_basis(s, StateVector(1j * s.amps))


class TestTwoLevelHamiltonian:
    def test_colinear_is_diagonal(self):
        h = two_level_hamiltonian(TwoLevelSystem(energy=2.0, overlap=1.0))
        assert np.array_equal(h.mat, np.array([[4.0, 0.0], [0.0, 0.0]], dtype=complex))

    def test_zero_overlap_is_scaled_identity(self):
        h = two_level_hamiltonian(TwoLevelSystem(energy=3.0, overlap=0.0))
        assert np.array_equal(h.mat, 3.0 * np.eye(2, dtype=complex))

    def test_half_overlap_entries(self):
        h = two_level_hamiltonian(TwoLevelSystem(energy=1.0, overlap=0.5))
        c = 0.25 * math.sqrt(3.0)
        assert np.allclose(h.mat, [[1.25, c], [c, 0.75]], atol=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TwoLevelSystem(energy=0.0, overlap=0.5)
        with pytest.raises(ValueError):
            TwoLevelSystem(energy=1.0, overlap=1.5)


class TestTwoLevelEigenvalues:
    def test_degenerate_at_zero_overlap(self):
        assert two_level_eigenvalues(TwoLevelSystem(2.0, 0.0)) == (2.0, 2.0)

    def test_half_overlap(self):
        assert two_level_eigenvalues(TwoLevelSystem(1.0, 0.5)) == (0.5, 1.5)

    def test_gap_scales_as_inverse_root_dim(self):
        # E = 2, x = 1/sqrt(1024): the gap 2xE is 4/32
        lo, hi = two_level_eigenvalues(TwoLevelSystem(2.0, 1.0 / math.sqrt(1024.0)))
        assert hi - lo == pytest.approx(0.125, abs=1e-15)

    def test_matches_numerical_spectrum(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            sys2 = TwoLevelSystem(energy=float(rng.uniform(0.1, 5.0)),
                                  overlap=float(rng.uniform(0.0, 1.0)))
            evals, _ = eigendecompose(two_level_hamiltonian(sys2))
            expected = two_level_eigenvalues(sys2)
            assert np.max(np.abs(evals - np.array(expected))) < 1e-12


class TestClosedFormEvolution:
    def test_initial_condition(self):
        sys2 = TwoLevelSystem(1.0, 0.3)
        st0 = evolve_closed_form(sys2, 0.0)
        assert st0.amp_w == pytest.approx(0.3, abs=1e-15)
        assert st0.amp_r == pytest.approx(math.sqrt(1 - 0.09), abs=1e-15)

    def test_certainty_at_measurement_time(self):
        for e, x in ((1.0, 0.5), (2.0, 0.1), (0.7, 0.9)):
            sys2 = TwoLevelSystem(e, x)
            t_m = measurement_time(sys2)
            st_m = evolve_closed_form(sys2, t_m)
            assert abs(st_m.amp_w - (-1j) * cmath.exp(-1j * e * t_m)) < 1e-12
            assert abs(st_m.amp_r) < 1e-12

    def test_agrees_with_matrix_exponential(self):
        sys2 = TwoLevelSystem(1.0, 0.5)
        h = two_level_hamiltonian(sys2)
        psi0 = StateVector(np.array([0.5, math.sqrt(0.75)], dtype=complex))
        for t in (1.0, 0.2, 3.7):
            viaexp = expm_apply(h, t, psi0)
            closed = evolve_closed_form(sys2, t)
            assert abs(viaexp.amps[0] - closed.amp_w) < 1e-12
            assert abs(viaexp.amps[1] - closed.amp_r) < 1e-12


class TestSuccessProbability:
    def test_starts_at_overlap_squared(self):
        assert success_probability(TwoLevelSystem(1.0, 0.3), 0.0) == pytest.approx(0.09, abs=1e-15)

    def test_colinear_stays_at_one(self):
        sys2 = TwoLevelSystem(1.0, 1.0)
        for t in np.linspace(0.0, 9.0, 40):
            assert success_probability(sys2, float(t)) == pytest.approx(1.0, abs=1e-14)

    def test_reaches_one_at_pi_for_half_overlap(self):
        assert success_probability(TwoLevelSystem(1.0, 0.5), math.pi) == pytest.approx(1.0, abs=1e-14)

    def test_matches_amplitude_squared(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            sys2 = TwoLevelSystem(float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.0, 1.0)))
            t = float(rng.uniform(-10.0, 10.0))
            assert abs(success_probability(sys2, t) - evolve_closed_form(sys2, t).probability_w) < 1e-14


class TestMeasurementTime:
    def test_colinear(self):
        assert measurement_time(TwoLevelSystem(1.0, 1.0)) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_half_overlap(self):
        assert measurement_time(TwoLevelSystem(1.0, 0.5)) == pytest.approx(math.pi, abs=1e-15)

    def test_root_n_scaling(self):
        # x = 1/sqrt(1024): waiting time 16*pi, the sqrt(N)/E law exactly
        t_m = measurement_time(TwoLevelSystem(1.0, 1.0 / math.sqrt(1024.0)))
        assert t_m == pytest.approx(16.0 * math.pi, rel=1e-14)

    def test_probability_is_one_there(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            sys2 = TwoLevelSystem(float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.01, 1.0)))
            assert success_probability(sys2, measurement_time(sys2)) >= 1.0 - 1e-12

    def test_zero_overlap_is_rejected(self):
        with pytest.raises(ValueError, match="zero overlap"):
            measurement_time(TwoLevelSystem(1.0, 0.0))


class TestAssembleSearchHamiltonian:
    def test_orthogonal_directions(self):
        w = StateVector.basis_state(4, 0)
        s = StateVector.basis_state(4, 1)
        h = assemble_search_hamiltonian(RankOneHamiltonian(1.0, w), RankOneHamiltonian(1.0, s))
        evals, _ = eigendecompose(h)
        assert np.allclose(evals, [0.0, 0.0, 1.0, 1.0], atol=1e-12)

    def test_spectrum_matches_two_level_prediction(self):
        s = StateVector.uniform(4)
        w = StateVector.basis_state(4, 0)
        h = assemble_search_hamiltonian(RankOneHamiltonian(1.0, w), RankOneHamiltonian(1.0, s))
        evals, _ = eigendecompose(h)
        assert np.allclose(evals, [0.0, 0.0, 0.5, 1.5], atol=1e-10)

    def test_colinear_doubles_the_scale(self):
        s = StateVector.uniform(2)
        h = assemble_search_hamiltonian(RankOneHamiltonian(1.5, s), RankOneHamiltonian(1.5, s))
        evals, _ = eigendecompose(h)
        assert np.allclose(evals, [0.0, 3.0], atol=1e-12)

    def test_unequal_scales_allowed_here_but_not_in_reduction(self):
        s = StateVector.uniform(4)
        w = StateVector.basis_state(4, 0)
        oracle = RankOneHamiltonian(1.0, w)
        strong = RankOneHamiltonian(100.0, s)
        h = assemble_search_hamiltonian(oracle, strong)  # fine for experiments
        assert np.array_equal(h.mat, oracle.matrix().mat + strong.matrix().mat)


def test_full_space_agrees_with_reduced_dynamics_across_dims():
    # Random complex pair at every power of two up to 256: the propagated
    # full state must live in the (w, r) plane and match the closed form.
    rng = np.random.default_rng(101)
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        s = haar_state(n, rng)
        w = haar_state(n, rng)
        x, r = reduced_basis(s, w)
        s_re = absorb_phase(s, w)
        h = assemble_search_hamiltonian(RankOneHamiltonian(1.0, w), RankOneHamiltonian(1.0, s))
        sys2 = TwoLevelSystem(energy=1.0, overlap=x, dim_hint=n)
        for t in np.linspace(0.0, 2.0 * measurement_time(sys2), 7):
            full = expm_apply(h, float(t), s_re)
            reduced = evolve_closed_form(sys2, float(t))
            a_w = np.vdot(w.amps, full.amps)
            a_r = np.vdot(r.amps, full.amps)
            assert abs(a_w - reduced.amp_w) < 1e-9
            assert abs(a_r - reduced.amp_r) < 1e-9
            residual = full.amps - a_w * w.amps - a_r * r.amps
            assert np.linalg.norm(residual) < 1e-10


@pytest.mark.parametrize("energy, periods", [(1.0, 1), (0.5, 1), (3.0, 1), (1.0, 10)])
def test_in_plane_probability_matches_dense_propagation(energy, periods):
    # The dense N x N propagation is the reference: random complex pairs, a
    # basis target and the colinear w = s (singular Gram matrix), over one
    # period of P(t) or ten. The closed form is matched more tightly than the
    # dense path can: unshifted, E G's eigenvalue rounding gives ~1e-13 at
    # ten periods.
    rng = np.random.default_rng(202)
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        s = haar_state(n, rng)
        for w in (haar_state(n, rng), StateVector.basis_state(n, n - 1), s):
            x = min(abs(np.vdot(s.amps, w.amps)), 1.0)
            times = np.linspace(0.0, periods * math.pi / (energy * x), 301)
            h = assemble_search_hamiltonian(RankOneHamiltonian(energy, w), RankOneHamiltonian(energy, s))
            states = propagate(*np.linalg.eigh(h.mat), absorb_phase(s, w).amps, times)
            dense = np.abs(states @ w.amps.conj()) ** 2
            p_full = full_space_probability(energy, s, w, times)
            assert np.max(np.abs(p_full - dense)) <= 1e-12
            closed = [success_probability(TwoLevelSystem(energy, x), float(t)) for t in times]
            assert np.max(np.abs(p_full - closed)) <= 3e-14


@given(
    e=st.floats(0.1, 5.0),
    x=st.floats(0.001, 1.0),
    t=st.floats(-20.0, 20.0),
)
@settings(max_examples=100)
def test_probability_is_periodic(e, x, t):
    sys2 = TwoLevelSystem(energy=e, overlap=x)
    period = math.pi / (e * x)
    p0 = success_probability(sys2, t)
    p1 = success_probability(sys2, t + period)
    assert abs(p0 - p1) < 1e-10


def test_phase_of_s_is_absorbed():
    # A global phase on s must not move x, P(t), or t_m. Negating s is an
    # exact operation, so those come out bit-identical; a generic phase only
    # perturbs at the rounding level.
    rng = np.random.default_rng(55)
    s = haar_state(16, rng)
    w = haar_state(16, rng)
    x, _ = reduced_basis(s, w)

    x_neg, _ = reduced_basis(StateVector(-s.amps), w)
    assert x_neg == x

    for phi in (0.2, 1.0, 2.8, -1.3):
        s_rot = StateVector(cmath.exp(1j * phi) * s.amps)
        x_rot, _ = reduced_basis(s_rot, w)
        assert abs(x_rot - x) < 5e-16
        sys_a = TwoLevelSystem(1.0, x)
        sys_b = TwoLevelSystem(1.0, x_rot)
        assert abs(measurement_time(sys_a) - measurement_time(sys_b)) < 1e-12
        for t in (0.5, 2.0, 11.0):
            assert abs(success_probability(sys_a, t) - success_probability(sys_b, t)) < 1e-12
