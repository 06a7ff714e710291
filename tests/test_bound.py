import math
import tracemalloc

import numpy as np
import pytest

from qsearch import (
    BasisError,
    DriverSchedule,
    HermitianOperator,
    RankOneHamiltonian,
    ScheduleError,
    StateVector,
    TwoLevelSystem,
    discrimination_time,
    divergence_profile,
    evolve_closed_form,
    evolve_trajectories,
    oracle_coupling_norms,
    per_oracle_rates,
    reduced_basis,
    sum_oracle_hamiltonians,
)

from qsearch.bound import build_driver, oracle_trajectory

from conftest import haar_state, random_hermitian


def standard_basis(n):
    return [StateVector.basis_state(n, i) for i in range(n)]


def paper_driver(n, e, horizon):
    return DriverSchedule.rank_one(RankOneHamiltonian(e, StateVector.uniform(n)), horizon)


def uniform_grid(horizon, steps):
    return np.linspace(0.0, horizon, steps + 1)


class TestSumOracleHamiltonians:
    def test_standard_basis_gives_exact_identity(self):
        h = sum_oracle_hamiltonians(1.0, standard_basis(5))
        assert np.array_equal(h.mat, np.eye(5, dtype=complex))

    def test_any_orthonormal_basis_completes(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        basis = [StateVector(q[:, i]) for i in range(8)]
        h = sum_oracle_hamiltonians(2.0, basis)
        assert np.max(np.abs(h.mat - 2.0 * np.eye(8))) < 1e-12

    def test_one_dimensional_edge(self):
        w = StateVector(np.array([1.0 + 0.0j]))
        h = sum_oracle_hamiltonians(3.0, [w])
        assert h.mat.shape == (1, 1)
        assert h.mat[0, 0] == pytest.approx(3.0, abs=1e-15)

    def test_rejects_non_orthonormal(self):
        s = StateVector.uniform(2)
        with pytest.raises(BasisError):
            sum_oracle_hamiltonians(1.0, [s, s])

    def test_rejects_incomplete_set(self):
        with pytest.raises(BasisError):
            sum_oracle_hamiltonians(1.0, standard_basis(4)[:2])


class TestEvolveTrajectories:
    def test_oracle_eigenstate_gets_pure_phase_others_freeze(self):
        n, e = 5, 1.3
        initial = StateVector.basis_state(n, 2)
        grid = uniform_grid(4.0, 60)
        driver = DriverSchedule.zero(n, 4.0)
        states = [oracle_trajectory(e, w.amps, driver, initial.amps, grid) for w in standard_basis(n)]
        expected = np.exp(-1j * e * grid)[:, None] * initial.amps[None, :]
        assert np.max(np.abs(states[2] - expected)) < 1e-12
        for w in (0, 1, 3, 4):
            assert np.max(np.abs(states[w] - initial.amps[None, :])) < 1e-12

    def test_paper_driver_matches_closed_form(self):
        n, e = 4, 1.0
        s = StateVector.uniform(n)
        grid = uniform_grid(8.0, 80)
        driver = paper_driver(n, e, 8.0)
        for w in range(n):
            wvec = StateVector.basis_state(n, w)
            states = oracle_trajectory(e, wvec.amps, driver, s.amps, grid)
            x, r = reduced_basis(s, wvec)
            sys2 = TwoLevelSystem(energy=e, overlap=x)
            for j, t in enumerate(grid):
                st = evolve_closed_form(sys2, float(t))
                embedded = st.amp_w * wvec.amps + st.amp_r * r.amps
                assert np.max(np.abs(states[j] - embedded)) < 1e-8

    def test_reference_under_rank_one_driver_is_pure_phase(self):
        n, e = 6, 2.0
        s = StateVector.uniform(n)
        grid = uniform_grid(3.0, 50)
        traj = evolve_trajectories(e, standard_basis(n), paper_driver(n, e, 3.0), s, grid)
        expected = np.exp(-1j * e * grid)[:, None] * s.amps[None, :]
        assert np.max(np.abs(traj.reference - expected)) < 1e-10

    def test_piecewise_schedule_agrees_with_sequential_constant_runs(self):
        # one 2-segment schedule vs running the segments back to back
        rng = np.random.default_rng(7)
        n, e = 4, 1.0
        a, b = random_hermitian(n, rng), random_hermitian(n, rng)
        sched = DriverSchedule.piecewise([a, b], [1.0, 1.0])
        grid = uniform_grid(2.0, 40)
        s = StateVector.uniform(n)
        w = StateVector.basis_state(n, 1).amps
        states = oracle_trajectory(e, w, sched, s.amps, grid)

        first = oracle_trajectory(e, w, DriverSchedule.constant(a, 1.0), s.amps, uniform_grid(1.0, 20))
        second = oracle_trajectory(e, w, DriverSchedule.constant(b, 1.0), first[-1], uniform_grid(1.0, 20))
        assert np.max(np.abs(states[20:] - second)) < 1e-10

    def test_grid_beyond_horizon_is_rejected(self):
        n = 3
        with pytest.raises(ScheduleError):
            evolve_trajectories(
                1.0, standard_basis(n), DriverSchedule.zero(n, 1.0),
                StateVector.uniform(n), uniform_grid(2.0, 10),
            )

    def test_grid_must_start_at_zero_and_increase(self):
        n = 3
        sched = DriverSchedule.zero(n, 5.0)
        with pytest.raises(ValueError):
            evolve_trajectories(1.0, standard_basis(n), sched, StateVector.uniform(n), np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            evolve_trajectories(1.0, standard_basis(n), sched, StateVector.uniform(n), np.array([0.0, 0.2, 0.2]))

    def test_initial_grid_point_is_bit_exact(self):
        n = 4
        s = StateVector.uniform(n)
        driver, grid = DriverSchedule.zero(n, 1.0), uniform_grid(1.0, 5)
        traj = evolve_trajectories(1.0, standard_basis(n), driver, s, grid)
        assert np.array_equal(traj.reference[0], s.amps)
        starts = [oracle_trajectory(1.0, w.amps, driver, s.amps, grid)[0] for w in standard_basis(n)]
        assert np.array_equal(np.array(starts), np.broadcast_to(s.amps, (n, n)))

    def test_peak_memory_stays_below_a_quarter_of_the_full_states(self):
        # N full (M, N) blocks would take 16 N^2 M bytes (62.5 MiB here)
        n, m = 64, 1001
        driver = build_driver("random-dense", n, 1.0, 1.0, 10.0, np.random.default_rng(0))
        basis, s, grid = standard_basis(n), StateVector.uniform(n), np.linspace(0.0, 10.0, m)
        tracemalloc.start()
        try:
            evolve_trajectories(1.0, basis, driver, s, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * n * m / 4


class TestDivergenceProfile:
    def test_divergence_starts_at_zero(self):
        n = 4
        traj = evolve_trajectories(
            1.0, standard_basis(n), paper_driver(n, 1.0, 2.0), StateVector.uniform(n), uniform_grid(2.0, 30)
        )
        rep = divergence_profile(traj)
        assert rep.divergence[0] == 0.0
        assert rep.bound_line[0] == 0.0

    def test_paper_driver_hits_two_over_pi_at_measurement_time(self):
        n, e = 16, 1.0
        t_m = math.pi * math.sqrt(n) / (2 * e)
        grid = uniform_grid(2 * t_m, 1000)
        traj = evolve_trajectories(e, standard_basis(n), paper_driver(n, e, 2 * t_m), StateVector.uniform(n), grid)
        rep = divergence_profile(traj)
        j = 500  # exactly t_m on this grid
        assert grid[j] == pytest.approx(t_m, rel=1e-12)
        assert rep.divergence[j] == pytest.approx(2.0 * n, abs=1e-6)
        assert rep.divergence[j] / rep.bound_line[j] == pytest.approx(2.0 / math.pi, abs=1e-3)
        assert rep.bound_satisfied

    def test_zero_driver_closed_form(self):
        # D(t) = sum_w 2|<w|i>|^2 (1 - cos Et) = 2(1 - cos Et)
        n, e = 8, 1.7
        grid = uniform_grid(6.0, 200)
        traj = evolve_trajectories(e, standard_basis(n), DriverSchedule.zero(n, 6.0), StateVector.uniform(n), grid)
        rep = divergence_profile(traj)
        expected = 2.0 * (1.0 - np.cos(e * grid))
        assert np.max(np.abs(rep.divergence - expected)) < 1e-10
        per_w = 2.0 / n * (1.0 - np.cos(e * grid))
        assert np.max(np.abs(rep.min_distance - per_w)) < 1e-10
        assert np.max(np.abs(rep.second_min_distance - per_w)) < 1e-10

    def test_paper_driver_divergence_matches_analytic_form(self):
        # with initial s every oracle is equivalent: D = N * (2 - 2 cos(Ext))
        n, e = 16, 1.0
        x = 1.0 / math.sqrt(n)
        grid = uniform_grid(10.0, 300)
        traj = evolve_trajectories(e, standard_basis(n), paper_driver(n, e, 10.0), StateVector.uniform(n), grid)
        rep = divergence_profile(traj)
        expected = n * (2.0 - 2.0 * np.cos(e * x * grid))
        assert np.max(np.abs(rep.divergence - expected)) < 1e-8

    def test_derivative_estimates_respect_rate_cap(self):
        n, e = 8, 1.0
        grid = uniform_grid(5.0, 400)
        traj = evolve_trajectories(e, standard_basis(n), paper_driver(n, e, 5.0), StateVector.uniform(n), grid)
        rep = divergence_profile(traj)
        assert rep.derivative_bound_satisfied
        dt = grid[1] - grid[0]
        assert np.all(rep.derivative_estimates <= rep.rate_cap + rep.fd_curvature * dt + 1e-9)

    def test_rates_diagnostic_sums_to_divergence_slope(self):
        rng = np.random.default_rng(11)
        n, e = 6, 1.0
        grid = uniform_grid(3.0, 600)
        driver = DriverSchedule.constant(random_hermitian(n, rng, scale=2.0), 3.0)
        traj = evolve_trajectories(e, standard_basis(n), driver, StateVector.uniform(n), grid)
        rep = divergence_profile(traj)
        total_rate = per_oracle_rates(traj).sum(axis=0)
        mid = 0.5 * (total_rate[2:] + total_rate[:-2])
        assert np.max(np.abs(rep.derivative_estimates - mid)) < 2e-2  # O(dt^2) agreement

    def test_coupling_norm_diagnostic(self):
        n, e = 9, 2.5
        grid = uniform_grid(1.0, 10)
        traj = evolve_trajectories(e, standard_basis(n), DriverSchedule.zero(n, 1.0), StateVector.uniform(n), grid)
        norms = oracle_coupling_norms(traj)
        assert norms.shape == (n, len(grid))
        assert np.max(np.abs(norms - e / math.sqrt(n))) < 1e-12


class TestGrowthBoundAcrossDrivers:
    FAMILY_SEED = {"paper": 1, "zero": 2, "dense": 3, "dense100": 4, "piecewise": 5}

    @pytest.mark.parametrize("n", [2, 4, 16])
    @pytest.mark.parametrize("family", ["paper", "zero", "dense", "dense100", "piecewise"])
    def test_integrated_bound_holds_everywhere(self, n, family):
        rng = np.random.default_rng(1000 * self.FAMILY_SEED[family] + n)
        e = 1.0
        horizon = math.pi * math.sqrt(n)  # 2 * t_m-equivalent
        if family == "paper":
            driver = paper_driver(n, e, horizon)
        elif family == "zero":
            driver = DriverSchedule.zero(n, horizon)
        elif family == "dense":
            driver = DriverSchedule.constant(random_hermitian(n, rng), horizon)
        elif family == "dense100":
            # a driver 100x stronger than the oracle must not beat the cap
            driver = DriverSchedule.constant(random_hermitian(n, rng, scale=100.0 * e), horizon)
        else:
            ops = [random_hermitian(n, rng, scale=3.0) for _ in range(10)]
            driver = DriverSchedule.piecewise(ops, [horizon / 10] * 10)
        grid = uniform_grid(horizon, 500)
        traj = evolve_trajectories(e, standard_basis(n), driver, StateVector.uniform(n), grid)
        rep = divergence_profile(traj)
        assert np.all(rep.divergence <= rep.bound_line + 1e-6)
        assert rep.bound_satisfied
        # range invariant: each of the N terms is a squared distance <= 4
        assert np.all(rep.divergence >= -1e-12)
        assert np.all(rep.divergence <= 4.0 * n + 1e-9)
        # Lipschitz continuity along the grid, same rate cap
        steps = np.abs(np.diff(rep.divergence))
        assert np.all(steps <= rep.rate_cap * np.diff(grid) + 1e-6)


class TestBuildDriver:
    def test_families_set_segments_and_spectral_norm(self):
        rng = np.random.default_rng(4)
        n, e, mult = 6, 0.5, 3.0
        for family, count in (("paper", 1), ("zero", 1), ("random-dense", 1), ("piecewise", 5)):
            driver = build_driver(family, n, e, mult, 2.0, rng, segments=5)
            assert len(driver.segments) == count
            assert driver.horizon == pytest.approx(2.0)
            norms = [np.max(np.abs(np.linalg.eigvalsh(op.mat))) for _, op in driver.segments]
            assert norms == pytest.approx([0.0 if family == "zero" else e * mult] * count)

    def test_unknown_family_is_rejected(self):
        with pytest.raises(ValueError):
            build_driver("warp", 4, 1.0, 1.0, 1.0, np.random.default_rng(0))


class TestDiscriminationTime:
    def make_paper_report(self, n=16, e=1.0, epsilon=2.0):
        t_m = math.pi * math.sqrt(n) / (2 * e)
        grid = uniform_grid(2 * t_m, 1000)
        traj = evolve_trajectories(e, standard_basis(n), paper_driver(n, e, 2 * t_m), StateVector.uniform(n), grid)
        return discrimination_time(traj, epsilon), t_m, grid

    def test_vacuously_small_threshold_crosses_immediately(self):
        rep, _, grid = self.make_paper_report(epsilon=1e-9)
        assert rep.t_epsilon == grid[1]
        assert rep.lower_bound == pytest.approx(1e-9 * 4.0 / 2.0, rel=1e-12)

    def test_paper_driver_full_separation_at_measurement_time(self):
        # every per-oracle distance reaches 2 together at t_m; the implied
        # floor eps*sqrt(N)/(2E) = 4 sits well below the actual 2*pi
        rep, t_m, _ = self.make_paper_report(epsilon=2.0)
        assert rep.t_epsilon is not None
        assert abs(rep.t_epsilon - t_m) < 0.15
        assert rep.t_epsilon_second is not None
        assert rep.lower_bound == pytest.approx(4.0, rel=1e-12)
        assert rep.lower_bound_satisfied

    def test_zero_driver_never_crosses_large_threshold(self):
        # per-oracle distance is capped at 4|<w|i>|^2 = 4/N < 3
        n = 8
        grid = uniform_grid(20.0, 400)
        traj = evolve_trajectories(1.0, standard_basis(n), DriverSchedule.zero(n, 20.0), StateVector.uniform(n), grid)
        rep = discrimination_time(traj, 3.0)
        assert rep.t_epsilon is None
        assert rep.t_epsilon_second is None
        assert rep.lower_bound_satisfied is None

    def test_epsilon_range_is_validated(self):
        rep_traj = evolve_trajectories(
            1.0, standard_basis(2), DriverSchedule.zero(2, 1.0), StateVector.uniform(2), uniform_grid(1.0, 4)
        )
        for bad in (0.0, -1.0, 4.5):
            with pytest.raises(ValueError):
                discrimination_time(rep_traj, bad)

    def test_crossing_respects_lower_bound_for_random_drivers(self):
        for seed, n, eps in ((0, 4, 0.5), (1, 8, 1.0), (2, 16, 0.5)):
            rng = np.random.default_rng(seed)
            e = 1.0
            horizon = math.pi * math.sqrt(n)
            driver = DriverSchedule.constant(random_hermitian(n, rng, scale=10.0), horizon)
            grid = uniform_grid(horizon, 800)
            traj = evolve_trajectories(e, standard_basis(n), driver, StateVector.uniform(n), grid)
            rep = discrimination_time(traj, eps)
            if rep.t_epsilon_second is not None:
                dt = grid[1] - grid[0]
                assert rep.t_epsilon_second >= rep.lower_bound - dt
                assert rep.lower_bound_satisfied
