import math
import tracemalloc

import numpy as np
import pytest
import qsearch.bound
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsearch import (
    DriverSchedule,
    HermitianOperator,
    RankOneHamiltonian,
    StateVector,
    TwoLevelSystem,
    discrimination_time,
    divergence_profile,
    evolve_trajectories,
    reduced_basis,
    sum_oracle_hamiltonians,
)

from qsearch.analog import evolve_closed_form
from qsearch.bound import (
    GAUSS_RULES,
    ORACLE_BATCH_ELEMENTS,
    UNIFORM_ULPS,
    _gauss_nodes,
    _node_rule,
    _offset_table,
    _propagate_schedule,
    _random_hermitian,
    _segment_times,
    build_driver,
    oracle_trajectory,
)
from qsearch.linalg import _cis, _phase_table

from conftest import haar_state, random_hermitian


def standard_basis(n):
    return [StateVector.basis_state(n, i) for i in range(n)]


def paper_driver(n, e, horizon):
    return DriverSchedule.rank_one(RankOneHamiltonian(e, StateVector.uniform(n)), horizon)


def uniform_grid(horizon, steps):
    return np.linspace(0.0, horizon, steps + 1)


def assert_distances_match_dense(traj, e, driver, s, grid, oracles):
    """``traj.distance[w]`` for each w of ``oracles`` within 1e-12 of the
    squared distance between that oracle's dense block (``oracle_trajectory``)
    and the driver-only reference, both propagated from s over the grid."""
    reference = _propagate_schedule(
        [(dur, *np.linalg.eigh(op.mat)) for dur, op in driver.segments], s.amps, grid
    )
    for w in oracles:
        block = oracle_trajectory(e, StateVector.basis_state(s.dim, w).amps, driver, s.amps, grid)
        distance = np.sum(np.abs(block - reference) ** 2, axis=1)
        assert np.max(np.abs(traj.distance[w] - distance)) <= 1e-12


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
        with pytest.raises(ValueError, match="orthonormality check"):
            sum_oracle_hamiltonians(1.0, [s, s])

    def test_rejects_incomplete_set(self):
        with pytest.raises(ValueError, match="need a full basis"):
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
        with pytest.raises(ValueError, match="beyond the schedule horizon"):
            evolve_trajectories(
                1.0, standard_basis(n), DriverSchedule.zero(n, 1.0),
                StateVector.uniform(n), uniform_grid(2.0, 10),
            )

    def test_grid_end_within_rounding_of_a_long_horizon_is_accepted(self):
        # ten durations h / 10 sum to 1.5e-8 below h, more than an absolute 1e-9 slack
        n, h = 2, 125663706.14359173
        driver = DriverSchedule.piecewise([HermitianOperator.zero(n)] * 10, [h / 10] * 10)
        assert h - driver.horizon == pytest.approx(1.5e-8, rel=0.01)
        grid = np.linspace(0.0, h, 101)
        traj = evolve_trajectories(1.0, standard_basis(n), driver, StateVector.uniform(n), grid)
        assert traj.grid[-1] == h

    @pytest.mark.parametrize("e", [math.nan, math.inf, -1.0, 0.0])
    def test_oracle_scale_must_be_finite_and_positive(self, e, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called before the oracle scale was checked")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        n = 4
        driver, grid = DriverSchedule.zero(n, 1.0), uniform_grid(1.0, 4)
        with pytest.raises(ValueError, match="oracle scale"):
            evolve_trajectories(e, standard_basis(n), driver, StateVector.uniform(n), grid)

    @pytest.mark.parametrize("kind", ["permuted", "rotated", "negated"])
    def test_only_the_standard_basis_in_order_is_accepted(self, kind, monkeypatch):
        n = 4
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        basis = {
            "permuted": [standard_basis(n)[i] for i in (1, 0, 2, 3)],
            "rotated": [StateVector(q[:, i]) for i in range(n)],
            "negated": [StateVector(-standard_basis(n)[0].amps)] + standard_basis(n)[1:],
        }[kind]

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called before the oracle basis was checked")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        driver, grid = DriverSchedule.zero(n, 1.0), uniform_grid(1.0, 4)
        with pytest.raises(ValueError, match="standard basis"):
            evolve_trajectories(1.0, basis, driver, StateVector.uniform(n), grid)

    def test_grid_must_start_at_zero_and_increase(self):
        n = 3
        sched = DriverSchedule.zero(n, 5.0)
        with pytest.raises(ValueError):
            evolve_trajectories(1.0, standard_basis(n), sched, StateVector.uniform(n), np.array([0.1, 0.2]))
        # every other point 1e-9 late: a phase error of 1e-9 |lam| were it taken as even
        jittered = np.linspace(0.0, 1.0, 1001)
        jittered[1::2] += 1e-9
        for grid in ([0.0, 0.2, 0.2], [0.0, 0.0, 0.0], [0.0, -1.0], [0.0, np.nan, 2.0],
                     np.linspace(0.0, 1.0, 1000) ** 2, jittered,
                     np.linspace(0.0, 1600 * 5e-324, 1001)):  # a subnormal step: the end falls back
            with pytest.raises(ValueError, match="even steps"):
                evolve_trajectories(1.0, standard_basis(n), sched, StateVector.uniform(n), np.array(grid))

    @given(points=st.integers(2, 5000), end=st.floats(5e-324, 1e300))
    @example(points=791, end=7.9e-308)  # bound --dt 1e-310 --horizon 7.9e-308: 790 dt is 24 ulps short
    @settings(max_examples=100, derandomize=True)
    def test_every_increasing_linspace_grid_is_accepted(self, points, end):
        # as every one with a normal step is; a subnormal step can end (M - 1) dt many ulps off
        grid = np.linspace(0.0, end, points)
        assume(np.all(np.diff(grid) > 0.0))
        traj = evolve_trajectories(1.0, standard_basis(1), DriverSchedule.zero(1, end),
                                   StateVector.uniform(1), grid)
        assert traj.distance.shape == (1, points)

    def test_initial_grid_point_is_bit_exact(self):
        n = 4
        s = StateVector.uniform(n)
        driver, grid = DriverSchedule.zero(n, 1.0), uniform_grid(1.0, 5)
        traj = evolve_trajectories(1.0, standard_basis(n), driver, s, grid)
        assert np.array_equal(traj.distance[:, 0], np.zeros(n))
        starts = [oracle_trajectory(1.0, w.amps, driver, s.amps, grid)[0] for w in standard_basis(n)]
        assert np.array_equal(np.array(starts), np.broadcast_to(s.amps, (n, n)))

    def test_peak_memory_stays_below_a_quarter_of_the_full_states(self):
        # N full (M, N) blocks would take 16 N^2 M bytes (62.5 MiB at M = 1001);
        # per grid point, the N distances and a batch's running integrals
        # (measured: 9.6 N bytes from 1001 to 4001 points; 56 N when each oracle's
        # states and phase table were built at every point)
        n = 64
        driver = build_driver("random-dense", n, 1.0, 1.0, 10.0, np.random.default_rng(0))
        basis, s = standard_basis(n), StateVector.uniform(n)

        def peak(m):
            tracemalloc.start()
            try:
                evolve_trajectories(1.0, basis, driver, s, np.linspace(0.0, 10.0, m))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1001), peak(4001)
        assert small < 16 * n * n * 1001 / 4
        assert (large - small) / 3000 <= 11.25 * n


class TestRankOneUpdatePath:
    """evolve_trajectories finds each oracle's eigensystem as a rank-one update
    of the driver's; oracle_trajectory is the dense per-oracle reference."""

    @pytest.mark.parametrize("n", [2, 16, 64])
    @pytest.mark.parametrize("family", ["paper", "zero", "random-dense", "piecewise"])
    def test_matches_dense_per_oracle_eigh(self, family, n):
        e, horizon = 1.0, math.pi * math.sqrt(n)
        driver = build_driver(family, n, e, 1.0, horizon, np.random.default_rng(n), segments=10)
        s, grid = StateVector.uniform(n), uniform_grid(horizon, 200)
        traj = evolve_trajectories(e, standard_basis(n), driver, s, grid)
        assert_distances_match_dense(traj, e, driver, s, grid, range(n))

    @pytest.mark.parametrize("family, calls", [("random-dense", 1), ("piecewise", 10)])
    def test_one_eigh_per_driver_segment(self, family, calls, monkeypatch):
        n = 8
        driver = build_driver(family, n, 1.0, 1.0, 5.0, np.random.default_rng(0), segments=10)
        count = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            count.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        evolve_trajectories(1.0, standard_basis(n), driver, StateVector.uniform(n), uniform_grid(5.0, 50))
        assert len(count) == calls

    def test_a_grid_ending_before_the_horizon_walks_every_segment(self, monkeypatch):
        # the grid ends inside the fourth of ten segments: that segment's whole steps are
        # integrated up to the grid's last point, where its states check the integral;
        # the six segments past it hold no grid point, yet each is still eigendecomposed
        # and hands its states on
        n, e = 16, 1.0
        driver = build_driver("piecewise", n, e, 1.0, 10.0, np.random.default_rng(2), segments=10)
        s, grid = StateVector.uniform(n), np.linspace(0.0, 3.5, 71)
        count = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            count.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        traj = evolve_trajectories(e, standard_basis(n), driver, s, grid)
        assert len(count) == 10
        monkeypatch.undo()
        assert_distances_match_dense(traj, e, driver, s, grid, range(n))

    def test_piecewise_segments_of_few_grid_points(self):
        # segment ends fall half-way between points 0.1 apart: segments of 0, 1, 2, 31
        # (one short of a phase block) and 33 (one past) grid points
        n, e = 6, 1.0
        durations = [0.05, 0.1, 0.2, 3.1, 3.3]
        grid = np.linspace(0.0, 6.7, 68)
        assert [hi - lo for lo, hi, _ in _segment_times(durations, grid)] == [0, 1, 2, 31, 33]
        rng = np.random.default_rng(11)
        driver = DriverSchedule.piecewise([random_hermitian(n, rng) for _ in durations], durations)
        s = StateVector.uniform(n)
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # as the CLI runs it
            traj = evolve_trajectories(e, standard_basis(n), driver, s, grid)
        assert_distances_match_dense(traj, e, driver, s, grid, range(n))


    @pytest.mark.parametrize("mults", [(100.0,) * 10, (100.0, 1.0)])
    @pytest.mark.parametrize("n", [32, 64])
    def test_strong_drivers_on_a_coarse_grid(self, n, mults):
        # spectral norm 100 E on 104 points: omega dt is about 35, so each whole step
        # takes two parts of the 16-node rule; segment ends fall inside steps. Beside a
        # driver of norm E, whose steps take one rule, the hand-off joins the two. At
        # N = 64 the 32 nodes a step are integrated; at N = 32, past N / 2 nodes, the
        # distances are read off the states. Every (N / 32)-th oracle is checked.
        e, horizon = 1.0, math.pi * math.sqrt(32)
        rng = np.random.default_rng(3)
        ops = [_random_hermitian(n, mult * e, rng) for mult in mults]
        driver = DriverSchedule.piecewise(ops, [horizon / len(ops)] * len(ops))
        s, grid = StateVector.uniform(n), uniform_grid(horizon, 103)
        dt = grid[1]
        rules = [_node_rule((np.ptp(np.linalg.eigvalsh(op.mat)) + e) * dt) for op in ops]
        assert (16, 2.0) in rules and (mults[-1] == 100.0 or rules[-1][1] == 1.0)
        assert (2 * 16 * 2 <= n) == (n == 64)
        for _, _, times in list(_segment_times([dur for dur, _ in driver.segments], grid))[:-1]:
            assert 0.0 < times[-1] - times[-2] < dt  # the segment's end splits a step
        traj = evolve_trajectories(e, standard_basis(n), driver, s, grid)
        assert_distances_match_dense(traj, e, driver, s, grid, range(0, n, n // 32))

    def test_steps_past_half_n_nodes_read_the_states(self):
        # omega dt above 20.2 at N = 16 takes at least 32 nodes a step, past N / 2: the
        # first segment's distances come from its states; the second is weak enough
        # for the 4-node rule and is integrated from the states at its first grid point,
        # built from the first segment's hand-off
        n, e = 16, 1.0
        rng = np.random.default_rng(8)
        ops = [_random_hermitian(n, 100.0, rng), _random_hermitian(n, 0.01, rng)]
        driver = DriverSchedule.piecewise(ops, [1.0, 1.0])
        s, grid = StateVector.uniform(n), uniform_grid(2.0, 9)
        rules = [_node_rule((np.ptp(np.linalg.eigvalsh(op.mat)) + e) * grid[1]) for op in ops]
        assert [2 * p * parts <= n for p, parts in rules] == [False, True]
        traj = evolve_trajectories(e, standard_basis(n), driver, s, grid)
        assert_distances_match_dense(traj, e, driver, s, grid, range(n))

    @pytest.mark.parametrize("family", ["random-dense", "piecewise"])
    def test_runs_of_whole_steps_under_a_small_table_budget(self, family, monkeypatch):
        # 1024 table entries at N = 16: batches of 4 oracles, heads every 4 steps and
        # runs of 64 steps, so the 199 whole steps of one segment, or the 65 or 66 of
        # each of three, end in a short run whose last block is cut
        monkeypatch.setattr(qsearch.bound, "ORACLE_BATCH_ELEMENTS", 1024)
        n, e = 16, 1.0
        horizon = math.pi * math.sqrt(n)
        driver = build_driver(family, n, e, 1.0, horizon, np.random.default_rng(4), segments=3)
        s, grid = StateVector.uniform(n), uniform_grid(horizon, 200)
        counts = [max(hi - lo - 1, 0) for lo, hi, _ in _segment_times([d for d, _ in driver.segments], grid)]
        assert all(count % 4 for count in counts) and min(counts) > 64
        assert all(2 * _node_rule((np.ptp(np.linalg.eigvalsh(op.mat)) + e) * grid[1])[0] <= n
                   for _, op in driver.segments)
        traj = evolve_trajectories(e, standard_basis(n), driver, s, grid)
        assert_distances_match_dense(traj, e, driver, s, grid, range(n))


class TestKernelAtBenchmarkSize:
    """The per-oracle kernel at the N and grid the benchmark runs (1001 points
    to 2 t_m), where the steps between grid points are integrated from tables
    at heads and offsets: oracle 0 and one other against the dense per-oracle
    eigh."""

    @pytest.mark.parametrize("n, family, other", [(128, "random-dense", 77), (64, "piecewise", 41)])
    def test_matches_dense_per_oracle_eigh(self, n, family, other):
        e, horizon = 1.0, math.pi * math.sqrt(n)
        driver = build_driver(family, n, e, 1.0, horizon, np.random.default_rng(5), segments=10)
        s, grid = StateVector.uniform(n), uniform_grid(horizon, 1000)
        traj = evolve_trajectories(e, standard_basis(n), driver, s, grid)
        assert_distances_match_dense(traj, e, driver, s, grid, (0, other))


class TestOneOracleBatches:
    """From N = 182 on, ORACLE_BATCH_ELEMENTS // N^2 is at most 1, so each batch
    holds one oracle: its rank-one vector, entry state and hand-off state are
    single rows, and its products 1 x N by N x N."""

    def test_matches_dense_per_oracle_eigh_within_a_bounded_peak(self):
        n, e = 256, 1.0
        assert ORACLE_BATCH_ELEMENTS // (n * n) == 1
        horizon = math.pi * math.sqrt(n)
        driver = build_driver("piecewise", n, e, 1.0, horizon, np.random.default_rng(5), segments=2)
        basis, s, grid = standard_basis(n), StateVector.uniform(n), uniform_grid(horizon, 64)
        tracemalloc.start()
        try:
            traj = evolve_trajectories(e, basis, driver, s, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the driver's eigensystem, the hand-off states and one oracle's temporaries
        # (measured: 6.2 N x N complex arrays); an N x N copy of the basis, of the
        # rank-one vectors or of the entry states per segment takes 9.2
        assert peak <= 7 * 16 * n * n
        assert_distances_match_dense(traj, e, driver, s, grid, (0, 1, n - 1))


def segment_points(points, durations):
    """The grid step and each segment's grid points, as times from its entry,
    of a grid of ``points`` over the durations, as the kernel sees them."""
    grid = np.linspace(0.0, sum(durations), points)
    return grid[-1] / (points - 1), [times[:-1] for _, _, times in _segment_times(durations, grid)]


class TestSegmentPhases:
    """The factored tables of the integration nodes against the direct cos/sin
    table. A node x_l of the step b after head t_a is at t_a + (b + x_l) dt,
    the product of three phases, where the direct table takes the grid's own
    point t_{a+b} + x_l dt: per entry of unit-size c they may differ by 6
    roundings, by the rounding of the times, 3 ulps of the grid's end, and by
    the phase of twice UNIFORM_ULPS ulps of it, which a head and a later point
    may each leave the even spacing by."""

    @staticmethod
    def spectrum(n):
        rng = np.random.default_rng(n)
        lam = np.sort(rng.uniform(-2.0, 2.0, n))
        c = np.exp(2j * np.pi * rng.random(n)) / math.sqrt(n)
        return lam, c

    def assert_factored_matches_direct(self, points, dt, end, lam, c):
        nodes, _ = _gauss_nodes(6, 2)
        block, width = 5, nodes.shape[0]
        count = points.shape[0] - 1
        heads = points[:count:block]
        eps = np.finfo(np.float64).eps
        tol = 6 * eps + (2 * UNIFORM_ULPS + 3) * np.spacing(end) * np.max(np.abs(lam))
        # one spectrum and a stack of two, the second the first reversed
        for lam_, c_ in ((lam, c), (np.stack((lam, lam[::-1])), np.stack((c, c[::-1])))):
            table = (_cis(lam_[..., None, :], heads[:, None]) * c_[..., None, :]) @ _offset_table(lam_, dt, block, nodes)
            table = table.reshape(lam_.shape[:-1] + (-1, width))[..., :count, :]
            at = points[:count, None] + nodes * dt
            direct = np.einsum("...i,...ijl->...jl", c_, _cis(lam_[..., :, None, None], at))
            assert table.shape == direct.shape
            assert np.max(np.abs(table - direct)) <= tol

    @pytest.mark.parametrize("count", [1001, 1000, 135])
    def test_one_segment_of_any_length(self, count):
        lam, c = self.spectrum(16)
        dt, (points,) = segment_points(count, [4.0 * math.pi])
        assert (points.shape[0] - 1) % 5 != 0
        self.assert_factored_matches_direct(points, dt, 4.0 * math.pi, lam, c)

    def test_segments_that_start_away_from_zero(self):
        # three segments whose entries fall between grid points
        lam, c = self.spectrum(12)
        dt, segments = segment_points(1001, [3.3, 7.1, 2.9])
        for points in segments[1:]:
            assert points[0] > 0.0
            self.assert_factored_matches_direct(points, dt, 13.3, lam, c)

    def test_segment_end_column_is_the_direct_column_bit_for_bit(self):
        # the state handed to the next segment comes from its exact end time
        lam, c = self.spectrum(16)
        grid = np.linspace(0.0, 13.3, 1001)
        for _, _, times in _segment_times([3.3, 7.1, 2.9], grid):
            assert np.array_equal(_phase_table(lam, times[-1:], c), _phase_table(lam, times, c)[:, -1:])


class TestNodeRule:
    """``GAUSS_RULES`` at its edges: each rule integrates exp(i omega t) over a
    step [0, h] to within 1e-13 h up to its omega h, and a step past the last
    is cut into parts that each stay within it."""

    @staticmethod
    def error(omega_h, nodes, weights):
        exact = (np.exp(1j * omega_h) - 1.0) / (1j * omega_h)  # the mean of exp(i omega_h x) on [0, 1]
        return abs(np.sum(weights * np.exp(1j * omega_h * nodes)) - exact)

    @pytest.mark.parametrize("p, reach", GAUSS_RULES)
    def test_each_rule_holds_1e_13_up_to_its_reach(self, p, reach):
        assert _node_rule(reach) == (p, 1.0)
        nodes, weights = _gauss_nodes(p, 1)
        assert nodes.shape == (p,) and np.all((nodes > 0.0) & (nodes < 1.0))
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)
        assert max(self.error(x, nodes, weights) for x in np.linspace(reach / 100, reach, 200)) <= 1e-13

    def test_the_next_rule_takes_over_just_past_a_reach(self):
        for (_, reach), (p_next, _) in zip(GAUSS_RULES, GAUSS_RULES[1:]):
            assert _node_rule(reach * (1 + 1e-12)) == (p_next, 1.0)

    def test_a_step_just_past_the_last_reach_is_split(self):
        p, reach = GAUSS_RULES[-1]
        assert _node_rule(reach * (1 + 1e-12)) == (p, 2.0)
        assert _node_rule(2 * reach) == (p, 2.0) and _node_rule(2 * reach * (1 + 1e-12)) == (p, 3.0)
        assert _node_rule(math.inf) == (p, math.inf)
        for parts in (2, 3):
            nodes, weights = _gauss_nodes(p, parts)
            assert np.all(np.diff(nodes) > 0.0) and math.fsum(weights) == pytest.approx(1.0, abs=1e-15)
            assert self.error(parts * reach, nodes, weights) <= 1e-13


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
        # exact dD/dt = sum_w 2E Im(conj(<w|psi_w>) <w|psi>), from the dense
        # per-oracle blocks, against the library's finite differences of D(t)
        rng = np.random.default_rng(11)
        n, e = 6, 1.0
        grid = uniform_grid(3.0, 600)
        driver = DriverSchedule.constant(random_hermitian(n, rng, scale=2.0), 3.0)
        s = StateVector.uniform(n)
        traj = evolve_trajectories(e, standard_basis(n), driver, s, grid)
        rep = divergence_profile(traj)
        reference = _propagate_schedule(
            [(dur, *np.linalg.eigh(op.mat)) for dur, op in driver.segments], s.amps, grid
        )
        total_rate = np.zeros(grid.shape[0])
        for w, wvec in enumerate(standard_basis(n)):
            block = oracle_trajectory(e, wvec.amps, driver, s.amps, grid)
            total_rate += 2.0 * e * (np.conj(block[:, w]) * reference[:, w]).imag
        mid = 0.5 * (total_rate[2:] + total_rate[:-2])
        assert np.max(np.abs(rep.derivative_estimates - mid)) < 2e-2  # O(dt^2) agreement


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

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_random_driver_is_the_symmetrized_gaussian_bit_for_bit(self, seed):
        n, norm = 48, 2.5
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2.0
        expected = h * (norm / float(np.max(np.abs(np.linalg.eigvalsh(h)))))
        assert np.array_equal(_random_hermitian(n, norm, np.random.default_rng(seed)).mat, expected)

    def test_random_driver_peak_memory(self):
        # the N x N complex driver, the operator's copy and its Hermiticity check
        n = 512
        _random_hermitian(8, 1.0, np.random.default_rng(5))  # numpy's one-time set-up stays out
        tracemalloc.start()
        try:
            _random_hermitian(n, 1.0, np.random.default_rng(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * 16 * n * n

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
