import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qsearch import (
    HermitianOperator,
    StateVector,
    inner_product,
    overlap_statistics,
    random_state,
)
import qsearch.statistics
from qsearch.statistics import _CHUNK, _sample_x2

from conftest import haar_state


class TestRandomState:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 64):
            assert abs(random_state(n, rng).norm() - 1.0) < 1e-12

    def test_dimension_one_is_a_pure_phase(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = random_state(1, rng)
            w = random_state(1, rng)
            assert abs(s.amps[0]) == pytest.approx(1.0, abs=1e-12)
            assert abs(inner_product(s, w)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_reproduces_bytes(self):
        a = random_state(16, np.random.default_rng(42))
        b = random_state(16, np.random.default_rng(42))
        assert np.array_equal(a.amps, b.amps)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            random_state(0, np.random.default_rng(0))

    def test_dimension_two_mean_overlap(self):
        # in dimension 2 the overlap-squared is uniform on [0, 1]: mean 1/2
        rng = np.random.default_rng(7)
        m = 100_000
        x2 = np.empty(m)
        for i in range(m):
            x2[i] = abs(inner_product(random_state(2, rng), random_state(2, rng))) ** 2
        stderr = x2.std(ddof=1) / math.sqrt(m)
        assert abs(x2.mean() - 0.5) <= 3.0 * stderr


class TestOverlapStatistics:
    def test_dimension_one_is_exact(self):
        s = overlap_statistics(1, 1000, seed=5)
        assert s.mean_x2 == 1.0
        assert s.stderr_x2 == 0.0
        assert s.mean_x == 1.0

    def test_sixteen_dimensional_mean(self):
        s = overlap_statistics(16, 100_000, seed=11)
        assert abs(s.mean_x2 - 1.0 / 16.0) <= 4.0 * s.stderr_x2

    def test_large_dimension_mean_and_scale(self):
        s = overlap_statistics(1024, 20_000, seed=13)
        assert abs(s.mean_x2 - 1.0 / 1024.0) <= 4.0 * s.stderr_x2
        # E[x] is only pinned to the 1/sqrt(N) scale, not an exact value
        scale = 1.0 / math.sqrt(1024.0)
        assert scale / 2.0 <= s.mean_x <= 2.0 * scale

    def test_determinism(self):
        a = overlap_statistics(64, 5000, seed=21)
        b = overlap_statistics(64, 5000, seed=21)
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            overlap_statistics(0, 1000, seed=0)
        with pytest.raises(ValueError):
            overlap_statistics(4, 99, seed=0)


def _sfc64(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(seed))


def _ks_statistic(x: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between the sample x and a continuous cdf."""
    f = cdf(np.sort(x))
    m = len(x)
    return float(max((np.arange(1, m + 1) / m - f).max(), (f - np.arange(m) / m).max()))


class TestPolarSampler:
    @pytest.mark.parametrize("n", [2, 16, 1024])
    def test_each_sample_is_the_overlap_of_two_drawn_vectors(self, n):
        # Rebuild s and w in complex128 from the same raw words, chunk by chunk,
        # with plain 64-bit shifts: both vectors are drawn, coordinate by coordinate.
        m = 300
        x2 = _sample_x2(n, m, _sfc64(n))
        bits = _sfc64(n).bit_generator
        mask = np.uint64((1 << 24) - 1)
        expected = []
        per_chunk = max(1, _CHUNK // n)
        while len(expected) < m:
            c = min(per_chunk, m - len(expected))
            words = bits.random_raw(2 * c * n).reshape(2, c, n)
            modulus = np.sqrt(-np.log(((words >> np.uint64(40)) + 1.0) * 2.0**-24))
            phase = 2.0 * np.pi * ((words >> np.uint64(8)) & mask) * 2.0**-24
            s, w = modulus * np.exp(1j * phase)
            for si, wi in zip(s, w):
                expected.append(abs(np.vdot(si, wi)) ** 2 / (np.vdot(si, si).real * np.vdot(wi, wi).real))
        np.testing.assert_allclose(x2, expected, rtol=1e-5, atol=0.0)

    def test_dimension_two_is_uniform(self):
        m = 100_000
        x2 = _sample_x2(2, m, _sfc64(2))
        assert _ks_statistic(x2, lambda x: x) < 1.63 / math.sqrt(m)

    def test_dimension_sixteen_follows_its_beta_law(self):
        # x^2 ~ Beta(1, N - 1): P(x^2 <= x) = 1 - (1 - x)^(N - 1)
        m = 100_000
        x2 = _sample_x2(16, m, _sfc64(16))
        assert _ks_statistic(x2, lambda x: 1.0 - (1.0 - x) ** 15) < 1.63 / math.sqrt(m)

    def test_mean_and_variance_over_seeds(self):
        n, m = 64, 20_000
        x2 = np.stack([_sample_x2(n, m, _sfc64(seed)) for seed in range(640, 660)])
        z = (x2.mean(axis=1) - 1.0 / n) / (x2.std(axis=1, ddof=1) / math.sqrt(m))
        assert abs(z.mean()) <= 4.0 / math.sqrt(len(z))
        beta_var = (n - 1) / (n**2 * (n + 1))
        assert abs(x2.var(ddof=1) / beta_var - 1.0) <= 0.1

    def test_memory_stays_within_a_few_chunks(self):
        tracemalloc.start()
        try:
            overlap_statistics(1024, 20_000, seed=13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20


class TestWorkers:
    # Each case ends on a ragged chunk, but n = _CHUNK + 1, where a chunk is one sample.
    @pytest.mark.parametrize("n, m", [(2, 100_003), (16, 10_001), (1024, 1_000), (_CHUNK + 1, 7)])
    def test_any_worker_count_draws_the_same_samples(self, n, m, monkeypatch):
        # three workers on fewer cores, switching threads every microsecond
        interval = sys.getswitchinterval()
        samples = []
        try:
            sys.setswitchinterval(1e-6)
            for workers in (1, 2, 3):
                monkeypatch.setattr(qsearch.statistics, "_worker_count", lambda n, m, w=workers: w)
                samples.append(_sample_x2(n, m, _sfc64(n)))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(samples[0], samples[1])
        assert np.array_equal(samples[0], samples[2])

    def test_worker_count_is_capped_by_cpus_chunks_and_two(self, monkeypatch):
        monkeypatch.setattr(qsearch.statistics.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        # one, two and three chunks: 64 samples a chunk at n = 1024
        assert [qsearch.statistics._worker_count(1024, m) for m in (64, 65, 129)] == [1, 2, 2]
        assert qsearch.statistics._worker_count(_CHUNK + 1, 2) == 2
        monkeypatch.setattr(qsearch.statistics.os, "sched_getaffinity", lambda pid: {3})
        assert qsearch.statistics._worker_count(1024, 20_000) == 1
        monkeypatch.delattr(qsearch.statistics.os, "sched_getaffinity")  # as off Linux
        monkeypatch.setattr(qsearch.statistics.os, "cpu_count", lambda: None)
        assert qsearch.statistics._worker_count(1024, 20_000) == 1

    def test_a_failing_chunk_stops_the_workers_and_is_raised(self, monkeypatch):
        # 100 chunks on two workers: the second one to start raises
        chunk_x2 = qsearch.statistics._chunk_x2
        lock = threading.Lock()
        calls = []

        def failing(raw, out, scratch):
            with lock:
                calls.append(len(out))
                if len(calls) == 2:
                    raise RuntimeError("chunk two")
            chunk_x2(raw, out, scratch)

        monkeypatch.setattr(qsearch.statistics, "_chunk_x2", failing)
        monkeypatch.setattr(qsearch.statistics, "_worker_count", lambda n, m: 2)
        with pytest.raises(RuntimeError, match="chunk two"):
            overlap_statistics(1024, 6400, seed=1)
        assert len(calls) < 100


class TestUnitaryInvariance:
    def test_rotating_both_members_changes_nothing(self):
        # |<Us|Uw>| = |<s|w>| pair by pair, up to rounding
        rng = np.random.default_rng(31)
        u = StateVector(haar_state(8, rng).amps)
        refl = HermitianOperator(np.eye(8) - 2.0 * np.outer(u.amps, u.amps.conj()))
        for _ in range(50):
            s = haar_state(8, rng)
            w = haar_state(8, rng)
            x = abs(inner_product(s, w))
            x_rot = abs(
                np.vdot(refl.mat @ s.amps, refl.mat @ w.amps)
            )
            assert abs(x - x_rot) < 1e-12

    def test_rotating_one_member_keeps_the_statistics(self):
        # Haar invariance: x^2 under (s, Uw) has the same law as under (s, w)
        rng_a = np.random.default_rng(100)
        rng_b = np.random.default_rng(200)
        n, m = 8, 40_000
        u = haar_state(n, np.random.default_rng(300))
        refl = np.eye(n) - 2.0 * np.outer(u.amps, u.amps.conj())

        def mean_x2(rng, rotate):
            vals = np.empty(m)
            for i in range(m):
                s = haar_state(n, rng)
                w = haar_state(n, rng)
                wv = refl @ w.amps if rotate else w.amps
                vals[i] = abs(np.vdot(s.amps, wv)) ** 2
            return vals.mean(), vals.std(ddof=1) / math.sqrt(m)

        plain, se_a = mean_x2(rng_a, rotate=False)
        rotated, se_b = mean_x2(rng_b, rotate=True)
        assert abs(plain - rotated) <= 4.0 * math.hypot(se_a, se_b)
