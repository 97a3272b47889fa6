"""Simulation oracle: path mechanics, estimators, distributional tests."""

import dataclasses
import math
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from arphase import (
    AR1Model,
    GainFunction,
    Innovation,
    NegativePart,
    ResidueSystem,
    ValidationError,
    default_max_steps,
    estimate_phi,
    joint_estimate,
    overshoot_expectation,
    overshoot_given_phase,
    simulate_paths,
    validate,
)
from arphase import montecarlo
from arphase.montecarlo import BLOCK_SIZE, PathRecord, ks_critical_value, ks_statistic
from arphase.phasetype import cdf_vector, sample_chains
from arphase.passage import closed_form_exp


class TestSimulateCrossing:
    def test_deterministic_for_seed(self, engine_m2):
        a = simulate_paths(engine_m2.model, 0.0, 1.0, 50, seed=17)
        b = simulate_paths(engine_m2.model, 0.0, 1.0, 50, seed=17)
        c = simulate_paths(engine_m2.model, 0.0, 1.0, 50, seed=18)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a.x_tau, c.x_tau)

    def test_record_consistency(self, engine_m2):
        tau, x_tau, overshoot, phase, censored = simulate_paths(
            engine_m2.model, 0.0, 1.0, 5000, seed=0
        )
        done = ~censored
        assert done.all()
        assert np.array_equal(overshoot[done], x_tau[done] - 1.0)
        assert np.all(overshoot[done] >= 0.0)
        assert np.all((phase[done] >= 1) & (phase[done] <= 2))
        assert np.all(tau[done] >= 1)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_empty_run_rejected(self, engine_m2, n_paths):
        with pytest.raises(ValidationError):
            simulate_paths(engine_m2.model, 0.0, 1.0, n_paths, seed=0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_rejected(self, engine_m2, workers):
        with pytest.raises(ValidationError, match="workers must be at least 1"):
            simulate_paths(engine_m2.model, 0.0, 1.0, 100, seed=0, workers=workers)

    def test_one_step_crossing_frequency(self, engine_m2):
        # P(tau = 1) = alpha e^{Q(b - lam x)} 1 for T = 0
        model = engine_m2.model
        x, b, n = 0.0, 1.0, 100_000
        tau, _, _, _, censored = simulate_paths(model, x, b, n, seed=9)
        p_hat = float(np.mean((tau == 1) & ~censored))
        Q = model.inn.s_part.Q
        p = float(model.inn.s_part.alpha @ expm(Q * (b - model.lam * x))
                  @ np.ones(2))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) < 3 * se


class TestRecordLabels:
    @pytest.mark.parametrize("m, want", [
        (1, np.int8), (127, np.int8), (128, np.int16), (2**15 - 1, np.int16),
        (2**15, np.int32), (2**31, np.int64),
    ])
    def test_smallest_signed_type_that_holds_m(self, m, want):
        assert montecarlo.label_dtype(m) is want

    @pytest.mark.parametrize("m", [127, 128])
    def test_labels_equal_an_int64_record(self, m):
        # A hyperexponential with close rates, so that some paths cross in
        # each phase and the largest label m is written; lambda times a rate
        # lies below every rate.
        rates = 1.0 + np.arange(m) / 500.0
        dist = validate(np.diag(-rates).tolist(), np.full(m, 1.0 / m).tolist())
        model = AR1Model(0.5, 0.5, Innovation(dist, NegativePart.zero()))
        n, seed = 4000, 8
        phase = simulate_paths(model, 0.0, 1.0, n, seed).phase
        assert phase.dtype == montecarlo.label_dtype(m)
        # One block: the same substream, written into int64 labels.
        out = (np.zeros(n, dtype=np.int64), np.zeros(n), np.full(n, -1, dtype=np.int64))
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        montecarlo._simulate_block(model, 0.0, 1.0, rng, default_max_steps(0.5), out)
        assert np.array_equal(phase, out[2])
        assert phase.max() == m and phase.min() >= -1


class TestPathRecord:
    """simulate_paths stores tau, X_tau and the phase label; the overshoot
    and the censored flag are derived when read."""

    def test_five_array_view_of_the_stored_columns(self, engine_m2):
        # Two steps from x = 0 censor about two thirds of the m2 paths.
        b = 1.0
        paths = simulate_paths(engine_m2.model, 0.0, b, 5000, seed=4, max_steps=2)
        tau, x_tau, overshoot, phase, censored = paths
        assert PathRecord.FIELDS == ("tau", "x_tau", "overshoot", "phase", "censored")
        assert tau is paths.tau and x_tau is paths.x_tau and phase is paths.phase
        assert np.array_equal(censored, phase < 0) and 0.1 < censored.mean() < 0.9
        want = np.where(censored, 0.0, x_tau - b)
        assert overshoot.tobytes() == want.tobytes()
        assert paths.overshoot.tobytes() == want.tobytes()
        assert paths.censored.tobytes() == censored.tobytes()

    @pytest.mark.parametrize("m, max_steps, size", [(2, 40, 10), (2, 128, 11), (127, 32767, 11)])
    def test_eleven_bytes_per_path(self, m, max_steps, size):
        # tau takes the smallest signed type that holds max_steps.
        rates = 1.0 + np.arange(m) / 500.0
        dist = validate(np.diag(-rates).tolist(), np.full(m, 1.0 / m).tolist())
        model = AR1Model(0.5, 0.5, Innovation(dist, NegativePart.zero()))
        n = 1000
        paths = simulate_paths(model, 0.0, 1.0, n, seed=2, max_steps=max_steps)
        assert paths.tau.dtype == montecarlo.label_dtype(max_steps) and paths.phase.dtype == np.int8
        assert sum(a.nbytes for a in (paths.tau, paths.x_tau, paths.phase)) == size * n

    def test_sample_chains_phases_take_the_label_type(self, engine_m6):
        dist = engine_m6.model.inn.s_part
        lifetimes, phases = sample_chains(dist, np.random.default_rng(1), 1000, at=np.ones(1000))
        assert phases.dtype == montecarlo.label_dtype(6) == np.int8


class TestKsStatistic:
    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_equals_scipy_kstest(self, dist_hyper2, n):
        # Descending: for n >= 2 not in the order the statistic needs.
        samples = -np.sort(-np.random.default_rng(n).exponential(0.6, n))
        cdf = lambda s: cdf_vector(dist_hyper2, s)  # noqa: E731
        want = stats.kstest(samples, cdf).statistic
        assert abs(ks_statistic(samples.copy(), cdf) - want) <= 1e-15

    def test_slices_equal_the_whole_array_formula(self, dist_hyper2):
        # Three full BLOCK_SIZE slices and a short one, against the CDF and
        # the i/n grid formed over the whole sorted sample at once.
        n = 3 * BLOCK_SIZE + 7
        samples = np.random.default_rng(5).exponential(0.6, n)
        calls = []

        def cdf(s):
            calls.append(s.size)
            return cdf_vector(dist_hyper2, s)

        s = np.sort(samples)
        f = cdf_vector(dist_hyper2, s)
        grid = np.arange(1, n + 1, dtype=float) / n
        want = max((grid - f).max(), (f - (grid - 1.0 / n)).max())
        assert ks_statistic(samples, cdf) == want
        assert calls == [BLOCK_SIZE] * 3 + [7]


class TestCensoring:
    def test_default_horizon_bound(self):
        for rho in (0.3, 0.5, 0.9):
            n = default_max_steps(rho)
            assert rho ** n < 1e-12 <= rho ** (n - 1)

    def test_censored_fraction_negligible(self, engine_m1):
        _, _, _, _, censored = simulate_paths(
            engine_m1.model, 0.0, 1.0, 100_000, seed=2
        )
        assert censored.mean() <= 1e-6

    def test_censored_paths_hold_no_crossing(self, engine_m2):
        # Two steps from x = 0 leave about two thirds of the m2 paths below b.
        model = engine_m2.model
        paths = simulate_paths(model, 0.0, 1.0, 5000, seed=4, max_steps=2)
        tau, x_tau, overshoot, phase, censored = paths
        assert 0.1 < censored.mean() < 0.9
        assert np.all(phase[censored] == -1) and np.all(tau[censored] == 0)
        assert np.all(overshoot[censored] == 0.0) and np.all(x_tau[censored] == 0.0)
        want = montecarlo.phi_estimates(model, paths)
        for i, est in enumerate(want, start=1):
            direct = np.where((phase == i) & ~censored, model.rho ** tau.astype(float), 0.0)
            assert est.mean == direct.mean()
            assert est.censored_fraction == censored.mean()
        # Whatever tau a censored path held, it would not count.
        moved = tau.copy()
        moved[censored] = 2
        assert montecarlo.phi_estimates(model, dataclasses.replace(paths, tau=moved)) == want

    def test_discount_table_equals_a_power_per_path(self, engine_m2):
        tau = np.random.default_rng(3).integers(0, 60, 10_000)
        got = montecarlo.discount(engine_m2.model, tau)
        assert np.array_equal(got, engine_m2.model.rho ** tau.astype(float))


class TestEstimatorIdentity:
    """The estimators equal the np.where route with values.std(ddof=1), bit
    for bit, in mean and standard error."""

    @staticmethod
    def reference(values):
        return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))

    @pytest.mark.parametrize("name", ["m2", "m6"])
    def test_phi_and_joint(self, name, engine_m2, engine_m6):
        model = {"m2": engine_m2, "m6": engine_m6}[name].model
        paths = simulate_paths(model, 0.0, 1.5, 20_000, seed=12, max_steps=3)
        tau, x_tau, _, phase, censored = paths
        assert 0.0 < censored.mean() < 1.0
        disc = model.rho ** tau.astype(float)
        for i, est in enumerate(montecarlo.phi_estimates(model, paths), start=1):
            assert (est.mean, est.stderr) == self.reference(np.where(phase == i, disc, 0.0))
        for gain in (GainFunction.identity(), GainFunction.call(1.7), GainFunction.power(2)):
            est = joint_estimate(model, paths, gain)
            want = self.reference(np.where(censored, 0.0, disc * gain(x_tau)))
            assert (est.mean, est.stderr) == want
            assert est.censored_fraction == censored.mean()


class DrawCounter:
    """A real generator that counts the variates each method draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn = {}

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.drawn[name] = self.drawn.get(name, 0) + np.size(out)
            return out

        return counted


def live_path_steps(model, x, b, n, rng, max_steps):
    """Simulate one block of n paths from rng and count its live path-steps:
    tau for a path that crosses, max_steps for a censored one."""
    out = (np.zeros(n, dtype=np.int64), np.zeros(n), np.full(n, -1, dtype=np.int64))
    montecarlo._simulate_block(model, x, b, rng, max_steps, out)
    tau, phase = out[0], out[2]
    return int(tau.sum() + max_steps * np.sum(phase < 0))


class TestStreamLayout:
    @pytest.mark.parametrize("n_paths, block_size", [(200_000, BLOCK_SIZE), (30_000, 4096), (4096, 4096), (5, 2)])
    def test_equal_blocks_whatever_the_workers(self, engine_m2, monkeypatch, n_paths, block_size):
        # Each block's substream key, first row and size, as the workers see them.
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", block_size)
        seen = []

        def record(model, x0, b, rng, max_steps, out):
            start = (out[0].ctypes.data - out[0].base.ctypes.data) // out[0].itemsize
            seen.append((rng.bit_generator.seed_seq.spawn_key, start, out[0].size))

        monkeypatch.setattr(montecarlo, "_simulate_block", record)
        k = -(-n_paths // block_size)
        want = [((i,), i * n_paths // k, (i + 1) * n_paths // k - i * n_paths // k) for i in range(k)]
        for workers in (1, 2, 8):
            seen.clear()
            simulate_paths(engine_m2.model, 0.0, 1.0, n_paths, seed=3, workers=workers)
            assert sorted(seen) == want
        sizes = [size for _, _, size in seen]
        assert max(sizes) - min(sizes) <= 1 and sum(sizes) == n_paths
        if n_paths == 200_000:
            assert sizes == [50_000] * 4

    def test_no_jump_model_draws_two_variates_per_path_step(self, engine_m2):
        # m2 with T = 0: an initial-phase uniform and a holding per path and
        # step, and no jump uniform, since neither phase can jump.
        rng = DrawCounter(5)
        steps = live_path_steps(engine_m2.model, 0.0, 1.0, 5000, rng, max_steps=40)
        assert steps > 5000
        assert rng.drawn == {"random": steps, "standard_exponential": steps}

    def test_certain_initial_phase_draws_no_uniform(self, engine_m6):
        # The m6 Coxian starts in phase 1 (alpha = e_1) and T ~ Exp(2): one
        # jump uniform per holding and one T per path-step, nothing else.
        rng = DrawCounter(6)
        steps = live_path_steps(engine_m6.model, 0.0, 1.5, 5000, rng, max_steps=40)
        holdings = rng.drawn["standard_exponential"]
        assert holdings > steps
        assert rng.drawn == {"random": holdings, "standard_exponential": holdings, "exponential": steps}


class TestDeterminism:
    def test_worker_count_invariance(self, engine_m2, monkeypatch):
        # 8 blocks of 3,750 paths.
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 4096)
        runs = [
            simulate_paths(engine_m2.model, 0.0, 1.0, 30_000, seed=13, workers=w)
            for w in (1, 2, 8)
        ]
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert np.array_equal(a, b)

    def test_worker_count_invariance_default_blocks(self, engine_m2):
        n = 150_000
        assert n > 2 * BLOCK_SIZE
        one, two = (
            simulate_paths(engine_m2.model, 0.0, 1.0, n, seed=14, workers=w)
            for w in (1, 2)
        )
        for a, b in zip(one, two):
            assert np.array_equal(a, b)

    def test_seed_reproducibility(self, engine_m2):
        a = simulate_paths(engine_m2.model, 0.0, 1.0, 20_000, seed=4)
        b = simulate_paths(engine_m2.model, 0.0, 1.0, 20_000, seed=4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_worker_count_invariance_with_jump_rounds(self, engine_m6, monkeypatch):
        # 5 blocks of 4,000 paths of the m6 Coxian, whose chains jump.
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 4096)
        stored = [
            tuple(column.tobytes() for column in (r.tau, r.x_tau, r.phase))
            for r in (simulate_paths(engine_m6.model, 0.0, 1.5, 20_000, seed=21, workers=w)
                      for w in (1, 2, 3, 8))
        ]
        assert all(other == stored[0] for other in stored[1:])


class Boom(Exception):
    pass


class TestWorkerPool:
    """The calling thread samples blocks beside its helpers, all drawing
    from one block counter."""

    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_a_failing_block_propagates_and_stops_the_hand_out(self, engine_m2, monkeypatch, failing):
        # 5 blocks at two workers: the calling thread and one helper.  The
        # failing thread raises in its first block while the other holds
        # its own for 0.2 s, so blocks 2 to 4 never start.
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 4)
        caller = threading.get_ident()
        started = []

        def block(model, x0, b, rng, max_steps, out):
            started.append(rng.bit_generator.seed_seq.spawn_key[0])
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise Boom
            time.sleep(0.2)

        monkeypatch.setattr(montecarlo, "_simulate_block", block)
        with pytest.raises(Boom):
            simulate_paths(engine_m2.model, 0.0, 1.0, 20, seed=0, workers=2)
        assert started and set(started) <= {0, 1}

    def test_every_block_once_under_frequent_switches(self, engine_m2, monkeypatch):
        # 200 one-path blocks over 8 workers, with thread switches forced
        # often: a block handed out twice, or never, breaks the list.
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 1)
        seen = []

        def block(model, x0, b, rng, max_steps, out):
            seen.append(rng.bit_generator.seed_seq.spawn_key[0])

        monkeypatch.setattr(montecarlo, "_simulate_block", block)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            simulate_paths(engine_m2.model, 0.0, 1.0, 200, seed=0, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == list(range(200))

    def test_helpers_capped_by_the_block_count(self, engine_m2, monkeypatch):
        pools = []

        class StubPool:
            """Records its size and submissions and runs nothing, so the
            calling thread samples every block and no thread starts."""

            def __init__(self, max_workers):
                self.max_workers, self.submitted = max_workers, 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn):
                self.submitted += 1
                done = Future()
                done.set_result(None)
                return done

        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 4096)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", StubPool)
        # 8 blocks: at most 7 helpers, however many workers are asked for.
        got = simulate_paths(engine_m2.model, 0.0, 1.0, 30_000, seed=13, workers=10**6)
        assert [(pool.max_workers, pool.submitted) for pool in pools] == [(7, 7)]
        want = simulate_paths(engine_m2.model, 0.0, 1.0, 30_000, seed=13, workers=1)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # One block: the calling thread alone, and no pool.
        simulate_paths(engine_m2.model, 0.0, 1.0, 4096, seed=13, workers=10**6)
        assert len(pools) == 1


class TestEstimatePhi:
    def test_partition_of_crossing_event(self, engine_m2):
        model = engine_m2.model
        ests = estimate_phi(model, 0.0, 1.0, 100_000, seed=21)
        tau, _, _, phase, censored = simulate_paths(
            model, 0.0, 1.0, 100_000, seed=21
        )
        disc = np.where(censored, 0.0, model.rho ** tau.astype(float))
        assert sum(e.mean for e in ests) == pytest.approx(
            float(disc.mean()), abs=1e-12
        )
        assert np.all((phase[~censored] >= 1) & (phase[~censored] <= 2))

    def test_m1_matches_closed_form(self, engine_m1):
        est = estimate_phi(engine_m1.model, 0.0, 1.0, 1_000_000, seed=42)[0]
        want = closed_form_exp(0.0, 1.0, 1.0, 0.5, 0.5)
        assert abs(est.mean - want) < 3 * est.stderr

    def test_m2_matches_residue_solver(self, engine_m2):
        ct = ResidueSystem(engine_m2, 1.0).solve(0.0)
        ests = estimate_phi(engine_m2.model, 0.0, 1.0, 1_000_000, seed=43)
        for i, est in enumerate(ests):
            assert abs(est.mean - ct.phi_vec[i]) < 3 * est.stderr


class TestOvershootGivenPhase:
    def test_m1_exponential_overshoot(self, engine_m1):
        out, warnings = overshoot_given_phase(
            engine_m1.model, 0.0, 1.0, 40_000, seed=6
        )
        samples, ks, corr = out[1]
        assert samples.size >= 10_000
        assert ks < ks_critical_value(samples.size)
        assert not warnings

    def test_m2_per_phase_distribution(self, engine_m2):
        # Each phase's KS test rejects a correct sampler 1 time in 100: over
        # seeds 0-199 this one was rejected 3 times in 400, with uniform
        # p-values, and seed 3 is one of them (phase 1, p = 0.009).
        out, _ = overshoot_given_phase(
            engine_m2.model, 0.0, 1.0, 120_000, seed=4
        )
        for i in (1, 2):
            samples, ks, corr = out[i]
            assert ks < ks_critical_value(samples.size)
            assert abs(corr) < 3.0 / math.sqrt(samples.size)

    def test_negative_threshold_gives_nan_statistics(self, engine_m2):
        # At b = -0.5 a start in [b/lambda, b) crosses whatever S is, so the
        # overshoot given the phase is not PH(Q, e_i): no KS statistic, as
        # simulate's overshoot_ks rows; the samples are still returned.
        out, _ = overshoot_given_phase(engine_m2.model, -3.0, -0.5, 20_000, seed=5)
        for i in (1, 2):
            samples, ks, corr = out[i]
            assert samples.size > 1000 and np.all(samples >= 0.0)
            assert math.isnan(ks) and math.isfinite(corr)

    def test_insufficient_sample_warning(self, engine_m2):
        _, warnings = overshoot_given_phase(
            engine_m2.model, 0.0, 1.0, 500, seed=1
        )
        assert warnings


class TestEstimateJoint:
    def test_constant_gain_equals_phi_total(self, engine_m2):
        model = engine_m2.model
        paths = simulate_paths(model, 0.0, 1.0, 50_000, seed=30)
        est = joint_estimate(model, paths, GainFunction.power(0))
        phis = estimate_phi(model, 0.0, 1.0, 50_000, seed=30)
        assert est.mean == pytest.approx(sum(e.mean for e in phis), abs=1e-12)

    def test_identity_gain_at_optimal_threshold(self, engine_m1):
        from arphase import solve_threshold_exp_identity

        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        want = (sol.b_star + 1.0) * closed_form_exp(
            0.0, sol.b_star, 1.0, 0.5, 0.5
        )
        model = engine_m1.model
        paths = simulate_paths(model, 0.0, sol.b_star, 1_000_000, seed=61)
        est = joint_estimate(model, paths, GainFunction.identity())
        assert abs(est.mean - want) < 3 * est.stderr

    def test_factorization(self, engine_m2):
        # joint_estimate vs sum_i estimate_phi_i * E(g(b + R^i))
        model = engine_m2.model
        gain = GainFunction.identity()
        est = joint_estimate(model, simulate_paths(model, 0.0, 1.0, 400_000, seed=70), gain)
        phis = estimate_phi(model, 0.0, 1.0, 400_000, seed=71)
        overshoot = overshoot_expectation(model.inn.s_part, 1.0, gain)
        assembled = sum(phis[i].mean * overshoot[i] for i in range(2))
        band = 3.0 * math.sqrt(
            est.stderr ** 2 + sum((phis[i].stderr * overshoot[i]) ** 2 for i in range(2))
        )
        assert abs(est.mean - assembled) < band
