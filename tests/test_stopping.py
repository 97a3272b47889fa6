"""Optimal stopping: continuous fit, threshold root, verification."""

from dataclasses import replace

import numpy as np
import pytest
from mpref import f_of_b
from scipy import optimize

from arphase import (
    ArphaseError,
    GainFunction,
    ResidueSystem,
    SingularSystemError,
    TransformEngine,
    fixed_threshold,
    joint_estimate,
    psi_of,
    simulate_paths,
    solve_threshold,
    solve_threshold_exp_identity,
    solve_threshold_general,
    threshold_value,
    ValidationError,
    verify_solution,
)
from arphase import passage, stopping
from arphase.passage import _qexp_series, closed_form_exp
from arphase.quadrature import innovation_expectation
from arphase.stopping import maximize_psi

# Root of the scalar continuous-fit equation for mu=1, rho=lam=1/2,
# found by bracketed bisection on the series form and frozen here.
B_STAR_REF = 0.6962231671778065


class TestPsiOf:
    def test_constant_gain_is_laplace_tau(self, engine_m2):
        b, x = 1.0, 0.2
        system = ResidueSystem(engine_m2, b)
        got = psi_of(x, system, GainFunction.power(0))
        assert got == pytest.approx(system.solve(x).total(), abs=1e-12)

    def test_exponential_identity_formula(self, engine_m1):
        x, b = 0.1, 0.8
        got = psi_of(x, ResidueSystem(engine_m1, b), GainFunction.identity())
        want = (b + 1.0) * closed_form_exp(x, b, 1.0, 0.5, 0.5)
        assert got == pytest.approx(want, abs=1e-11)

    def test_vanishes_for_distant_threshold(self, engine_m1):
        assert psi_of(0.0, ResidueSystem(engine_m1, 20.0), GainFunction.identity()) < 1e-3


class TestFOfB:
    def test_value_at_zero(self):
        assert f_of_b(0.0, 1.0, 0.5, 0.5) == 0.5 / 1.0

    def test_strictly_decreasing(self):
        vals = [f_of_b(b, 1.0, 0.5, 0.5) for b in (0.2, 0.4, 0.8)]
        assert vals[0] > vals[1] > vals[2]

    def test_linear_upper_bound_makes_bracket(self):
        mu, rho, lam = 1.0, 0.5, 0.5
        b_hi = rho / (mu * (1.0 - rho) * (1.0 - rho * lam)) + 0.1
        for b in np.linspace(0.0, b_hi, 20):
            assert f_of_b(b, mu, rho, lam) <= rho / mu - (1 - rho) * (
                1 - rho * lam
            ) * b + 1e-12
        assert f_of_b(b_hi, mu, rho, lam) < 0.0

    def test_equals_q_series_form(self):
        # f(b) = rho (b + 1/mu) Q(lam mu b) - b Q(mu b): the solver's fit gap
        # is f(b) / Q(mu b).  Relative to the larger of the two products,
        # which cancel near the root.
        for mu in (0.3, 1.0, 3.0, 10.0):
            for rho in (0.1, 0.5, 0.9):
                for lam in (0.1, 0.5, 0.9):
                    for b in (0.0, 0.05, 0.7, 2.0, 5.0):
                        keep = rho * (b + 1.0 / mu) * _qexp_series(lam * mu * b, rho, lam)
                        stop = b * _qexp_series(mu * b, rho, lam)
                        want = keep - stop
                        assert abs(f_of_b(b, mu, rho, lam) - want) <= 1e-12 * max(keep, stop)


class TestSolveThresholdExpIdentity:
    def test_reference_root(self):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        assert sol.b_star == pytest.approx(B_STAR_REF, abs=1e-9)
        assert abs(sol.b_star - 0.70) < 0.01
        assert abs(f_of_b(sol.b_star, 1.0, 0.5, 0.5)) <= 1e-12
        assert sol.fit_residual < 1e-9

    def test_value_function_shape(self):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        assert sol.value_at(sol.b_star + 0.2) == sol.b_star + 0.2
        below = sol.value_at(sol.b_star - 1e-9)
        assert below == pytest.approx(sol.b_star, abs=1e-6)

    def test_root_of_the_series_on_a_grid(self):
        # brentq on f, with the solver's bracket and tolerances, is the
        # reference root; the solver's own root is that of f / Q(mu b).
        for mu in (0.3, 1.0, 3.0, 10.0):
            for rho in (0.1, 0.5, 0.8, 0.9, 0.95):
                for lam in (0.1, 0.5, 0.9, 0.97):
                    b_hi = rho / (mu * (1.0 - rho) * (1.0 - rho * lam)) + 0.1
                    ref = optimize.brentq(lambda b: f_of_b(b, mu, rho, lam), 0.0, b_hi,
                                          xtol=1e-15, rtol=8.9e-16)
                    sol = solve_threshold_exp_identity(mu, rho, lam)
                    assert abs(sol.b_star - ref) <= 1e-13 * ref, (mu, rho, lam)
                    assert sol.fit_residual <= 1e-14 * max(1.0, sol.b_star), (mu, rho, lam)

    @pytest.mark.parametrize("mu,rho,lam", [(1.0, 0.98, 0.98), (1.0, 0.99, 0.99), (0.3, 0.99, 0.99)])
    def test_bracket_capped_where_the_series_overflows(self, mu, rho, lam):
        # The analytic bracket end (1237, 4975 and 16583 here) puts Q(mu b_hi)
        # past the float range; capped at 700/mu it stays finite.
        b_hi = min(rho / (mu * (1.0 - rho) * (1.0 - rho * lam)) + 0.1, 700.0 / mu)
        ref = optimize.brentq(lambda b: f_of_b(b, mu, rho, lam), 0.0, b_hi,
                              xtol=1e-15, rtol=8.9e-16)
        sol = solve_threshold_exp_identity(mu, rho, lam)
        assert abs(sol.b_star - ref) <= 1e-13 * ref
        assert sol.fit_residual <= 1e-14 * max(1.0, sol.b_star)

    def test_immediate_stopping_limit(self):
        sol = solve_threshold_exp_identity(1.0, 1e-3, 0.5)
        assert sol.b_star < 2e-3

    def test_bounded_maximizer_cross_check(self, engine_m1):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        b_max = maximize_psi(ResidueSystem(engine_m1, np.linspace(0.3, 1.2, 41)),
                             GainFunction.identity(), 0.0)
        assert abs(sol.b_star - b_max) < 1e-4


class TestSolveThresholdGeneral:
    def test_reproduces_exponential_case(self, engine_m1):
        sol = solve_threshold_general(
            engine_m1, GainFunction.identity(), 0.2, 2.0
        )
        assert abs(sol.b_star - B_STAR_REF) < 1e-6
        assert sol.methods_agree

    def test_hyperexponential_with_policy_oracle(self, engine_m2):
        gain = GainFunction.identity()
        sol = solve_threshold_general(engine_m2, gain, 0.2, 2.0)
        assert sol.methods_agree
        assert abs(sol.b_star - sol.maximizer_b) <= 1e-4
        # simulated policy value at b* is not beaten by nearby thresholds
        model = engine_m2.model
        ref = joint_estimate(model, simulate_paths(model, 0.0, sol.b_star, 200_000, seed=5), gain)
        for shift in (-0.05, 0.05):
            paths = simulate_paths(model, 0.0, sol.b_star + shift, 200_000, seed=5)
            alt = joint_estimate(model, paths, gain)
            band = 3.0 * (ref.stderr ** 2 + alt.stderr ** 2) ** 0.5
            assert alt.mean <= ref.mean + band

    def test_tiny_gaps_of_opposite_sign_bracket_a_root(self, engine_m2, monkeypatch):
        # Gaps near 1e-202 on both sides of b = 0.91: their product
        # underflows to -0.0, which hid the root from a product test.
        monkeypatch.setattr(stopping, "_fit_gap", lambda system, gain: 1e-200 * (0.91 - system.b))
        sol = solve_threshold_general(engine_m2, GainFunction.identity(), 0.3, 1.5)
        assert abs(sol.b_star - 0.91) <= 1e-12

    def test_root_where_raw_newton_steps_leave_the_bracket(self, engine_m2, monkeypatch):
        # Newton on cbrt(r - b) doubles the distance to r at every step, so
        # from the secant point of the scan's bracket [0.9, 0.93] its steps
        # soon leave the bracket; each such step bisects it instead.
        centres = []

        def gap(system, gain):
            if np.size(system.b) == 3:
                centres.append(system.b[1])
            return np.cbrt(0.91 - system.b)

        monkeypatch.setattr(stopping, "_fit_gap", gap)
        sol = solve_threshold_general(engine_m2, GainFunction.identity(), 0.3, 1.5)
        assert abs(sol.b_star - 0.91) <= 1e-12
        assert centres and all(0.9 <= b <= 0.93 for b in centres), centres

    def test_two_roots_keep_the_one_nearest_the_maximizer(self, engine_m2, monkeypatch):
        # The maximizer of Psi_{x_ref} is near 0.423: 0.47 is the nearer
        # root, though 0.35 comes first in the window.
        monkeypatch.setattr(stopping, "_fit_gap",
                            lambda system, gain: (system.b - 0.35) * (system.b - 0.47))
        sol = solve_threshold_general(engine_m2, GainFunction.identity(), 0.3, 1.5)
        assert abs(sol.maximizer_b - 0.4229723) <= 1e-6
        assert abs(sol.b_star - 0.47) <= 1e-12
        assert not sol.methods_agree

    def test_window_narrower_than_the_stencil(self, engine_m2, monkeypatch):
        # x_ref lies 3.1e-5 below this 3e-4 window and the maximizer 1.2e-5
        # above its start, so a stencil of half-width 1e-4 would reach below
        # x_ref; it shrinks to stay above it.  The root is put at the
        # maximizer, so that the two agree to 1e-6.
        monkeypatch.setattr(stopping, "_fit_gap", lambda system, gain: 0.4229723 - system.b)
        sol = solve_threshold_general(engine_m2, GainFunction.identity(), 0.42296, 0.42326)
        assert abs(sol.b_star - 0.4229723) <= 1e-12
        assert abs(sol.maximizer_b - 0.4229723) <= 1e-6
        assert sol.methods_agree

    @pytest.mark.parametrize("b", [0.0, 4e-5, 1e-4, 2e-4])
    def test_stencil_is_one_sided_below_its_width(self, b):
        # Below h the stencil is (b, b + h, b + 2h), so no threshold lies
        # under 0; at or above h it stays central.  On a quadratic either
        # gives the slope and the curvature up to rounding.
        h = 1e-4
        points = stopping._stencil(b, h)
        assert points.min() >= 0.0 and b in points
        assert (points[0] == b) == (b < h)
        d1, d2 = stopping._slopes(b, h, *(3.0 - 2.0 * points + 5.0 * points ** 2))
        assert abs(d1 - (-2.0 + 10.0 * b)) <= 1e-9 and abs(d2 - 10.0) <= 1e-4

    def test_window_without_root(self, engine_m1):
        with pytest.raises(ArphaseError):
            solve_threshold_general(
                engine_m1, GainFunction.identity(), 5.0, 6.0
            )


MAXIMIZER_CASES = {
    "m1-identity": ("engine_m1", GainFunction.identity(), 0.0, (0.3, 1.2)),
    "m2-identity": ("engine_m2", GainFunction.identity(), None, (0.3, 1.5)),
    "m2-call": ("engine_m2", GainFunction.call(0.5), None, (0.5, 2.0)),
    "chain-point-identity": ("engine_chain_point", GainFunction.identity(), None, (0.1, 1.5)),
}


@pytest.mark.parametrize("case", MAXIMIZER_CASES)
def test_maximizer_matches_bounded_brent(request, case):
    # x_ref None is the solver's own start, a tenth of the window below it.
    fixture, gain, x_ref, (b_lo, b_hi) = MAXIMIZER_CASES[case]
    engine = request.getfixturevalue(fixture)
    if x_ref is None:
        x_ref = b_lo - 0.1 * (b_hi - b_lo) - 1e-6
    brent = optimize.minimize_scalar(lambda b: -psi_of(x_ref, ResidueSystem(engine, b), gain),
                                     bounds=(b_lo, b_hi), method="bounded", options={"xatol": 1e-8})
    scan = ResidueSystem(engine, np.linspace(b_lo, b_hi, 41))
    assert abs(maximize_psi(scan, gain, x_ref) - brent.x) <= 1e-7


def same_solution(got, want):
    """b*, fit residual, maximizer and value curve equal to the bit."""
    xs = np.linspace(want.b_star - 3.0, want.b_star + 1.0, 41)
    assert got.b_star == want.b_star
    assert got.fit_residual == want.fit_residual
    assert (got.maximizer_b, got.methods_agree) == (want.maximizer_b, want.methods_agree)
    assert np.array_equal(got.value_at(xs), want.value_at(xs))


class TestSolveThreshold:
    """solve_threshold picks the route; each route's answer is unchanged."""

    @pytest.mark.parametrize("window", [(None, None), (0.2, 2.0), (5.0, 6.0)])
    def test_exp_identity_takes_the_q_series_root(self, engine_m1, window):
        # (5.0, 6.0) holds no root, so the general route would raise.
        sol = solve_threshold(engine_m1, GainFunction.identity(), *window)
        same_solution(sol, solve_threshold_exp_identity(1.0, 0.5, 0.5))
        assert sol.maximizer_b is None

    @pytest.mark.parametrize("fixture, gain", [
        ("engine_m1_expT", GainFunction.identity()),
        ("engine_m1", GainFunction.power(2)),
        ("engine_m2", GainFunction.identity()),
    ])
    def test_other_problems_need_the_window(self, request, fixture, gain):
        engine = request.getfixturevalue(fixture)
        for window, missing in (((None, None), "b_lo"), ((None, 1.5), "b_lo"), ((0.2, None), "b_hi")):
            with pytest.raises(ValidationError, match=f"^{missing} is missing"):
                solve_threshold(engine, gain, *window)

    def test_m2_is_the_general_route(self, engine_m2):
        gain = GainFunction.identity()
        sol = solve_threshold(engine_m2, gain, 0.2, 1.4)
        same_solution(sol, solve_threshold_general(engine_m2, gain, 0.2, 1.4))
        assert sol.maximizer_b is not None

    def test_routes_are_looked_up_on_the_module(self, engine_m1, engine_m2, monkeypatch):
        # A wrapper set on the module, as a tracer sets one, sees each call.
        seen = []
        for name in ("solve_threshold_exp_identity", "solve_threshold_general"):
            func = getattr(stopping, name)
            monkeypatch.setattr(stopping, name,
                                lambda *a, _f=func, _n=name: seen.append(_n) or _f(*a))
        solve_threshold(engine_m1, GainFunction.identity(), None, None)
        solve_threshold(engine_m2, GainFunction.identity(), 0.2, 1.4)
        assert seen == ["solve_threshold_exp_identity", "solve_threshold_general"]


class TestFixedThreshold:
    def test_is_the_threshold_rule_without_a_fit(self, engine_m2):
        gain = GainFunction.call(0.5)
        b = 1.2
        sol = fixed_threshold(engine_m2, gain, b)
        assert sol.b_star == b and np.isnan(sol.fit_residual)
        assert sol.maximizer_b is None and sol.gain is gain
        system = ResidueSystem(engine_m2, b)
        want = threshold_value(b, gain, lambda x: psi_of(x, system, gain))
        xs = np.linspace(-2.0, 3.0, 21)
        assert np.array_equal(sol.value_at(xs), want(xs))

    def test_one_system_build(self, engine_m2, monkeypatch):
        builds = []
        init = ResidueSystem.__init__

        def counted(system, engine, b):
            builds.append(b)
            init(system, engine, b)

        monkeypatch.setattr(ResidueSystem, "__init__", counted)
        sol = fixed_threshold(engine_m2, GainFunction.identity(), 0.5)
        sol.value_at(np.linspace(-1.0, 1.0, 9))
        assert builds == [0.5]

    def test_general_solution_is_the_rule_at_its_root(self, engine_m2):
        gain = GainFunction.identity()
        sol = solve_threshold_general(engine_m2, gain, 0.2, 1.4)
        xs = np.linspace(sol.b_star - 3.0, sol.b_star + 1.0, 41)
        rule = fixed_threshold(engine_m2, gain, sol.b_star)
        assert np.array_equal(sol.value_at(xs), rule.value_at(xs))
        assert sol.fit_residual < 1e-6


SCAN_CASES = {
    "m2-identity": ("engine_m2", GainFunction.identity(), (0.2, 1.4)),
    "m2-call-strike-inside": ("engine_m2", GainFunction.call(0.5), (0.2, 1.4)),
    "chain-point-identity": ("engine_chain_point", GainFunction.identity(), (0.3, 1.5)),
    "m6-exp-identity": ("engine_m6", GainFunction.identity(), (0.5, 2.0)),
    "m2-custom": ("engine_m2", GainFunction.custom(lambda y: np.maximum(y, 0.0) ** 1.5), (0.3, 1.5)),
}


class TestBatchedScan:
    """The continuous-fit scan is one ResidueSystem over the b grid; each of
    its values equals the scalar fit gap of that b, bit for bit."""

    @pytest.mark.parametrize("case", SCAN_CASES)
    def test_scan_equals_scalar_fit_gap(self, request, case):
        fixture, gain, (b_lo, b_hi) = SCAN_CASES[case]
        engine = request.getfixturevalue(fixture)
        grid = np.linspace(b_lo, b_hi, 41)
        vals = stopping._fit_gap(ResidueSystem(engine, grid), gain)
        assert vals.shape == grid.shape
        want = [stopping._fit_gap(ResidueSystem(engine, b), gain) for b in grid]
        assert np.array_equal(vals, want)

    @pytest.mark.parametrize("case", SCAN_CASES)
    def test_read_at_b_is_the_left_limit(self, request, case):
        # The gap is one solve at x = b, which the public solve refuses; a
        # start 1e-9 below b gives the same gap up to Psi's slope times 1e-9.
        fixture, gain, (b_lo, b_hi) = SCAN_CASES[case]
        engine = request.getfixturevalue(fixture)
        grid = np.linspace(b_lo, b_hi, 41)
        system = ResidueSystem(engine, grid)
        below = psi_of(grid - 1e-9, system, gain) - [gain(b) for b in grid]
        assert np.abs(stopping._fit_gap(system, gain) - below).max() <= 1e-7
        with pytest.raises(ValidationError, match="must lie strictly below"):
            system.solve(grid)

    # m6-exp-identity has no root in its window.
    @pytest.mark.parametrize("case", [case for case in SCAN_CASES if case != "m6-exp-identity"])
    def test_gap_changes_sign_across_the_root(self, request, case):
        fixture, gain, window = SCAN_CASES[case]
        engine = request.getfixturevalue(fixture)
        b_star = solve_threshold_general(engine, gain, *window).b_star
        below, above = (stopping._fit_gap(ResidueSystem(engine, b_star + d), gain) for d in (-1e-12, 1e-12))
        assert below > 0 > above, (below, above)

    def test_scan_is_one_series_call_of_each_kind(self, engine_m2, monkeypatch):
        kinds = []
        series = TransformEngine._tail_series

        def counted(engine, x, gamma, rows):
            kinds.append(rows)
            return series(engine, x, gamma, rows)

        monkeypatch.setattr(TransformEngine, "_tail_series", counted)
        grid = np.linspace(0.3, 1.5, 41)
        stopping._fit_gap(ResidueSystem(engine_m2, grid), GainFunction.identity())
        assert sorted(kinds) == [False, True]

    def test_solve_builds_few_systems(self, engine_m2, monkeypatch):
        # One system per b of the scan made 69 builds here, and scalar brentq
        # and bounded-Brent steps after one batched scan 28.  Now there are 6:
        # the scan, two (b - h, b, b + h) builds of Newton steps on the fit
        # gap and two on dPsi/db, and b*.
        builds = []
        init = ResidueSystem.__init__

        def counted(system, engine, b):
            builds.append(np.shape(b))
            init(system, engine, b)

        monkeypatch.setattr(ResidueSystem, "__init__", counted)
        solve_threshold_general(engine_m2, GainFunction.identity(), 0.3, 1.5)
        assert len(builds) <= 10, len(builds)
        assert builds[0] == (41,)

    def test_one_failing_threshold_raises_as_the_scalar_scan(self, engine_m2, monkeypatch):
        gain = GainFunction.identity()
        grid = np.linspace(0.3, 1.5, 41)
        conds = sorted(ResidueSystem(engine_m2, b).cond for b in grid)
        assert conds[-2] < conds[-1]
        monkeypatch.setattr(passage, "_COND_LIMIT", 0.5 * (conds[-2] + conds[-1]))
        with pytest.raises(ArphaseError) as scalar:
            for b in grid:
                stopping._fit_gap(ResidueSystem(engine_m2, b), gain)
        with pytest.raises(ArphaseError) as batch:
            stopping._fit_gap(ResidueSystem(engine_m2, grid), gain)
        assert type(batch.value) is type(scalar.value) is SingularSystemError
        assert str(batch.value) == str(scalar.value)
        with pytest.raises(ArphaseError) as solved:
            solve_threshold_general(engine_m2, gain, 0.3, 1.5)
        assert str(solved.value) == str(scalar.value)


class TestVerifySolution:
    def test_reference_solution_verifies(self, engine_m1):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        report = verify_solution(sol, engine_m1)
        assert report.dominance_margin >= -1e-6
        assert report.supermartingale_margin >= -1e-6
        assert report.passed

    def test_wrong_threshold_fails(self, engine_m1):
        gain = GainFunction.identity()
        bad = fixed_threshold(engine_m1, gain, B_STAR_REF + 0.3)
        report = verify_solution(bad, engine_m1)
        assert not report.passed

    def test_solves_per_call_not_per_node(self, engine_m2, monkeypatch):
        # A per-node loop over the dominance grid or the quadrature nodes
        # made 4,445 solves here and one quadrature call per grid point 46;
        # per-shift panels made 4 in all.  Now v is solved once on both
        # grids and once per doubling level of the sweep: 3.
        gain = GainFunction.identity()
        sol = solve_threshold_general(engine_m2, gain, 0.3, 1.5)
        calls = []
        solve = ResidueSystem.solve

        def counted(system, x):
            calls.append(np.size(x))
            return solve(system, x)

        monkeypatch.setattr(ResidueSystem, "solve", counted)
        report = verify_solution(sol, engine_m2)
        assert report.passed
        assert len(calls) <= 3, len(calls)

    def test_one_quadrature_call(self, engine_m2, monkeypatch):
        # The supermartingale check is one batched operator over its grid,
        # not one adaptive quadrature per grid point (41 here).
        gain = GainFunction.identity()
        sol = solve_threshold_general(engine_m2, gain, 0.3, 1.5)
        shapes = []

        def counted(inn, func, **kwargs):
            shapes.append(np.shape(kwargs.get("at", 0.0)))
            return innovation_expectation(inn, func, **kwargs)

        monkeypatch.setattr(stopping, "innovation_expectation", counted)
        report = verify_solution(sol, engine_m2)
        assert report.passed
        assert shapes == [(41,)], shapes

    def test_value_points_per_verification(self, engine_m2):
        # A deterministic work counter: the points v is evaluated at, and
        # those below b*, where each costs a residue solve.  Quadrature that
        # started at 64 nodes per panel took 12,337 and 4,444 here, and one
        # at 16 with its own panels per shift 5,233 and 1,276; the shared
        # panels of one sweep take 829 and 484.
        sol = solve_threshold_general(engine_m2, GainFunction.identity(), 0.3, 1.5)
        points = []

        def counted(x):
            points.append(np.asarray(x, dtype=float).ravel())
            return sol.value_at(x)

        report = verify_solution(replace(sol, value_at=counted), engine_m2)
        assert report.passed
        points = np.concatenate(points)
        assert points.size <= 994, points.size
        assert np.count_nonzero(points < sol.b_star) <= 580, np.count_nonzero(points < sol.b_star)

    def test_overshoot_vector_once_per_system(self, engine_m2, monkeypatch):
        # psi_of asked for the overshoot vector on every call, 11 times for
        # 6 systems here; each system now computes it once per gain.
        builds, vectors = [], []
        build, vector = ResidueSystem.__init__, passage.overshoot_expectation

        def counted_build(system, *args):
            builds.append(1)
            build(system, *args)

        def counted_vector(*args):
            vectors.append(1)
            return vector(*args)

        monkeypatch.setattr(ResidueSystem, "__init__", counted_build)
        monkeypatch.setattr(passage, "overshoot_expectation", counted_vector)
        sol = solve_threshold_general(engine_m2, GainFunction.identity(), 0.3, 1.5)
        assert verify_solution(sol, engine_m2).passed
        assert 0 < len(vectors) <= len(builds), (len(vectors), len(builds))

    def test_value_dominates_gain_above_threshold(self, engine_m1):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        for x in np.linspace(sol.b_star, sol.b_star + 3.0, 25):
            assert sol.value_at(float(x)) == float(x)


class TestThresholdValue:
    def test_array_equals_scalar_calls(self, engine_m2):
        gain = GainFunction.call(0.5)
        b = 1.2
        system = ResidueSystem(engine_m2, b)
        value_at = threshold_value(b, gain, lambda x: psi_of(x, system, gain))
        xs = np.linspace(-2.0, 3.0, 21)   # both sides of b, and b itself
        xs[8] = b
        got = value_at(xs)
        assert got.shape == xs.shape
        assert np.array_equal(got, [value_at(x) for x in xs])
        assert np.array_equal(value_at(xs.reshape(3, 7)), got.reshape(3, 7))
        assert isinstance(value_at(0.3), float) and isinstance(value_at(2.0), float)
        with pytest.raises(ValidationError):   # NaN is not at or above b
            value_at(np.array([0.0, np.nan]))

    def test_below_sees_only_starts_under_b(self):
        seen = []
        value_at = threshold_value(1.0, GainFunction.identity(), lambda x: seen.append(x) or -x)
        assert np.array_equal(value_at(np.array([2.0, 0.5, 1.0, -1.0])), [2.0, -0.5, 1.0, 1.0])
        assert len(seen) == 1 and np.array_equal(seen[0], [0.5, -1.0])
        assert value_at(np.array([1.0, 3.0])).tolist() == [1.0, 3.0] and len(seen) == 1


def fit_gaps(engine, b):
    """|Psi_{b-eps}(b) - g(b)| for eps = 1e-2, 1e-3, 1e-4 and the identity gain."""
    psi = psi_of(b - np.array([1e-2, 1e-3, 1e-4]), ResidueSystem(engine, b), GainFunction.identity())
    return np.abs(psi - b)


class TestContinuousFit:
    def test_gaps_decrease_at_optimum(self, engine_m1):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        gaps = fit_gaps(engine_m1, sol.b_star)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_one_sided_limits_agree_m2(self, engine_m2):
        gain = GainFunction.identity()
        sol = solve_threshold_general(engine_m2, gain, 0.2, 2.0)
        b = sol.b_star
        # the two approximations differ by O(eps); at eps = 1e-8 the
        # shared limit is resolved to 1e-8
        eps = 1e-8
        below = ResidueSystem(engine_m2, b).solve(b - eps).phi_vec
        above = ResidueSystem(engine_m2, b + eps).solve(b).phi_vec
        assert np.abs(below - above).max() <= 1e-8

    def test_gap_persists_at_non_optimal_threshold(self, engine_m1):
        gaps = fit_gaps(engine_m1, B_STAR_REF + 0.4)
        assert min(gaps) > 1e-3
