"""Acceptance gate: the eight package-level criteria.

Each test prints one PASS line on success; tolerances and workloads are
part of the contract and must not be loosened.
"""

import json
import math
import time

import numpy as np
from mpref import Reference, f_of_b

from arphase import (
    AR1Model,
    GainFunction,
    Innovation,
    NegativePart,
    ResidueSystem,
    TransformEngine,
    closed_form_exp,
    derivative_identity_check,
    estimate_phi,
    joint_estimate,
    overshoot_given_phase,
    psi_of,
    simulate_paths,
    solve_threshold_exp_identity,
    validate,
    verify_solution,
)
from arphase.cli import IDENTITY_CHECKS, main
from arphase.montecarlo import ks_critical_value
from arphase.stopping import maximize_psi


def _m1_engine(mu, rho, lam):
    inn = Innovation(validate([[-mu]], [1.0]), NegativePart.zero())
    return TransformEngine(AR1Model(lam, rho, inn))


def _m2_engine():
    dist = validate([[-1.0, 0.0], [0.0, -3.0]], [0.4, 0.6])
    return TransformEngine(AR1Model(0.5, 0.5, Innovation(dist, NegativePart.zero())))


def test_ac1_closed_form_consistency():
    start = time.monotonic()
    for mu, rho, lam in ((1.0, 0.5, 0.5), (2.0, 0.3, 0.7), (1.0, 0.9, 0.2)):
        engine = _m1_engine(mu, rho, lam)
        ref = Reference(engine.model.inn)
        for b in (0.5, 1.0, 1.5, 2.0, 2.5):
            xs = np.array([0.0, 0.2, 0.4, 0.6, 0.8]) * b
            ct = ResidueSystem(engine, b).solve(xs)
            mp_values = ref.crossing(lam, rho, b, xs)[:, 0]
            qform = closed_form_exp(xs, b, mu, rho, lam)
            assert np.all(np.abs(ct.total() - mp_values) <= min(ct.error_bound, 1e-10))
            assert np.all(np.abs(qform - mp_values) <= 1e-10)
            assert np.all(np.abs(ct.total() - qform) <= 1e-10)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nAC-1 PASS closed-form consistency ({elapsed:.1f}s)")


def test_ac2_monte_carlo_vs_laplace_transform():
    start = time.monotonic()
    engine = _m1_engine(1.0, 0.5, 0.5)
    want = closed_form_exp(0.0, 1.0, 1.0, 0.5, 0.5)
    est = estimate_phi(engine.model, 0.0, 1.0, 1_000_000, seed=2024)[0]
    assert abs(est.mean - want) <= 3 * est.stderr
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nAC-2 PASS Monte Carlo vs closed form "
          f"(|diff| = {abs(est.mean - want):.2e} <= 3 SE, {elapsed:.1f}s)")


def test_ac3_overshoot_distribution_by_phase():
    engine = _m2_engine()
    out, _ = overshoot_given_phase(engine.model, 0.0, 1.0, 100_000, seed=314)
    total = sum(out[i][0].size for i in (1, 2))
    assert total >= 100_000 * 0.99
    for i in (1, 2):
        samples, ks, corr = out[i]
        assert ks < ks_critical_value(samples.size)
        assert abs(corr) < 3.0 / math.sqrt(samples.size)
    print("\nAC-3 PASS per-phase overshoot KS and decorrelation")


def test_ac4_joint_functional_factorization():
    gain = GainFunction.identity()
    for label, engine in (("m1", _m1_engine(1.0, 0.5, 0.5)), ("m2", _m2_engine())):
        analytic = psi_of(0.0, ResidueSystem(engine, 1.0), gain)
        paths = simulate_paths(engine.model, 0.0, 1.0, 1_000_000, seed=99)
        est = joint_estimate(engine.model, paths, gain)
        assert abs(analytic - est.mean) <= 3 * est.stderr, label
    print("\nAC-4 PASS joint functional vs simulation (m=1 and m=2)")


def test_ac5_identity_suite():
    start = time.monotonic()
    # the stationary transform against its q-Pochhammer closed form, and
    # its functional equation with the mpmath factor at 50 points
    assert IDENTITY_CHECKS["laplace_id"][0]() <= 1e-10
    engine = _m2_engine()
    lam = engine.model.lam
    ref = Reference(engine.model.inn)
    rng = np.random.default_rng(55)
    for u in rng.uniform(0.01, 0.9, size=50):
        rhs = engine.exp_phi(lam * u) * complex(ref.exp_psi(u))
        assert abs(engine.exp_phi(u) / rhs - 1.0) <= 1e-10
        assert abs(engine.exp_phi(u) / complex(ref.exp_phi(u, lam)) - 1.0) <= 1e-10
    # q-binomial identity at 20 pairs
    assert IDENTITY_CHECKS["qbinomial"][0]() <= 1e-10
    # quadrature identities
    assert IDENTITY_CHECKS["harm1"][0]() <= 1e-6
    assert IDENTITY_CHECKS["harm3"][0]() <= 1e-6
    # derivative identity at two (x, b) pairs
    for x, b in ((0.0, 1.0), (0.0, 0.5)):
        assert derivative_identity_check(x, b, 1.0, 0.5, 0.5) <= 1e-5
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nAC-5 PASS identity suite ({elapsed:.1f}s)")


def test_ac6_optimal_stopping():
    start = time.monotonic()
    engine = _m1_engine(1.0, 0.5, 0.5)
    gain = GainFunction.identity()
    sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
    assert abs(f_of_b(sol.b_star, 1.0, 0.5, 0.5)) <= 1e-12
    b = sol.b_star
    gaps = np.abs(psi_of(b - np.array([1e-2, 1e-3, 1e-4]), ResidueSystem(engine, b), gain) - gain(b))
    assert gaps[0] > gaps[1] > gaps[2]
    report = verify_solution(sol, engine)
    assert report.dominance_margin >= -1e-6
    assert report.supermartingale_margin >= -1e-6
    b_max = maximize_psi(ResidueSystem(engine, np.linspace(0.3, 1.2, 41)), gain, 0.0)
    assert abs(sol.b_star - b_max) <= 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nAC-6 PASS optimal stopping (b* = {sol.b_star:.6f}, {elapsed:.1f}s)")


def test_ac7_residue_system_reconstruction():
    engine = _m2_engine()
    b, x = 1.0, 0.2
    system = ResidueSystem(engine, b)
    c = system.c(x)
    rng = np.random.default_rng(7000)
    for _ in range(5):
        delta = complex(rng.uniform(0.05, 0.8), rng.uniform(-0.3, 0.3))
        rebuilt_h = sum(c[j] / (engine.mu[j] - delta) for j in range(2))
        direct_h = engine.h_func(x, delta, b) * np.exp(-delta * b)
        assert abs(rebuilt_h - direct_h) <= 1e-9
    print("\nAC-7 PASS partial-fraction reconstruction")


def test_ac8_simulation_determinism(tmp_path):
    config = {
        "model": {
            "lambda": 0.5,
            "rho": 0.5,
            "Q": [[-1.0, 0.0], [0.0, -3.0]],
            "alpha": [0.4, 0.6],
        },
        "problem": {"b": 1.0, "x": 0.0},
        "mc": {"n_paths": 50000, "seed": 12345},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for tag, extra in (
        ("run1", []),
        ("run2", []),
        ("w1", ["--workers", "1"]),
        ("w2", ["--workers", "2"]),
        ("w8", ["--workers", "8"]),
    ):
        out = tmp_path / f"{tag}.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)]
                    + extra)
        assert code == 0
        outputs.append(out.read_bytes())
    assert all(o == outputs[0] for o in outputs)
    print("\nAC-8 PASS byte-identical simulation output "
          "(reruns and workers 1, 2, 8)")
