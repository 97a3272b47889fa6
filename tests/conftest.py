"""Shared example models used across the test suite."""

import numpy as np
import pytest

from arphase import (
    AR1Model,
    Innovation,
    NegativePart,
    TransformEngine,
    validate,
)


@pytest.fixture(scope="session")
def dist_exp1():
    """Exponential(1) as a single-phase distribution."""
    return validate([[-1.0]], [1.0])


@pytest.fixture(scope="session")
def dist_hyper2():
    """Hyperexponential with rates 1 and 3, weights 0.4 and 0.6."""
    return validate([[-1.0, 0.0], [0.0, -3.0]], [0.4, 0.6])


@pytest.fixture(scope="session")
def dist_chain2():
    """Two-phase chain with a transition: rates 2 and 3."""
    return validate([[-2.0, 1.0], [0.0, -3.0]], [0.5, 0.5])


@pytest.fixture(scope="session")
def engine_m1(dist_exp1):
    """mu=1, lambda=rho=1/2, T=0: the worked single-phase example."""
    inn = Innovation(dist_exp1, NegativePart.zero())
    return TransformEngine(AR1Model(0.5, 0.5, inn))


@pytest.fixture(scope="session")
def engine_m2(dist_hyper2):
    """The hyperexponential example: lambda=rho=1/2, T=0."""
    inn = Innovation(dist_hyper2, NegativePart.zero())
    return TransformEngine(AR1Model(0.5, 0.5, inn))


@pytest.fixture(scope="session")
def engine_m1_expT(dist_exp1):
    """mu=1, lambda=rho=1/2, T ~ Exponential(2)."""
    inn = Innovation(dist_exp1, NegativePart.exponential(2.0))
    return TransformEngine(AR1Model(0.5, 0.5, inn))


@pytest.fixture(scope="session")
def engine_m6():
    """The 6-phase Coxian (continuation 0.7), lambda = 0.6, rho = 0.7, T ~ Exp(2)."""
    rates = [1.0, 1.4, 1.9, 2.6, 3.3, 4.1]
    Q = np.diag([-r for r in rates]) + np.diag([0.7 * r for r in rates[:-1]], k=1)
    dist = validate(Q.tolist(), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    inn = Innovation(dist, NegativePart.exponential(2.0))
    return TransformEngine(AR1Model(0.6, 0.7, inn))


@pytest.fixture(scope="session")
def engine_chain_point(dist_chain2):
    """The two-phase chain, lambda = 0.6, rho = 0.8, T = 0.3 (a point mass)."""
    inn = Innovation(dist_chain2, NegativePart.point_mass(0.3))
    return TransformEngine(AR1Model(0.6, 0.8, inn))


def assert_close(a, b, tol, label=""):
    a, b = np.asarray(a), np.asarray(b)
    err = np.max(np.abs(a - b))
    assert err <= tol, f"{label}: |{a} - {b}| = {err} > {tol}"
