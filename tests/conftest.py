"""Session-scoped wave fixtures shared across the suite.

Profiles are built once per session from first principles (no stored data):
the weakly nonlinear seed route for the moderate-F wave and the large-F
scaling-family route for the F = 6 and F = 10 waves.  `hill_solves` records
the Hill eigensolves of one test.
"""

import numpy as np
import pytest

from rollwave import hill, kdv_limit
from rollwave import profile as prof

import oracles


@pytest.fixture(scope="session")
def fig1c_wave():
    """Converged wave at F = sqrt(6), nu = 0.1, q = 1.5745, X = 17.15."""
    k = kdv_limit.k_of_period(20.0)
    w0 = kdv_limit.asymptotic_rollwave(0.3, k, 0.1, n=256)
    return prof.continue_profile(w0, F=6.0 ** 0.5, q=1.5745, X=17.15)


@pytest.fixture(scope="session")
def f6_waves():
    """The two F = 6 waves of the q0 = 0.4, nu = 0.1 family, X in {7.83, 8.78}."""
    return {X: prof.profile_from_limit(0.4, X / 36.0, 6.0, n=512)
            for X in (7.83, 8.78)}


@pytest.fixture(scope="session")
def f10_x50_wave():
    """F = 10, X = 50 wave of the q0 = 0.4 family (X0 = 0.5)."""
    return prof.profile_from_limit(0.4, 0.5, 10.0, n=1024)


@pytest.fixture(scope="session")
def constant_state():
    """The constant profile tau = 1 at F = 3 on a 2 pi period."""
    return oracles.equilibrium(3.0, 0.1, tau0=1.0, X=2.0 * np.pi, n=64)


@pytest.fixture
def hill_solves(monkeypatch):
    """The Floquet parameters of every `hill.eigenvalues` call, in order."""
    solved = []
    direct = hill.eigenvalues

    def counting(problem, N, xi):
        solved.append(xi)
        return direct(problem, N, xi)

    monkeypatch.setattr(hill, "eigenvalues", counting)
    return solved
