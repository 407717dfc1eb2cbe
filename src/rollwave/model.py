"""Wave parameters and cheap pointwise checks.

The five wave parameters are the Froude number F, viscosity nu = 1/Re, the
total outflow q, the wave speed c, and the Lagrangian period X, together with
a reference specific volume tau0.  Waves are indexed by (q, X); c and the tau
mean are outputs of the solvers, never inputs.  The velocity u is never stored:
it is always reconstructed as u = q - c*tau, which enforces the first integral
of the traveling-wave system exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .profile import WaveProfile


class DomainError(ValueError):
    """A parameter fell outside its admissible range."""


class NumericalFailure(RuntimeError):
    """The numerics reached no checked answer: a solve that did not converge,
    an unresolved truncation or an untrusted Evans computation."""


@dataclass(frozen=True)
class PhysicalParams:
    """Parameters of a single periodic traveling wave.

    F, nu, X, tau0 must be strictly positive.  The roll-wave regime is F > 2.
    """

    F: float
    nu: float
    q: float
    c: float
    X: float
    tau0: float | None = None

    def __post_init__(self):
        for name in ("F", "nu", "X"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be strictly positive, got {getattr(self, name)}")
        if self.tau0 is not None and self.tau0 <= 0.0:
            raise DomainError(f"tau0 must be strictly positive, got {self.tau0}")

    def with_(self, **kwargs) -> "PhysicalParams":
        return replace(self, **kwargs)


def slope_margin(profile: "WaveProfile") -> float:
    """Pointwise margin of the slope condition 2*nu*u_x < F^-2.

    Returns min over the grid of F^-2 - 2*nu*u_x with u = q - c*tau; a
    positive value means the condition holds everywhere on the wave.
    """
    p = profile.params
    ux = -p.c * profile.dtau
    return float(np.min(p.F ** -2 - 2.0 * p.nu * ux))
