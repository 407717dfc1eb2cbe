"""Parameter containers, the alpha = -2 family map, and pointwise checks."""

import pytest

from rollwave import model, sweep
from rollwave.model import DomainError, PhysicalParams


def test_positive_parameter_validation():
    with pytest.raises(DomainError):
        PhysicalParams(F=-1.0, nu=0.1, q=1.0, c=0.5, X=10.0)
    with pytest.raises(DomainError):
        PhysicalParams(F=3.0, nu=0.0, q=1.0, c=0.5, X=10.0)
    with pytest.raises(DomainError):
        PhysicalParams(F=3.0, nu=0.1, q=1.0, c=0.5, X=10.0, tau0=-2.0)


@pytest.mark.parametrize("name, value", [
    ("F", float("nan")), ("nu", float("inf")), ("q", float("nan")),
    ("c", float("inf")), ("X", float("inf")), ("tau0", float("nan")),
    ("q", -float("inf"))])
def test_parameters_must_be_finite(name, value):
    # NaN passes a <= 0 check, and q and c have no sign to check
    good = dict(F=3.0, nu=0.1, q=1.0, c=0.5, X=10.0, tau0=1.0)
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        PhysicalParams(**{**good, name: value})


def test_positive_parameters_share_the_finite_and_positive_rule():
    # F, nu, X and tau0 meet model.require_positive, as every library entry
    # point does, so a zero F is named as a NaN one is
    with pytest.raises(DomainError,
                       match="F must be finite and positive, got 0.0"):
        PhysicalParams(F=0.0, nu=0.1, q=1.0, c=0.5, X=10.0)


def test_alpha_m2_family_is_q0F_X0F2():
    p = sweep.family_point(-2.0, 10.0, 0.1, 0.4, 50.0)
    assert p["q"] == pytest.approx(4.0)
    assert p["X0"] == pytest.approx(0.5)


def test_slope_margin_constant_state(constant_state):
    w = constant_state
    assert model.slope_margin(w) == pytest.approx(w.params.F ** -2, abs=1e-14)
