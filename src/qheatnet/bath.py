"""Bath spectral response and transition rates.

Both baths share a cubic spectral response.  The downward rate for a
transition at frequency Omega >= 0 into a bath at temperature T is

    gamma(Omega) = kappa * Omega**3 / (1 - exp(-Omega/T)),

which already contains the bath occupation; matching upward rates follow by
the detailed-balance factor exp(-Omega/T), applied by the generators.  The
local treatment evaluates rates at the bare node frequencies, the global one
at the dressed normal-mode frequencies omega_+-.
"""

import math
from dataclasses import dataclass

from .errors import NegativeFrequency, NonPositiveParameter, RateOverflow
from .model import NetworkParams, NormalModeBasis


@dataclass(frozen=True)
class BathSpec:
    """A thermal bath with cubic spectral response kappa * Omega**3."""

    temperature: float
    kappa: float

    def __post_init__(self) -> None:
        for name in ("temperature", "kappa"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise NonPositiveParameter(f"bath {name} must be positive and finite, got {value!r}")


def rate(bath: BathSpec, omega: float) -> float:
    """Downward rate gamma(omega) = kappa * omega**3 / (1 - exp(-omega/T)).

    gamma(0) = 0 (the cubic zero wins over the 1/omega pole of the thermal
    factor); small omega/T is handled through expm1, so the omega -> 0
    behaviour kappa * T * omega**2 comes out to machine precision.  Negative
    frequencies are a caller bug, not a limit, and raise NegativeFrequency.
    A rate beyond the float range raises RateOverflow.
    """
    if not math.isfinite(omega):
        raise NegativeFrequency(f"transition frequency must be finite, got {omega!r}")
    if omega < 0:
        raise NegativeFrequency(f"transition frequency must be >= 0, got {omega!r}")
    if omega == 0.0:
        return 0.0
    try:
        value = bath.kappa * omega**3 / -math.expm1(-omega / bath.temperature)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise RateOverflow(f"rate at omega={omega!r} with kappa={bath.kappa!r} overflows")
    return value


def hot_bath(params: NetworkParams) -> BathSpec:
    return BathSpec(temperature=params.T_h, kappa=params.kappa)


def cold_bath(params: NetworkParams) -> BathSpec:
    return BathSpec(temperature=params.T_c, kappa=params.kappa)


def local_rates(params: NetworkParams) -> tuple[float, float]:
    """(gamma_h, gamma_c) evaluated at the bare node frequencies."""
    return rate(hot_bath(params), params.omega_h), rate(cold_bath(params), params.omega_c)


def dressed_rates(params: NetworkParams, basis: NormalModeBasis) -> tuple[float, float, float, float]:
    """(gamma_h^+, gamma_h^-, gamma_c^+, gamma_c^-) at the normal-mode frequencies."""
    hot, cold = hot_bath(params), cold_bath(params)
    return (
        rate(hot, basis.omega_plus),
        rate(hot, basis.omega_minus),
        rate(cold, basis.omega_plus),
        rate(cold, basis.omega_minus),
    )
