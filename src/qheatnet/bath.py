"""Bath spectral response and transition rates.

Both baths share a cubic spectral response.  The downward rate for a
transition at frequency Omega >= 0 into a bath at temperature T is

    gamma(Omega) = kappa * Omega**3 / (1 - exp(-Omega/T)),

which already contains the bath occupation; matching upward rates follow by
the detailed-balance factor exp(-Omega/T), applied by the generators.
`rate` is the one function here: the local treatment calls it at the bare
node frequencies, the global one at the dressed normal-mode frequencies.
"""

import math

from .errors import NegativeFrequency, RateOverflow


def rate(omega: float, T: float, kappa: float) -> float:
    """Downward rate gamma(omega) = kappa * omega**3 / (1 - exp(-omega/T)).

    T and kappa come from a validated NetworkParams and are not re-checked.
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
        value = kappa * omega**3 / -math.expm1(-omega / T)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise RateOverflow(f"rate at omega={omega!r} with kappa={kappa!r} overflows")
    return value

