"""Bath spectral response and transition rates.

Both baths share a cubic spectral response.  The downward rate for a
transition at frequency Omega >= 0 into a bath at temperature T is

    gamma(Omega) = kappa * Omega**3 / (1 - exp(-Omega/T)),

which already contains the bath occupation; matching upward rates follow by
the detailed-balance factor exp(-Omega/T), applied by the generators.
`rate` is the one function here.  The global treatment and the Fock
oracle call it at their transition frequencies.  The local treatment does
not: its `local_mme._node` forms the same rate, its omega/T -> 0 limit
included, at the bare node frequencies.
"""

import math
import sys

from .errors import NegativeFrequency, RateOverflow

# The smallest normal float: below it a product keeps fewer than 53 bits.
_TINY = sys.float_info.min


def rate(omega: float, T: float, kappa: float) -> float:
    """Downward rate gamma(omega) = kappa * omega**3 / (1 - exp(-omega/T)).

    T and kappa come from a validated NetworkParams and are not re-checked.
    gamma(0) = 0 (the cubic zero wins over the 1/omega pole of the thermal
    factor); small omega/T is handled through expm1, so the omega -> 0
    behaviour kappa * T * omega**2 comes out to machine precision, and it is
    the rate itself where omega/T underflows to 0.  Where kappa * omega**3
    underflows and the rate does not, the rate is formed without it.  Negative
    frequencies are a caller bug, not a limit, and raise NegativeFrequency.
    Where omega**3 alone overflows, kappa scales omega first, one factor at
    a time; a rate beyond the float range even so raises RateOverflow.
    """
    if not math.isfinite(omega):
        raise NegativeFrequency(f"transition frequency must be finite, got {omega!r}")
    if omega < 0:
        raise NegativeFrequency(f"transition frequency must be >= 0, got {omega!r}")
    if omega == 0.0:
        return 0.0
    x = omega / T
    try:
        if x == 0.0:
            # omega * T first: omega**2 alone may underflow while the limit does not
            value = kappa * (omega * T) * omega
        elif (cube := kappa * omega**3) >= _TINY:
            value = cube / -math.expm1(-x)
        else:
            # cube underflows where the rate need not, and so may any partial
            # product: multiply the mantissas and add the exponents.  A
            # subnormal rate has too few digits to replace cube's quotient.
            (k, i), (o, j), (f, m) = map(math.frexp, (kappa, omega, omega / -math.expm1(-x)))
            value = math.ldexp(k * o * o * f, i + j + j + m)
            if value < _TINY:
                value = cube / -math.expm1(-x)
    except OverflowError:
        # omega**3 alone overflows; kappa first may bring the product back in range
        value = kappa * omega * omega * omega / -math.expm1(-x)
    if not math.isfinite(value):
        raise RateOverflow(f"rate at omega={omega!r} with kappa={kappa!r} overflows")
    return value

