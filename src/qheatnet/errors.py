"""Error taxonomy shared by all modules, and the rule that a failing row fails alone."""

import math
from operator import itemgetter


class HeatNetError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveParameter(HeatNetError):
    """A frequency, temperature or coupling prefactor is not strictly positive (or not finite)."""


class NegativeCoupling(HeatNetError):
    """The inter-node coupling epsilon is negative."""


class GaplessSpectrum(HeatNetError):
    """epsilon**2 >= omega_h * omega_c, so the lower normal mode is not a positive-frequency oscillator."""


class UnsupportedStatistics(HeatNetError):
    """The requested treatment is only defined for bosonic nodes."""


class NegativeFrequency(HeatNetError):
    """A bath rate was requested at a negative transition frequency."""


class RateOverflow(HeatNetError):
    """A bath rate, or a moment or current built from the rates, is beyond the float range."""


class SingularSystem(HeatNetError):
    """A steady-state system is singular to working precision.

    The local moment system, whose 4x4 drift matrix can be singular in
    floats, and the closed forms, which divide by rates that can round to 0.
    The global kernel needs no rates and never raises it.
    """


class UnphysicalCovariance(HeatNetError):
    """A covariance matrix violates the uncertainty bound (symplectic eigenvalue below 1/2)."""


class TruncationTooSmall(HeatNetError):
    """The Fock truncation cannot represent the state (guard tripped or n_max below the minimum)."""


class DegenerateNullspace(HeatNetError):
    """The generator has more than one steady state within tolerance."""


class NonConvergence(HeatNetError):
    """The extracted null vector failed a residual, trace or positivity check."""


def by_row(function, columns, fields: tuple[str, ...]) -> tuple[dict[str, list], list]:
    """function(*row) over the rows of equal-length columns, with its results as named columns.

    Each row gives one value per name in `fields`, in that order.  A row
    that raises a HeatNetError holds NaN in every field and its error in the
    returned list of errors, whose other entries are None: one bad row
    never stops the others.  Any other exception propagates.  The oracle
    rows go through here; the local, global and Gaussian kernels solve their
    columns at once and return the same shape, and `one_row` reads it for one point.
    """
    rows, errors = [], []
    failed = (math.nan,) * len(fields)
    for row in zip(*columns):
        try:
            rows.append(function(*row))
            errors.append(None)
        except HeatNetError as exc:
            rows.append(failed)
            errors.append(exc)
    return {name: list(map(itemgetter(j), rows)) for j, name in enumerate(fields)}, errors


def one_row(kernel, values, *shared) -> dict:
    """kernel on length-1 columns of values, as one value per name; raises the row's error."""
    columns, (error,) = kernel(*([value] for value in values), *shared)
    if error is not None:
        raise error
    return {name: column[0] for name, column in columns.items()}
