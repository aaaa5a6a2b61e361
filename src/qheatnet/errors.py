"""Error taxonomy shared by all modules, and the rule that a failing row fails alone."""


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
    """A bath rate is too large to represent as a finite float."""


class SingularSystem(HeatNetError):
    """A steady-state system is singular: a singular 4x4 drift matrix, or a decay rate of 0."""


class UnphysicalCovariance(HeatNetError):
    """A covariance matrix violates the uncertainty bound (symplectic eigenvalue below 1/2)."""


class TruncationTooSmall(HeatNetError):
    """The Fock truncation cannot represent the state (guard tripped or n_max below the minimum)."""


class DegenerateNullspace(HeatNetError):
    """The generator has more than one steady state within tolerance."""


class NonConvergence(HeatNetError):
    """The extracted null vector failed a residual, trace or positivity check."""


def by_row(function, columns, failed: tuple, expected=HeatNetError) -> tuple[list[list], list]:
    """function(*row) over the rows of equal-length columns, with its results as columns.

    A row that raises `expected` gets the values `failed` and its error in
    the returned list of errors, whose other entries are None: one bad row
    never stops the others.  A row may stop short of `failed`; the result
    columns keep what every row has.
    """
    rows, errors = [], []
    for row in zip(*columns):
        try:
            rows.append(function(*row))
            errors.append(None)
        except expected as exc:
            rows.append(failed)
            errors.append(exc)
    return list(map(list, zip(*rows))) or [[] for _ in failed], errors
