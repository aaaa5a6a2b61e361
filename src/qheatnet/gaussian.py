"""Two-mode Gaussian covariance analysis of the bosonic steady states.

Both generators are quadratic with linear damping terms, so their bosonic
steady states are Gaussian with zero first moments and no squeezing
(<aa> = <bb> = <ab> = 0).  The symmetrized quadrature covariance matrix in
the ordering (x_A, p_A, x_B, p_B), with x = (a + a')/sqrt(2) and
p = -i (a - a')/sqrt(2), is then fixed by the four second moments:

    V = [[nA + 1/2,  0,         X/2,       -Y/2     ],
         [0,         nA + 1/2,  Y/2,        X/2     ],
         [X/2,       Y/2,       nB + 1/2,   0       ],
         [-Y/2,      X/2,       0,          nB + 1/2]]

The global steady state is diagonal in the normal modes, which makes Y = 0
and X = 2 cos(theta) sin(theta) (n_+ - n_-); its x-p cross covariances
vanish identically, unlike the local state's, whose Y tracks the steady
coherence current.

Physicality and separability are both symplectic-spectrum statements:
V + (i/2) Omega >= 0 iff the smallest symplectic eigenvalue is >= 1/2, and
for one mode per side the same bound on the partially transposed matrix
(p_B -> -p_B) decides separability exactly.

Here the cross block is c times a rotation, c = |<a'b>| = hypot(X, Y)/2, so V
is physical iff nA nB >= c^2 and separable iff (n_> + 1) n_< >= c^2, n_> >= n_<
being the occupations; as (n_> + 1) n_< >= nA nB, every physical V here is.

`moment_correlation_columns` takes this route for columns of moments, all
rows at once over numpy columns, with one list per name in FIELDS, the
table's correlation columns; `moment_correlations` is the same kernel on
length-1 columns and returns the whole report.  hypot is `math`'s, cell by
cell (CPython's is neither the C library's nor numpy's), and every other
operation is numpy's in the order of one row's formulas, so each cell is
the float that Python's arithmetic gives for that row alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalCovariance, one_row
from .local_mme import MomentState
from .model import NormalModeBasis, cellwise

# Slack on the nu >= 1/2 bounds, absorbing eigenvalue round-off.
SYMPLECTIC_TOLERANCE = 1e-10

# The columns of moment_correlation_columns, named as in the CLI table.
FIELDS = ("cor_xAxB", "cor_xApB", "cor_pAxB", "cor_pApB", "separable")

# The fields of a CorrelationReport, in order.
_REPORT = ("cor_xAxB", "cor_xApB", "cor_pAxB", "cor_pApB", "nu_min", "nu_min_ppt", "separable")

# Symplectic form for the ordering (x_A, p_A, x_B, p_B).
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

# Partial transposition of the second mode flips the sign of p_B.
_PPT_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetrized quadrature covariance in the ordering (x_A, p_A, x_B, p_B)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise UnphysicalCovariance(f"covariance must be 4x4, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise UnphysicalCovariance("covariance entries must be finite")
        if np.abs(m - m.T).max() > 1e-12:
            raise UnphysicalCovariance("covariance must be symmetric")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CorrelationReport:
    """Normalized cross correlations and the symplectic separability verdict."""

    cor_xAxB: float
    cor_xApB: float
    cor_pAxB: float
    cor_pApB: float
    nu_min: float  # smallest symplectic eigenvalue of V
    nu_min_ppt: float  # same after partial transposition
    separable: bool


def _assemble(nA: float, nB: float, X: float, Y: float) -> CovarianceMatrix:
    half_x = 0.5 * X
    half_y = 0.5 * Y
    return CovarianceMatrix(
        np.array(
            [
                [nA + 0.5, 0.0, half_x, -half_y],
                [0.0, nA + 0.5, half_y, half_x],
                [half_x, half_y, nB + 0.5, 0.0],
                [-half_y, half_x, 0.0, nB + 0.5],
            ]
        )
    )


def covariance_local(moments: MomentState) -> CovarianceMatrix:
    """Covariance of the local steady state from the moments of bosonic nodes."""
    return _assemble(moments.nA, moments.nB, moments.X, moments.Y)


def covariance_global(basis: NormalModeBasis, n_plus: float, n_minus: float) -> CovarianceMatrix:
    """Covariance of the global steady state from its mode occupations."""
    nA = basis.c2 * n_plus + basis.s2 * n_minus
    nB = basis.s2 * n_plus + basis.c2 * n_minus
    X = 2.0 * basis.cs * (n_plus - n_minus)
    return _assemble(nA, nB, X, 0.0)


def symplectic_eigenvalues(cov: CovarianceMatrix) -> tuple[float, float]:
    """The two symplectic eigenvalues of V, ascending.

    They are the moduli of the (paired) eigenvalues of i Omega V; a valid
    quantum covariance has both >= 1/2.
    """
    return _symplectic_moduli(cov.matrix)


def _symplectic_moduli(v: np.ndarray) -> tuple[float, float]:
    mods = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ v)))
    return float(mods[0]), float(mods[2])


def _report_columns(nA, nB, X, Y) -> tuple[dict, list]:
    """The fields of moment_correlations' report, one list per field, and an error or None per row.

    The columns are converted to float64 once, and every operation but
    `math.hypot` (see model.cellwise) is numpy's in the order of one row's
    formulas, so a row's cells do not depend on the batch around it.  A row
    that fails holds NaN.
    """
    moments = np.array([nA, nB, X, Y], dtype=np.float64)
    nA, nB, X, Y = moments
    with np.errstate(all="ignore"):
        a, b, c = nA + 0.5, nB + 0.5, 0.5 * cellwise(math.hypot, X, Y)
        det = a * b - c * c
        h = 0.5 * (a - b)
        upper = 0.5 * (a + b) + cellwise(math.hypot, h, c)
        nu_min = det / upper
        # NaN or inf moments give NaN; the signed lower value fails a V that is not positive definite
        failed = ~((upper > 0.0) & (nu_min >= 0.5 - SYMPLECTIC_TOLERANCE))
        nu_min_ppt = det / (cellwise(math.hypot, h, np.sqrt(det)) + np.abs(h))
        scale = np.sqrt(a * b)
        cor_x, cor_y = 0.5 * X / scale, 0.5 * Y / scale
        cells = np.array([cor_x, -0.5 * Y / scale, cor_y, cor_x, nu_min, nu_min_ppt])
        separable = (nu_min_ppt >= 0.5 - SYMPLECTIC_TOLERANCE).astype(object)
    cells[:, failed], separable[failed] = math.nan, math.nan
    errors = [None] * len(failed)
    for i in failed.nonzero()[0].tolist():
        moment = tuple(moments[:, i].tolist())
        errors[i] = UnphysicalCovariance(f"moments {moment!r} break the uncertainty bound")
    return dict(zip(_REPORT, [*cells.tolist(), separable.tolist()])), errors


def moment_correlations(nA: float, nB: float, X: float, Y: float) -> CorrelationReport:
    """correlations(V) for the V of the four moments, in closed form; raises where it does.

    With a = nA + 1/2, b = nB + 1/2 and h = (a - b)/2, nu_+- = (a + b)/2 +- hypot(h, c)
    and the partial transpose's are hypot(h, sqrt(ab - c^2)) +- |h|.  Each pair
    multiplies to ab - c^2, which gives its lower value without cancellation.
    This is _report_columns on length-1 columns.
    """
    return CorrelationReport(**one_row(_report_columns, (nA, nB, X, Y)))


def moment_correlation_columns(nA, nB, X, Y) -> tuple[dict, list]:
    """moment_correlations over equal-length columns of moments, without a report per row.

    Returns a list of Python floats or bools per name in FIELDS and an
    UnphysicalCovariance or None per row, as errors.by_row does: a row that
    breaks the uncertainty bound holds NaN and fails alone.
    """
    columns, errors = _report_columns(nA, nB, X, Y)
    return {name: columns[name] for name in FIELDS}, errors


def correlations(cov: CovarianceMatrix) -> CorrelationReport:
    """Normalized cross-block correlations and the exact separability verdict.

    Raises UnphysicalCovariance when V is not positive definite, which
    V + (i/2) Omega >= 0 requires and the symplectic moduli cannot see, or
    violates the symplectic uncertainty bound beyond tolerance.  The
    separable flag is the partial-transpose bound, which for one mode per
    side is necessary and sufficient.
    """
    v = cov.matrix
    try:
        np.linalg.cholesky(v)
    except np.linalg.LinAlgError as exc:
        raise UnphysicalCovariance("covariance is not positive definite") from exc
    nu_min, _ = symplectic_eigenvalues(cov)
    if nu_min < 0.5 - SYMPLECTIC_TOLERANCE:
        raise UnphysicalCovariance(
            f"smallest symplectic eigenvalue {nu_min!r} is below the uncertainty bound 1/2"
        )
    # the flip only changes signs, so the transposed matrix stays exactly symmetric
    nu_min_ppt, _ = _symplectic_moduli(_PPT_FLIP @ v @ _PPT_FLIP)
    return CorrelationReport(
        cor_xAxB=v[0, 2] / math.sqrt(v[0, 0] * v[2, 2]),
        cor_xApB=v[0, 3] / math.sqrt(v[0, 0] * v[3, 3]),
        cor_pAxB=v[1, 2] / math.sqrt(v[1, 1] * v[2, 2]),
        cor_pApB=v[1, 3] / math.sqrt(v[1, 1] * v[3, 3]),
        nu_min=nu_min,
        nu_min_ppt=nu_min_ppt,
        separable=bool(nu_min_ppt >= 0.5 - SYMPLECTIC_TOLERANCE),
    )
