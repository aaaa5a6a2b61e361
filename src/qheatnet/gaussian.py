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

`moment_correlations` takes this route for one set of moments and
`moment_correlation_columns` for columns of them, row by row through the
same arithmetic in Python floats (`math.hypot` is not numpy's), with one
list per name in FIELDS, the table's correlation columns, instead of a
report per row.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalCovariance, by_row
from .local_mme import MomentState
from .model import NormalModeBasis

# Slack on the nu >= 1/2 bounds, absorbing eigenvalue round-off.
SYMPLECTIC_TOLERANCE = 1e-10

# The columns of moment_correlation_columns, named as in the CLI table.
FIELDS = ("cor_xAxB", "cor_xApB", "cor_pAxB", "cor_pApB", "separable")

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


def _report_row(nA: float, nB: float, X: float, Y: float) -> tuple:
    """The fields of moment_correlations' report, in order; raises where it does."""
    a, b, c = nA + 0.5, nB + 0.5, 0.5 * math.hypot(X, Y)
    det = a * b - c * c
    h = 0.5 * (a - b)
    upper = 0.5 * (a + b) + math.hypot(h, c)
    # NaN or inf moments give NaN; the signed lower value fails a V that is not positive definite
    if not (upper > 0.0 and (nu_min := det / upper) >= 0.5 - SYMPLECTIC_TOLERANCE):
        raise UnphysicalCovariance(f"moments {(nA, nB, X, Y)!r} break the uncertainty bound")
    nu_min_ppt = det / (math.hypot(h, math.sqrt(det)) + abs(h))
    scale = math.sqrt(a * b)
    cor_x, cor_y = 0.5 * X / scale, 0.5 * Y / scale
    separable = nu_min_ppt >= 0.5 - SYMPLECTIC_TOLERANCE
    return cor_x, -0.5 * Y / scale, cor_y, cor_x, nu_min, nu_min_ppt, separable


def moment_correlations(nA: float, nB: float, X: float, Y: float) -> CorrelationReport:
    """correlations(V) for the V of the four moments, in closed form; raises where it does.

    With a = nA + 1/2, b = nB + 1/2 and h = (a - b)/2, nu_+- = (a + b)/2 +- hypot(h, c)
    and the partial transpose's are hypot(h, sqrt(ab - c^2)) +- |h|.  Each pair
    multiplies to ab - c^2, which gives its lower value without cancellation.
    """
    return CorrelationReport(*_report_row(nA, nB, X, Y))


def _correlation_row(nA: float, nB: float, X: float, Y: float) -> tuple:
    """The report's fields named in FIELDS, in that order; raises where the report does."""
    cor_xAxB, cor_xApB, cor_pAxB, cor_pApB, _, _, separable = _report_row(nA, nB, X, Y)
    return cor_xAxB, cor_xApB, cor_pAxB, cor_pApB, separable


def moment_correlation_columns(nA, nB, X, Y) -> tuple[dict, list]:
    """moment_correlations over equal-length columns of moments, without a report per row.

    Returns a list per name in FIELDS and an UnphysicalCovariance or None per
    row (see errors.by_row): a row that breaks the uncertainty bound fails alone.
    """
    return by_row(_correlation_row, (nA, nB, X, Y), FIELDS)


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
