"""Local treatment: each node is damped by its own bath at its bare frequency.

The hot generator acts on node A alone and the cold one on node B alone,
each with downward rate gamma_l and upward weight exp(-beta_l omega_l).
Writing w_l = exp(-beta_l omega_l) and G_l = gamma_l (1 + delta w_l), the
quadratic moments

    nA = <a'a>,  nB = <b'b>,  X = <a'b + ab'>,  Y = i<a'b - ab'>

close for both statistics and obey the affine system dx/dt = A x + v:

    d nA / dt = -G_h nA + gamma_h w_h - epsilon Y
    d nB / dt = -G_c nB + gamma_c w_c + epsilon Y
    d X  / dt = -(G_h + G_c)/2 X + (omega_h - omega_c) Y
    d Y  / dt = -(G_h + G_c)/2 Y - (omega_h - omega_c) X + 2 epsilon (nA - nB)

The steady state is the unique solution of A x = -v, solved densely with
partial pivoting.  Heat currents are the generator expectations evaluated at
the solved moments,

    J_h = omega_h gamma_h (w_h - nA (1 + delta w_h)) - (epsilon gamma_h / 2) X (1 + delta w_h)

and J_c symmetrically from the cold generator, so the first law J_h + J_c = 0
is an output check, not an input assumption.  The entropy production rate is
sigma = -J_h/T_h - J_c/T_c; it changes sign with exp(beta_c omega_c) -
exp(beta_h omega_h), which is the whole point of auditing this treatment.

One kernel, `steady_states`, serves single points and grids alike: it takes
parameter columns, assembles the drift matrices as one (N, 4, 4) stack and
solves them in one batched call; `steady_state` and `affine_system` are its
size-1 cases.  The rates and the weights w_l are evaluated per row with
`math`: numpy's exp, expm1 and cube differ from `math`'s in the last bit on
a few percent of inputs, which would change the 17-digit tables the CLI
prints.  Everything after them is plain + - * / in the order of the scalar
formulas above, and numpy rounds those exactly as Python floats do.  A
failing row (a rate that overflows, a singular drift matrix) carries its
typed error in the result and never stops the other rows.
"""

import contextlib
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import bath
from .errors import HeatNetError, NegativeFrequency, RateOverflow, SingularSystem, by_row
from .model import NetworkParams


@dataclass(frozen=True)
class MomentState:
    """Second moments (nA, nB, X, Y) of the two-node state."""

    nA: float
    nB: float
    X: float
    Y: float

    def as_array(self) -> np.ndarray:
        return np.array([self.nA, self.nB, self.X, self.Y], dtype=float)


@dataclass(frozen=True)
class LocalSteadyState:
    """Steady moments plus the currents and entropy production they imply."""

    moments: MomentState
    J_h: float
    J_c: float
    sigma: float


@dataclass(frozen=True)
class LocalSteadyStates:
    """Column form of LocalSteadyState: row i belongs to the i-th parameter set.

    A row that failed has its typed error in `errors` and meaningless
    numbers; every other row's entry there is None.
    """

    moments: np.ndarray  # (N, 4) rows of (nA, nB, X, Y)
    J_h: np.ndarray
    J_c: np.ndarray
    sigma: np.ndarray
    errors: list[HeatNetError | None]


def _coefficients(
    omega_h: float, omega_c: float, T_h: float, T_c: float, kappa: float, delta: float
) -> tuple[float, float, float, float, float, float]:
    """gamma_h, gamma_c, w_h, w_c, G_h, G_c of one parameter set, in Python floats."""
    gamma_h, gamma_c = bath.rate(omega_h, T_h, kappa), bath.rate(omega_c, T_c, kappa)
    w_h = math.exp(-(1.0 / T_h) * omega_h)
    w_c = math.exp(-(1.0 / T_c) * omega_c)
    G_h = gamma_h * (1.0 + delta * w_h)
    G_c = gamma_c * (1.0 + delta * w_c)
    return gamma_h, gamma_c, w_h, w_c, G_h, G_c


_FAILED = (math.nan,) * 6  # the coefficients of a row whose rate failed

# Like Python floats, the column arithmetic overflows to inf and makes NaN
# without a warning.
_SILENT = {"over": "ignore", "invalid": "ignore"}


@np.errstate(**_SILENT)
def _assemble(omega_h, omega_c, epsilon, T_h, T_c, kappa, delta):
    """Stacks A (N, 4, 4) and v (N, 4) of dx/dt = A x + v, the G columns and the row errors.

    The coefficients are computed row by row (see the module docstring); a
    row whose rate fails keeps its error and NaN coefficients.
    """
    columns = (*(c.tolist() for c in (omega_h, omega_c, T_h, T_c, kappa)), repeat(delta))
    expected = (NegativeFrequency, RateOverflow)
    coefficients, errors = by_row(_coefficients, columns, _FAILED, expected)
    gamma_h, gamma_c, w_h, w_c, G_h, G_c = np.array(coefficients)
    zero = np.zeros_like(G_h)
    gap = omega_h - omega_c
    damp = 0.5 * (G_h + G_c)
    A = np.array(
        [
            [-G_h, zero, zero, -epsilon],
            [zero, -G_c, zero, epsilon],
            [zero, zero, -damp, gap],
            [2.0 * epsilon, -2.0 * epsilon, -gap, -damp],
        ]
    ).transpose(2, 0, 1)
    v = np.array([gamma_h * w_h, gamma_c * w_c, zero, zero]).T
    return A, v, G_h, G_c, errors


def _point(params: NetworkParams) -> tuple:
    """The length-1 columns and delta of one parameter set, in steady_states' order."""
    values = (params.omega_h, params.omega_c, params.epsilon, params.T_h, params.T_c, params.kappa)
    return (*np.array(values)[:, None], params.delta)


def _raise_first(errors: list[HeatNetError | None]) -> None:
    if errors[0] is not None:
        raise errors[0]


def affine_system(params: NetworkParams) -> tuple[np.ndarray, np.ndarray]:
    """Drift matrix A and inhomogeneity v of dx/dt = A x + v for x = (nA, nB, X, Y)."""
    A, v, _, _, errors = _assemble(*_point(params))
    _raise_first(errors)
    return A[0], v[0]


@np.errstate(**_SILENT)
def steady_states(omega_h, omega_c, epsilon, T_h, T_c, kappa, delta: float) -> LocalSteadyStates:
    """Steady states of the local moment system for equal-length parameter columns.

    delta is the statistics' sign, shared by every row.  The N drift
    matrices are solved in one batched call.  A singular one fails the whole
    batch; the rows are then solved one by one.  A row whose moments come
    out non-finite, from an exact zero pivot or not, fails as singular.
    """
    omega_h, omega_c, epsilon, T_h, T_c, kappa = (
        np.asarray(c, dtype=float) for c in (omega_h, omega_c, epsilon, T_h, T_c, kappa)
    )
    A, v, G_h, G_c, errors = _assemble(omega_h, omega_c, epsilon, T_h, T_c, kappa, delta)
    try:
        x = np.linalg.solve(A, -v[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        x = np.full(v.shape, math.nan)
        for i, error in enumerate(errors):
            if error is None:
                with contextlib.suppress(np.linalg.LinAlgError):  # x[i] stays NaN
                    x[i] = np.linalg.solve(A[i], -v[i])
    for i in np.flatnonzero(~np.isfinite(x).all(axis=1)).tolist():
        if errors[i] is None:  # finite coefficients, moments that are not
            errors[i] = SingularSystem("moment drift matrix is singular to working precision")
    J_h = omega_h * (v[:, 0] - G_h * x[:, 0]) - 0.5 * epsilon * G_h * x[:, 2]
    J_c = omega_c * (v[:, 1] - G_c * x[:, 1]) - 0.5 * epsilon * G_c * x[:, 2]
    sigma = -J_h / T_h - J_c / T_c
    return LocalSteadyStates(moments=x, J_h=J_h, J_c=J_c, sigma=sigma, errors=errors)


def steady_state(params: NetworkParams) -> LocalSteadyState:
    """Unique steady state of the local generator's moment system."""
    states = steady_states(*_point(params))
    _raise_first(states.errors)
    return LocalSteadyState(
        moments=MomentState(*states.moments[0].tolist()),
        J_h=float(states.J_h[0]),
        J_c=float(states.J_c[0]),
        sigma=float(states.sigma[0]),
    )


def heat_current_closed_form(params: NetworkParams) -> tuple[float, float]:
    """Steady J_h as the explicit rational expression, returned as (J_h, F).

    In the weights w_l and rates G_l of the moment system, with S = G_h + G_c,

        J_h = (w_h - w_c) s,  F = w_h w_c s,
        s = 4 eps^2 (omega_c G_h + omega_h G_c) / ((1 + delta w_h)(1 + delta w_c) Q) > 0,
        Q = S^2 + 4 eps^2 (S / G_h)(S / G_c) + 4 (omega_h - omega_c)^2,

    so J_h = (exp(beta_c omega_c) - exp(beta_h omega_h)) F carries the sign of
    the exponential contrast.  With w_l <= 1 and Q free of rate products
    beyond S^2, nothing overflows at large beta omega or underflows at tiny
    kappa, and dividing s's numerator and Q by max(2 eps, 1)^2 keeps eps^2
    from overflowing at large epsilon.  Independent of steady_state(), which
    solves the 4x4 system.
    """
    _, _, w_h, w_c, G_h, G_c = _coefficients(
        params.omega_h, params.omega_c, params.T_h, params.T_c, params.kappa, params.delta
    )
    # s's numerator and Q divided by m^2; for eps <= 1/2, m = 1 changes nothing
    m = max(2.0 * params.epsilon, 1.0)
    four_eps_sq = 4.0 * (params.epsilon / m) ** 2
    S = G_h + G_c
    thermal = (1.0 + params.delta * w_h) * (1.0 + params.delta * w_c)
    gap = (params.omega_h - params.omega_c) / m
    try:
        Q = (S / m) * (S / m) + four_eps_sq * (S / G_h) * (S / G_c) + 4.0 * gap**2
        s = four_eps_sq * (params.omega_c * G_h + params.omega_h * G_c) / (thermal * Q)
    except ZeroDivisionError as exc:
        raise SingularSystem(f"closed-form current divides by zero: {exc}") from exc
    return (w_h - w_c) * s, w_h * w_c * s
