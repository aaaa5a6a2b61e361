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
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bath
from .errors import SingularSystem
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

    @classmethod
    def from_array(cls, vec) -> "MomentState":
        nA, nB, X, Y = (float(v) for v in vec)
        return cls(nA=nA, nB=nB, X=X, Y=Y)


@dataclass(frozen=True)
class LocalSteadyState:
    """Steady moments plus the currents and entropy production they imply."""

    moments: MomentState
    J_h: float
    J_c: float
    sigma: float


def _coefficients(params: NetworkParams) -> tuple[float, float, float, float, float, float]:
    gamma_h, gamma_c = bath.local_rates(params)
    w_h = math.exp(-params.beta_h * params.omega_h)
    w_c = math.exp(-params.beta_c * params.omega_c)
    G_h = gamma_h * (1.0 + params.delta * w_h)
    G_c = gamma_c * (1.0 + params.delta * w_c)
    return gamma_h, gamma_c, w_h, w_c, G_h, G_c


def affine_system(params: NetworkParams) -> tuple[np.ndarray, np.ndarray]:
    """Drift matrix A and inhomogeneity v of dx/dt = A x + v for x = (nA, nB, X, Y)."""
    gamma_h, gamma_c, w_h, w_c, G_h, G_c = _coefficients(params)
    eps = params.epsilon
    gap = params.omega_h - params.omega_c
    damp = 0.5 * (G_h + G_c)
    A = np.array(
        [
            [-G_h, 0.0, 0.0, -eps],
            [0.0, -G_c, 0.0, eps],
            [0.0, 0.0, -damp, gap],
            [2.0 * eps, -2.0 * eps, -gap, -damp],
        ]
    )
    v = np.array([gamma_h * w_h, gamma_c * w_c, 0.0, 0.0])
    return A, v


def _currents(
    params: NetworkParams, A: np.ndarray, v: np.ndarray, x: np.ndarray
) -> tuple[float, float]:
    # A's diagonal holds -G_h, -G_c and v holds gamma_h w_h, gamma_c w_c.
    G_h, G_c = -A[0, 0], -A[1, 1]
    J_h = params.omega_h * (v[0] - G_h * x[0]) - 0.5 * params.epsilon * G_h * x[2]
    J_c = params.omega_c * (v[1] - G_c * x[1]) - 0.5 * params.epsilon * G_c * x[2]
    return float(J_h), float(J_c)


def steady_state(params: NetworkParams) -> LocalSteadyState:
    """Unique steady state of the local generator's moment system."""
    A, v = affine_system(params)
    try:
        x = np.linalg.solve(A, -v)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"moment drift matrix is singular: {exc}") from exc
    J_h, J_c = _currents(params, A, v, x)
    sigma = -J_h / params.T_h - J_c / params.T_c
    return LocalSteadyState(moments=MomentState.from_array(x), J_h=J_h, J_c=J_c, sigma=sigma)


def heat_current_closed_form(params: NetworkParams) -> tuple[float, float]:
    """Steady J_h as the explicit rational expression, returned as (J_h, F).

    In the weights w_l and rates G_l of the moment system, with S = G_h + G_c,

        J_h = (w_h - w_c) s,  F = w_h w_c s,
        s = 4 eps^2 (omega_c G_h + omega_h G_c) / ((1 + delta w_h)(1 + delta w_c) Q) > 0,
        Q = S^2 + 4 eps^2 (S / G_h)(S / G_c) + 4 (omega_h - omega_c)^2,

    so J_h = (exp(beta_c omega_c) - exp(beta_h omega_h)) F carries the sign of
    the exponential contrast.  With w_l <= 1 and Q free of rate products
    beyond S^2, nothing overflows at large beta omega or underflows at tiny
    kappa.  Independent of steady_state(), which solves the 4x4 system.
    """
    _, _, w_h, w_c, G_h, G_c = _coefficients(params)
    four_eps_sq = 4.0 * params.epsilon**2
    S = G_h + G_c
    Q = S * S + four_eps_sq * (S / G_h) * (S / G_c) + 4.0 * (params.omega_h - params.omega_c) ** 2
    thermal = (1.0 + params.delta * w_h) * (1.0 + params.delta * w_c)
    s = four_eps_sq * (params.omega_c * G_h + params.omega_h * G_c) / (thermal * Q)
    return (w_h - w_c) * s, w_h * w_c * s
