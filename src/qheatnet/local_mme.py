"""Local treatment: each node is damped by its own bath at its bare frequency.

The hot generator acts on node A alone and the cold one on node B alone,
each with downward rate gamma_l and upward weight w_l = exp(-beta_l omega_l).
With damping G_l = gamma_l (1 + delta w_l) and pumping p_l = gamma_l w_l,
the quadratic moments

    nA = <a'a>,  nB = <b'b>,  X = <a'b + ab'>,  Y = i<a'b - ab'>

close for both statistics and obey the affine system dx/dt = A x + v:

    d nA / dt = -G_h nA + p_h - epsilon Y
    d nB / dt = -G_c nB + p_c + epsilon Y
    d X  / dt = -(G_h + G_c)/2 X + (omega_h - omega_c) Y
    d Y  / dt = -(G_h + G_c)/2 Y - (omega_h - omega_c) X + 2 epsilon (nA - nB)

Its steady state follows by elimination.  With S = G_h + G_c, Delta =
omega_h - omega_c, A0 = (S^2 + 4 Delta^2) / S and D = A0 G_h G_c + 4 eps^2 S,

    nA = (p_h G_c A0 + 4 eps^2 (p_h + p_c)) / D,  nB likewise with h <-> c,
    Y = 4 eps (p_h G_c - p_c G_h) / D,  X = 2 Delta Y / S,
    J_h = eps Y (omega_h G_c + omega_c G_h) / S,  J_c = -J_h,

so the occupations are nonnegative and the first law holds by construction.
`_node` is the one node model: the kernel, `affine_system` and
`heat_current_closed_form` all take their rates from it, as the global
kernel and its closed form share `_rates`.  The checks are independent in
their algebra: a dense solve of `affine_system` solves the kernel's own
system without the elimination, the closed form groups the current as
(w_h - w_c) s, and both generators' expectations reduce to J_h at these
moments.  The entropy production rate sigma = -J_h/T_h - J_c/T_c
changes sign with exp(beta_c omega_c) - exp(beta_h omega_h), which is the
whole point of auditing this treatment.

One kernel, `steady_states`, serves single points and grids alike: it runs
`_row` on each row in Python floats through `errors.by_row`, like the global
kernel, and returns the columns named in FIELDS; `steady_state` is one `_row`
call.  The weights use `math`'s exp and expm1: numpy's differ in the last
bit on some inputs, which would change the 17-digit tables the CLI prints.
A failing row (a rate, moment or current beyond the float range, a system
singular to working precision) carries its typed error in the result and
never stops the other rows.
"""

import math
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import RateOverflow, SingularSystem, by_row
from .model import NetworkParams

# The smallest normal float: below it a product keeps fewer than 53 bits.
_TINY = sys.float_info.min

# The result columns of a row, named as in the CLI table.
FIELDS = ("n_A", "n_B", "X", "Y", "J_h", "J_c", "sigma")


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


def _node(omega: float, T: float, kappa: float, delta: float) -> tuple[float, float, float]:
    """Damping G = gamma (1 + delta w), pumping p = gamma w and weight w = exp(-omega/T) of a node.

    For bosons G is the bath identity gamma (1 - w) = kappa omega^3, exact
    where w rounds to 1.  Where omega/T underflows to 0, gamma is its limit
    kappa omega T omega, as in bath.rate.  Where kappa omega^3 underflows
    and gamma does not, gamma is formed without it, except for a boson whose
    G is a nonzero subnormal: there p follows G, so that p / G stays its
    occupation.  A G or p beyond the float range raises RateOverflow.
    """
    x = omega / T
    w = math.exp(-x)
    cube = kappa * omega * omega * omega
    gamma = cube / -math.expm1(-x) if x else kappa * (omega * T) * omega
    if x and cube < _TINY and not (delta < 0.0 and cube):
        # cube underflows where gamma need not, and so may any partial product:
        # multiply the mantissas and add the exponents.  A boson's G is cube
        # itself, so a nonzero cube keeps p = cube w / (1 - w) for p / G to stay
        # exact, and a subnormal gamma has too few digits to replace cube's quotient.
        (k, i), (o, j), (f, m) = map(math.frexp, (kappa, omega, omega / -math.expm1(-x)))
        scaled = math.ldexp(k * o * o * f, i + j + j + m)
        gamma = scaled if scaled >= _TINY else gamma
    G, p = (cube if delta < 0.0 else gamma * (1.0 + w)), gamma * w
    if not math.isfinite(G + p):
        raise RateOverflow(f"rate at omega={omega!r} with kappa={kappa!r} overflows")
    return G, p, w


def affine_system(params: NetworkParams) -> tuple[np.ndarray, np.ndarray]:
    """Drift matrix A and inhomogeneity v of dx/dt = A x + v for x = (nA, nB, X, Y)."""
    G_h, p_h, _ = _node(params.omega_h, params.T_h, params.kappa, params.delta)
    G_c, p_c, _ = _node(params.omega_c, params.T_c, params.kappa, params.delta)
    eps, gap, damp = params.epsilon, params.omega_h - params.omega_c, 0.5 * (G_h + G_c)
    A = np.array(
        [
            [-G_h, 0.0, 0.0, -eps],
            [0.0, -G_c, 0.0, eps],
            [0.0, 0.0, -damp, gap],
            [2.0 * eps, -2.0 * eps, -gap, -damp],
        ]
    )
    return A, np.array([p_h, p_c, 0.0, 0.0])


def _row(delta, omega_h, omega_c, epsilon, T_h, T_c, kappa) -> tuple:
    """One row in the order of FIELDS; raises the row's typed error.

    Rates enter as g_l = G_l / S and q_l = p_l / S; S, gap and epsilon as
    s, d, e over a power of two above S / 2, |gap| and epsilon, so no product
    of two rates or square overflows and the scaling is exact.  A scaled D
    that underflows even so is singular to working precision.
    """
    G_h, p_h, _ = _node(omega_h, T_h, kappa, delta)
    G_c, p_c, _ = _node(omega_c, T_c, kappa, delta)
    S = G_h + G_c
    gap = omega_h - omega_c
    k = math.frexp(max(0.5 * S, abs(gap), epsilon))[1]
    s, d, e = math.ldexp(S, -k), math.ldexp(gap, -k), math.ldexp(epsilon, -k)
    try:
        g_h, g_c, q_h, q_c = G_h / S, G_c / S, p_h / S, p_c / S
        lorentz, four_eps_sq = s * s + 4.0 * d * d, 4.0 * e * e
        den = lorentz * g_h * g_c + four_eps_sq
        nA = (lorentz * q_h * g_c + four_eps_sq * (q_h + q_c)) / den
        nB = (lorentz * q_c * g_h + four_eps_sq * (q_h + q_c)) / den
        flow = 4.0 * e * (q_h * g_c - q_c * g_h) / den
    except ZeroDivisionError as exc:
        raise SingularSystem("moment drift matrix is singular to working precision") from exc
    Y, X = s * flow, 2.0 * d * flow
    J_h = epsilon * Y * (omega_h * g_c + omega_c * g_h)
    J_c = -J_h
    sigma = -J_h / T_h - J_c / T_c
    if not math.isfinite(nA + nB + X + Y + J_h + sigma):  # an inf or NaN anywhere shows here
        raise RateOverflow("the steady moments or currents overflow")
    return nA, nB, X, Y, J_h, J_c, sigma


def steady_states(omega_h, omega_c, epsilon, T_h, T_c, kappa, delta: float) -> tuple[dict, list]:
    """Steady states of the local moment system for equal-length parameter columns.

    Returns a list per name in FIELDS and a typed error or None per row (see
    errors.by_row).  delta is the statistics' sign, shared by every row.
    Columns are lists of Python floats: numpy scalars would follow numpy's
    overflow rules.
    """
    return by_row(_row, (repeat(delta), omega_h, omega_c, epsilon, T_h, T_c, kappa), FIELDS)


def steady_state(params: NetworkParams) -> LocalSteadyState:
    """Unique steady state of the local generator's moment system: one row of the kernel."""
    values = (params.omega_h, params.omega_c, params.epsilon, params.T_h, params.T_c, params.kappa)
    nA, nB, X, Y, J_h, J_c, sigma = _row(params.delta, *values)
    return LocalSteadyState(moments=MomentState(nA, nB, X, Y), J_h=J_h, J_c=J_c, sigma=sigma)


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
    from overflowing at large epsilon.  It reads the kernel's node model
    (`_node`) and is independent of steady_state() in its algebra only, which
    eliminates the moment system with its own grouping.
    """
    G_h, _, w_h = _node(params.omega_h, params.T_h, params.kappa, params.delta)
    G_c, _, w_c = _node(params.omega_c, params.T_c, params.kappa, params.delta)
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
