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
`_nodes` is the one node model: the kernel, `affine_system` and
`heat_current_closed_form` all take their rates from it (the global kernel
needs no rates, and its closed form takes them from `bath.rate`).  The
checks are independent in
their algebra: a dense solve of `affine_system` solves the kernel's own
system without the elimination, the closed form groups the current as
(w_h - w_c) s, and both generators' expectations reduce to J_h at these
moments.  The entropy production rate sigma = -J_h/T_h - J_c/T_c
changes sign with exp(beta_c omega_c) - exp(beta_h omega_h), which is the
whole point of auditing this treatment.

One kernel, `steady_states`, serves single points and grids alike: it
solves all rows at once over numpy columns of the six parameters and
returns the columns named in FIELDS; `steady_state` is the kernel on
length-1 columns.  The weights and thermal factors use `math`'s exp and
expm1 cell by cell: numpy's differ in the last bit on some inputs, which
would change the 17-digit tables the CLI prints.  Every other operation is
numpy's, in the order and association of one row's formulas, so each cell
is the float that Python's arithmetic gives for that row alone.  A failing
row (a rate, moment or current beyond the float range, a system singular to
working precision) carries its typed error in the result and never stops
the other rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RateOverflow, SingularSystem, one_row
from .model import _TINY, NetworkParams

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


def _nodes(omega: np.ndarray, T: np.ndarray, kappa: np.ndarray | float, delta: float) -> tuple:
    """Damping G = gamma (1 + delta w), pumping p = gamma w and weight w = exp(-omega/T) of nodes.

    Takes float64 arrays of frequencies and temperatures, kappa as an array
    or one float and the statistics' sign delta, and returns the arrays G, p
    and w and a mask of the nodes whose G or p is beyond the float range.
    exp and expm1 are `math`'s, cell by cell, and every other operation is
    numpy's in the scalar formulas' order (see the module docstring).

    For bosons G is the bath identity gamma (1 - w) = kappa omega^3, exact
    where w rounds to 1.  Where omega/T is below the smallest normal float,
    gamma is its limit kappa omega T omega, as in bath.rate.  Where
    kappa omega^3 underflows and gamma does not, gamma is formed without it,
    except for a boson whose G is a nonzero subnormal: there p follows G, so
    that p / G stays its occupation.
    """
    with np.errstate(all="ignore"):
        x = omega / T
        minus_x = (-x).ravel().tolist()
        w, expm1 = (
            np.fromiter(map(function, minus_x), np.float64, len(minus_x)).reshape(x.shape)
            for function in (math.exp, math.expm1)
        )
        cube = kappa * omega * omega * omega
        limit = x < _TINY
        wide = omega * T
        near = np.where(wide < math.inf, kappa * wide * omega, kappa * omega * T * omega)
        gamma = np.where(limit, near, cube / -expm1)
        # cube underflows where gamma need not, and so may any partial product:
        # multiply the mantissas and add the exponents.  A boson's G is cube
        # itself, so a nonzero cube keeps p = cube w / (1 - w) for p / G to stay
        # exact, and a subnormal gamma has too few digits to replace cube's quotient.
        (k, i), (o, j), (f, m) = np.frexp(kappa), np.frexp(omega), np.frexp(omega / -expm1)
        scaled = np.ldexp(k * o * o * f, i + j + j + m)
        split = ~limit & (cube < _TINY) & (scaled >= _TINY)
        if delta < 0.0:
            split &= cube == 0.0
        gamma = np.where(split, scaled, gamma)
        G, p = (cube if delta < 0.0 else gamma * (1.0 + w)), gamma * w
        return G, p, w, ~np.isfinite(G + p)


def _rate_overflow(omega: float, kappa: float) -> RateOverflow:
    return RateOverflow(f"rate at omega={omega!r} with kappa={kappa!r} overflows")


def _point_nodes(params: NetworkParams) -> tuple[list[float], list[float], list[float]]:
    """G, p and w of the hot and the cold node of one point, as Python floats.

    Raises RateOverflow for the hot node first, as the kernel does.
    """
    omega, T = (params.omega_h, params.omega_c), (params.T_h, params.T_c)
    G, p, w, overflow = _nodes(np.array(omega), np.array(T), params.kappa, params.delta)
    for value, failed in zip(omega, overflow.tolist()):
        if failed:
            raise _rate_overflow(value, params.kappa)
    return G.tolist(), p.tolist(), w.tolist()


def affine_system(params: NetworkParams) -> tuple[np.ndarray, np.ndarray]:
    """Drift matrix A and inhomogeneity v of dx/dt = A x + v for x = (nA, nB, X, Y)."""
    (G_h, G_c), (p_h, p_c), _ = _point_nodes(params)
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


def steady_states(omega_h, omega_c, epsilon, T_h, T_c, kappa, delta: float) -> tuple[dict, list]:
    """Steady states of the local moment system for equal-length parameter columns.

    Returns a list of Python floats per name in FIELDS and a typed error or
    None per row, as errors.by_row does: a failed row holds NaN.  delta is
    the statistics' sign, shared by every row.  The columns are converted to
    float64 once and solved together, every operation in numpy in the order
    and association of one row's formulas, so a row's cells do not depend
    on the batch around it.

    Rates enter as g_l = G_l / S and q_l = p_l / S; S, gap and epsilon as
    s, d, e over a power of two above S / 2, |gap| and epsilon, so no product
    of two rates or square overflows and the scaling is exact.  A row's
    error is the first that applies of: the hot node's RateOverflow, the
    cold node's, SingularSystem where S or the scaled D is 0 (singular to
    working precision), and RateOverflow where any cell is not finite.
    """
    columns = np.array([omega_h, omega_c, epsilon, T_h, T_c, kappa], dtype=np.float64)
    omega_h, omega_c, epsilon, T_h, T_c, kappa = columns
    # the hot and the cold nodes as the two rows of one call
    (G_h, G_c), (p_h, p_c), _, (hot, cold) = _nodes(columns[:2], columns[3:5], kappa, delta)
    with np.errstate(all="ignore"):
        S = G_h + G_c
        gap = omega_h - omega_c
        k = -np.frexp(np.maximum(np.maximum(0.5 * S, np.abs(gap)), epsilon))[1]
        s, d, e = np.ldexp(S, k), np.ldexp(gap, k), np.ldexp(epsilon, k)
        g_h, g_c, q_h, q_c = G_h / S, G_c / S, p_h / S, p_c / S
        lorentz, four_eps_sq = s * s + 4.0 * d * d, 4.0 * e * e
        den = lorentz * g_h * g_c + four_eps_sq
        nA = (lorentz * q_h * g_c + four_eps_sq * (q_h + q_c)) / den
        nB = (lorentz * q_c * g_h + four_eps_sq * (q_h + q_c)) / den
        flow = 4.0 * e * (q_h * g_c - q_c * g_h) / den
        Y, X = s * flow, 2.0 * d * flow
        J_h = epsilon * Y * (omega_h * g_c + omega_c * g_h)
        J_c = -J_h
        sigma = -J_h / T_h - J_c / T_c
        singular = (S == 0.0) | (den == 0.0)
        overflow = ~np.isfinite(nA + nB + X + Y + J_h + sigma)  # an inf or NaN anywhere shows here
    cells = np.array([nA, nB, X, Y, J_h, J_c, sigma])
    failed = hot | cold | singular | overflow
    cells[:, failed] = math.nan
    errors = [None] * len(failed)
    for i in failed.nonzero()[0].tolist():
        if hot[i]:
            errors[i] = _rate_overflow(omega_h[i].item(), kappa[i].item())
        elif cold[i]:
            errors[i] = _rate_overflow(omega_c[i].item(), kappa[i].item())
        elif singular[i]:
            errors[i] = SingularSystem("moment drift matrix is singular to working precision")
        else:
            errors[i] = RateOverflow("the steady moments or currents overflow")
    return dict(zip(FIELDS, cells.tolist())), errors


def steady_state(params: NetworkParams) -> LocalSteadyState:
    """Unique steady state of the local generator's moment system: one row of the kernel."""
    values = (params.omega_h, params.omega_c, params.epsilon, params.T_h, params.T_c, params.kappa)
    nA, nB, X, Y, J_h, J_c, sigma = one_row(steady_states, values, params.delta).values()
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
    from overflowing at large epsilon.  A rate of 0 raises SingularSystem,
    and a value that still leaves the float range on the way (a detuning
    above about 1e154 times max(2 eps, 1), say) raises RateOverflow.  It
    reads the kernel's node model (`_nodes`) and is independent of
    steady_state() in its algebra only, which eliminates the moment system
    with its own grouping.
    """
    (G_h, G_c), _, (w_h, w_c) = _point_nodes(params)
    # s's numerator and Q divided by m^2; for eps <= 1/2, m = 1 changes nothing
    m = max(2.0 * params.epsilon, 1.0)
    four_eps_sq = 4.0 * (params.epsilon / m) ** 2
    S = G_h + G_c
    thermal = (1.0 + params.delta * w_h) * (1.0 + params.delta * w_c)
    gap = (params.omega_h - params.omega_c) / m
    try:
        Q = (S / m) * (S / m) + four_eps_sq * (S / G_h) * (S / G_c) + 4.0 * gap * gap
        s = four_eps_sq * (params.omega_c * G_h + params.omega_h * G_c) / (thermal * Q)
    except ZeroDivisionError as exc:
        raise SingularSystem(f"closed-form current divides by zero: {exc}") from exc
    J_h, F = (w_h - w_c) * s, w_h * w_c * s
    if not math.isfinite(J_h + F):  # an intermediate beyond the float range leaves inf or NaN
        raise RateOverflow("the closed-form current overflows")
    return J_h, F
