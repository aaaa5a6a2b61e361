"""Global treatment: dissipation acts on the delocalised normal modes.

After rotating to the modes d_+- (bosonic nodes only), each bath couples to
both modes with weights fixed by the rotation angle:

    hot bath:   gamma_h(omega_+) cos^2(theta) on d_+ and gamma_h(omega_-) sin^2(theta) on d_-
    cold bath:  gamma_c(omega_+) sin^2(theta) on d_+ and gamma_c(omega_-) cos^2(theta) on d_-

with upward Boltzmann weights exp(-beta_l omega_+-) evaluated at the dressed
frequencies.  The two modes decouple, and the bath identity
gamma_l(omega) (1 - exp(-omega/T_l)) = kappa omega^3 takes the rates out of
each mode's balance: with the Bose factor n_l(omega) = 1/(exp(omega/T_l) - 1),

    n_+- = c_h n_h(omega_+-) + c_c n_c(omega_+-),
    J_h = kappa sum_+- omega_+-^4 c^2 s^2 (n_h(omega_+-) - n_c(omega_+-)),

where (c_h, c_c) = (c^2, s^2) for + and (s^2, c^2) for -.  Each occupation is
a convex mix of two Bose factors, and each term of J_h has the sign of
T_h - T_c: heat flows from hot to cold, and the entropy production
(beta_c - beta_h) J_h is nonnegative.  This treatment cannot violate the
second law, and the current shows why in one line.

The generator is secular: it drops the d_+ <-> d_- coherence coupling, which
is only justified when the mode splitting omega_+ - omega_- dominates all
rates.  The opposite regime is flagged via secular_warning instead of
refused, since the algebra stays well defined.  The fastest rate is the
one at omega_+ in the warmer bath; where it overflows, the flag is set.

One kernel, `steady_states`, serves single points and grids alike: it
solves all rows at once over numpy columns of the six parameters and
returns the columns named in FIELDS and a typed error or None per row;
`steady_state` is the kernel on length-1 columns.  Three things go cell by
cell in Python floats: `math`'s exp and expm1 in the Bose factors (numpy's
differ in the last bit on some inputs, which would change the 17-digit
tables the CLI prints), the logarithm path of a mode current, taken only
where the product leaves the normal range, and `bath.rate` for the
warning.  Every other operation is numpy's, in the order and association
of one row's formulas, so each cell is the float that Python's arithmetic
gives for that row alone.  No division by a mode's loss remains, so the
only row errors are the spectrum's and a cell beyond the float range.  The
closed form and the channel table keep the dressed rates and
exp(-beta omega) of `_setup`; with the kernel they share the basis and
`bath.rate`, which the kernel reads for the warning alone, so they remain
the other side of its audit.
"""

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import bath
from .errors import RateOverflow, SingularSystem, one_row
from .model import (
    _TINY, NetworkParams, NormalModeBasis, Statistics, cellwise, normal_mode_basis, normal_mode_columns,
)

# Warn when the mode splitting is within this factor of the fastest rate.
SECULAR_FACTOR = 10.0

# The result columns of a row, named as in the CLI table.
FIELDS = ("n_A", "n_B", "X", "Y", "n_plus", "n_minus", "J_h", "J_c", "sigma", "secular_warning")


@dataclass(frozen=True)
class GlobalSteadyState:
    """Steady normal-mode occupations and the observables rebuilt from them."""

    n_plus: float
    n_minus: float
    nA: float  # cos^2 n_+ + sin^2 n_-
    nB: float  # sin^2 n_+ + cos^2 n_-
    J_h: float
    J_c: float
    sigma: float
    secular_warning: bool


@dataclass(frozen=True)
class DissipationChannel:
    """One Lindblad channel of the generator written in the node basis.

    kind selects the jump structure: 'a' and 'b' are single-node thermal
    channels, 'cross' is the symmetric two-node channel
    a rho b' + b rho a' - {a'b + b'a, rho}/2 (plus its Boltzmann-weighted
    upward partner).  weight multiplies the whole channel and is signed for
    'cross'; boltzmann is the upward weight exp(-beta omega) of the dressed
    transition the channel descends from.
    """

    kind: str
    weight: float
    boltzmann: float


@dataclass(frozen=True)
class LocalBasisGenerator:
    """The global generator expanded over node operators, per bath."""

    hot: tuple[DissipationChannel, ...]
    cold: tuple[DissipationChannel, ...]


def _setup(params: NetworkParams) -> tuple[NormalModeBasis, tuple[float, ...], tuple[float, ...]]:
    """Basis, dressed rates and upward weights exp(-beta omega), the latter two ordered (h+, h-, c+, c-).

    Only the closed form and the channel table read rates; the kernel needs none.
    """
    basis = normal_mode_basis(params)
    frequencies = (basis.omega_plus, basis.omega_minus) * 2
    temperatures = (params.T_h, params.T_h, params.T_c, params.T_c)
    rates = tuple(map(bath.rate, frequencies, temperatures, repeat(params.kappa)))
    weights = tuple(map(bath.boltzmann, frequencies, temperatures))
    return basis, rates, weights


def _bose(omega: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Bose factor 1 / (exp(x) - 1) at x = omega/T, formed as exp(-x) / (1 - exp(-x)).

    That form does not overflow past x = 709 as 1/expm1(x) would.  Where x
    is below the smallest normal float, whose few bits would not carry the
    quotient, it is the limit T/omega.  exp and expm1 are `math`'s (see
    model.cellwise).
    """
    x = omega / T
    minus_x = -x
    return np.where(x < _TINY, T / omega, cellwise(math.exp, minus_x) / -cellwise(math.expm1, minus_x))


def _log_bose(omega: float, T: float) -> float:
    """ln of one cell's _bose(omega, T), finite where the factor itself under- or overflows."""
    x = omega / T
    return math.log(T) - math.log(omega) if x < _TINY else -x - math.log(-math.expm1(-x))


def _log_current(kappa, omega, cs2, dn, T_h, T_c, epsilon, gap) -> float:
    """One cell of _mode_currents where the product leaves the normal range."""
    # c^2 s^2 = (epsilon / (omega_+ - omega_-))^2; where it underflows,
    # epsilon is so far below the detuning that the splitting is
    # |omega_h - omega_c| to every digit
    log_cs2 = math.log(cs2) if cs2 >= _TINY else 2.0 * (math.log(epsilon) - math.log(abs(gap)))
    if _TINY <= abs(dn) < math.inf:
        log_dn, sign = math.log(abs(dn)), dn
    else:
        l_h, l_c = _log_bose(omega, T_h), _log_bose(omega, T_c)
        if l_h == l_c:  # equal temperatures, or both factors below any float's logarithm
            return 0.0
        log_dn, sign = max(l_h, l_c) + math.log(-math.expm1(-abs(l_h - l_c))), l_h - l_c
    try:
        return math.copysign(math.exp(math.log(kappa) + 4.0 * math.log(omega) + log_cs2 + log_dn), sign)
    except OverflowError:
        return math.inf


def _mode_currents(kappa, omega, cs2, dn, T_h, T_c, epsilon, gap, coupled) -> np.ndarray:
    """Hot currents kappa omega^4 c^2 s^2 dn through the modes at omega, with dn = n_h - n_c.

    omega and dn hold one row per mode; the other arguments, gap = omega_h -
    omega_c and the mask `coupled` of rows with a coupling and a spectrum
    among them, hold one cell per point.  Each current is formed as q =
    kappa omega^4 times p = c^2 s^2 dn.  The partial products of q run
    monotonically from kappa to q, so where kappa, q, c^2 s^2, p and the
    current are normal floats, no digit was lost on the way.  Elsewhere, in
    coupled rows, the current is the exponential of a sum of logarithms,
    ln|dn| coming from l = ln n of each bath as l_> + ln(1 - exp(l_< - l_>))
    where dn itself leaves the normal range.  A current beyond the float
    range is inf.
    """
    q, p = kappa * omega * omega * omega * omega, cs2 * dn
    current = q * p
    size = np.abs(current)
    normal = (kappa >= _TINY) & (cs2 >= _TINY) & (q >= _TINY) & (np.abs(p) >= _TINY)
    normal &= (_TINY <= size) & (size < math.inf)  # a NaN fails here
    for mode, i in zip(*(~normal & coupled).nonzero()):
        cell = kappa[i], omega[mode, i], cs2[i], dn[mode, i], T_h[i], T_c[i], epsilon[i], gap[i]
        current[mode, i] = _log_current(*(value.item() for value in cell))
    return current


def _secular(splitting: float, omega: float, T: float, kappa: float) -> bool:
    """Whether the splitting is within SECULAR_FACTOR of the rate at omega and T."""
    try:
        return splitting < SECULAR_FACTOR * bath.rate(omega, T, kappa)
    except RateOverflow:  # a rate beyond the float range exceeds any splitting
        return True


def steady_states(
    omega_h, omega_c, epsilon, T_h, T_c, kappa, statistics: Statistics
) -> tuple[dict, list]:
    """Steady states of the global generator for equal-length parameter columns.

    Returns a list of Python floats or bools per name in FIELDS and a typed
    error or None per row, as errors.by_row does: a failed row holds NaN.
    statistics is shared by every row.  The columns are converted to float64
    once and solved together (see the module docstring).  A row's first
    error wins: the statistics, the spectrum (see model.normal_mode_columns),
    then an occupation or current beyond the float range.

    X = 2 cos(theta) sin(theta) (n_+ - n_-) and Y = 0 are the moments of the
    node basis (see gaussian).
    """
    columns = np.array([omega_h, omega_c, epsilon, T_h, T_c, kappa], dtype=np.float64)
    omega_h, omega_c, epsilon, T_h, T_c, kappa = columns
    (wp, wm, c2, s2), errors = normal_mode_columns(omega_h, omega_c, epsilon, statistics)
    spectrum = np.array([error is not None for error in errors], dtype=bool)
    with np.errstate(all="ignore"):
        n_hp, n_cp, n_hm, n_cm = _bose(np.array([wp, wp, wm, wm]), np.array([T_h, T_c, T_h, T_c]))
        cs2 = c2 * s2
        # with epsilon = 0 each mode is a node, fed by its own bath alone
        uncoupled, hot_plus = epsilon == 0.0, c2 != 0.0
        n_p = np.where(uncoupled, np.where(hot_plus, n_hp, n_cp), c2 * n_hp + s2 * n_cp)
        n_m = np.where(uncoupled, np.where(hot_plus, n_cm, n_hm), s2 * n_hm + c2 * n_cm)
        modes, dn = np.array([wp, wm]), np.array([n_hp - n_cp, n_hm - n_cm])
        coupled, gap = ~uncoupled & ~spectrum, omega_h - omega_c
        J_plus, J_minus = _mode_currents(kappa, modes, cs2, dn, T_h, T_c, epsilon, gap, coupled)
        J_h = np.where(uncoupled, 0.0, J_plus + J_minus)
        J_c = -J_h
        X = 2.0 * np.sqrt(cs2) * (n_p - n_m)
        nA, nB, sigma = c2 * n_p + s2 * n_m, s2 * n_p + c2 * n_m, -J_h / T_h - J_c / T_c
        overflow = ~np.isfinite(n_p + n_m + nA + nB + X + J_h + sigma)  # an inf or NaN shows here
    cells = np.array([nA, nB, X, np.zeros_like(X), n_p, n_m, J_h, J_c, sigma])
    failed = spectrum | overflow
    cells[:, failed] = math.nan
    for i in (overflow & ~spectrum).nonzero()[0].tolist():
        errors[i] = RateOverflow("the steady occupations or currents overflow")
    # the rate grows with omega and T: the fastest is at omega_+ in the warmer bath
    solved = ~failed
    rows = (wp - wm, wp, np.maximum(T_h, T_c), kappa)
    warning = np.full(len(errors), math.nan, dtype=object)
    warning[solved] = list(map(_secular, *(column[solved].tolist() for column in rows)))
    return dict(zip(FIELDS, [*cells.tolist(), warning.tolist()])), errors


def steady_state(params: NetworkParams) -> GlobalSteadyState:
    """Steady state of the global generator: one row of the kernel."""
    values = (params.omega_h, params.omega_c, params.epsilon, params.T_h, params.T_c, params.kappa)
    row = one_row(steady_states, values, params.statistics)
    nA, nB, _, _, n_p, n_m, J_h, J_c, sigma, warning = row.values()
    return GlobalSteadyState(n_p, n_m, nA, nB, J_h, J_c, sigma, warning)


def heat_current_closed_form(params: NetworkParams) -> float:
    """Steady J_h as an explicit two-term rational expression.

    Each term is the detailed-balance current through one normal mode,

        omega c_h c_c (x_h - x_c) / (c_h (1 - x_c) / g_h + c_c (1 - x_h) / g_c),

    with x_l = exp(-beta_l omega) <= 1, dressed rates g_l and channel weights
    c_l (cos^2 or sin^2).  The bath identity g_h (1 - x_h) = g_c (1 - x_c) =
    kappa omega^3 leaves no product of rates to underflow.  Each term carries
    the sign of x_h - x_c and so vanishes at equal temperatures; both vanish
    at epsilon = 0 through the cos^2 sin^2 prefactor.
    Independent of steady_state(), which needs no rate and sums Bose factors.
    """
    basis, (gh_p, gh_m, gc_p, gc_m), (xh_p, xh_m, xc_p, xc_m) = _setup(params)
    c2, s2 = basis.c2, basis.s2

    def term(omega: float, g_h: float, g_c: float, x_h: float, x_c: float, c_h: float, c_c: float):
        return omega * c_h * c_c * (x_h - x_c) / (c_h * (1.0 - x_c) / g_h + c_c * (1.0 - x_h) / g_c)

    wp, wm = basis.omega_plus, basis.omega_minus
    try:
        return term(wp, gh_p, gc_p, xh_p, xc_p, c2, s2) + term(wm, gh_m, gc_m, xh_m, xc_m, s2, c2)
    except ZeroDivisionError as exc:
        raise SingularSystem(f"closed-form current divides by zero: {exc}") from exc


def local_basis_generator(params: NetworkParams) -> LocalBasisGenerator:
    """Expand the global dissipators over node operators a and b.

    Substituting d_+ = c a + s b and d_- = c b - s a into the mode channels
    and collecting terms yields, per bath, two 'a' channels, two 'b' channels
    and two signed 'cross' channels, one of each pair per dressed frequency.
    At epsilon = 0 the table collapses to the local generator's single-node
    channels evaluated at the bare frequencies.
    """
    basis, (gh_p, gh_m, gc_p, gc_m), (x_h_p, x_h_m, x_c_p, x_c_m) = _setup(params)
    c2, s2, cs = basis.c2, basis.s2, basis.cs
    hot = (
        DissipationChannel("a", gh_p * c2 * c2, x_h_p),
        DissipationChannel("a", gh_m * s2 * s2, x_h_m),
        DissipationChannel("b", gh_p * c2 * s2, x_h_p),
        DissipationChannel("b", gh_m * c2 * s2, x_h_m),
        DissipationChannel("cross", gh_p * c2 * cs, x_h_p),
        DissipationChannel("cross", -gh_m * s2 * cs, x_h_m),
    )
    cold = (
        DissipationChannel("a", gc_p * c2 * s2, x_c_p),
        DissipationChannel("a", gc_m * c2 * s2, x_c_m),
        DissipationChannel("b", gc_p * s2 * s2, x_c_p),
        DissipationChannel("b", gc_m * c2 * c2, x_c_m),
        DissipationChannel("cross", gc_p * s2 * cs, x_c_p),
        DissipationChannel("cross", -gc_m * c2 * cs, x_c_m),
    )
    return LocalBasisGenerator(hot=hot, cold=cold)
