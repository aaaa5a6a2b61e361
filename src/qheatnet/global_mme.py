"""Global treatment: dissipation acts on the delocalised normal modes.

After rotating to the modes d_+- (bosonic nodes only), each bath couples to
both modes with weights fixed by the rotation angle:

    hot bath:   gamma_h(omega_+) cos^2(theta) on d_+ and gamma_h(omega_-) sin^2(theta) on d_-
    cold bath:  gamma_c(omega_+) sin^2(theta) on d_+ and gamma_c(omega_-) cos^2(theta) on d_-

with upward Boltzmann weights exp(-beta_l omega_+-) evaluated at the dressed
frequencies.  The two modes decouple, so each steady occupation n_+- is a
two-bath detailed-balance mixture and the currents follow per mode.  Because
every exchange happens at a single dressed frequency shared by both baths,
the entropy production rate (beta_c - beta_h) * J_h is nonnegative whenever
the currents are, i.e. this treatment cannot violate the second law.

The generator is secular: it drops the d_+ <-> d_- coherence coupling, which
is only justified when the mode splitting omega_+ - omega_- dominates all
rates.  The opposite regime is flagged via secular_warning instead of
refused, since the algebra stays well defined.

One kernel, `steady_states`, serves single points and grids alike: it maps
parameter columns to result columns and a typed error or None per row, and
`steady_state` is its size-1 case.  Rows are solved one by one in Python
floats: the basis, rates and weights need `math`'s hypot and exp per element
(numpy's differ in the last bit on some inputs, which would change the
17-digit tables the CLI prints), and the two mode balances after them gained
about a tenth in numpy on a 2 500-row grid but made one point many times
slower.  The closed form and the channel table share only the basis and the
rates with the kernel: they are the other side of its audit.
"""

import math
from dataclasses import dataclass
from itertools import repeat

from . import bath
from .errors import HeatNetError, SingularSystem, by_row
from .model import NetworkParams, NormalModeBasis, Statistics, normal_mode_basis, normal_modes

# Warn when the mode splitting is within this factor of the fastest rate.
SECULAR_FACTOR = 10.0


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
    basis: NormalModeBasis  # the rotation the occupations were solved in


@dataclass
class GlobalSteadyStates:
    """Column form of GlobalSteadyState: entry i of each list belongs to the i-th parameter set.

    X = 2 cos(theta) sin(theta) (n_+ - n_-) and Y = 0 are the moments of the
    node basis (see gaussian); omega_plus to s2 are the rows' NormalModeBasis.
    A row that failed has its typed error in `errors` and NaN in every
    column; every other row's entry there is None.  The lists are the
    caller's to write into, so unlike GlobalSteadyState this is not frozen.
    """

    nA: list
    nB: list
    X: list
    Y: list
    n_plus: list
    n_minus: list
    J_h: list
    J_c: list
    sigma: list
    secular_warning: list
    omega_plus: list
    omega_minus: list
    c2: list
    s2: list
    errors: list[HeatNetError | None]


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


def _rates(
    omega_plus: float, omega_minus: float, T_h: float, T_c: float, kappa: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Dressed rates and upward weights exp(-beta omega), each ordered (h+, h-, c+, c-)."""
    rates = (
        bath.rate(omega_plus, T_h, kappa),
        bath.rate(omega_minus, T_h, kappa),
        bath.rate(omega_plus, T_c, kappa),
        bath.rate(omega_minus, T_c, kappa),
    )
    beta_h, beta_c = 1.0 / T_h, 1.0 / T_c
    weights = (
        math.exp(-beta_h * omega_plus),
        math.exp(-beta_h * omega_minus),
        math.exp(-beta_c * omega_plus),
        math.exp(-beta_c * omega_minus),
    )
    return rates, weights


def _setup(params: NetworkParams) -> tuple[NormalModeBasis, tuple[float, ...], tuple[float, ...]]:
    """Basis, dressed rates and upward weights, the latter two ordered (h+, h-, c+, c-)."""
    basis = normal_mode_basis(params)
    return basis, *_rates(basis.omega_plus, basis.omega_minus, params.T_h, params.T_c, params.kappa)


def _mode_balance(
    omega: float, k_h: float, x_h: float, k_c: float, x_c: float
) -> tuple[float, float, float]:
    """Occupation and per-bath currents of one mode fed by two thermal channels.

    k_l are the downward channel strengths gamma_l^sigma * weight, x_l the
    upward Boltzmann weights exp(-beta_l omega).  Steady state balances
    total up-pumping k_l x_l against total decay k_l (1 - x_l).
    """
    loss = k_h * (1.0 - x_h) + k_c * (1.0 - x_c)
    if loss == 0.0:  # x_l rounds to 1 on both channels, or both rates underflow
        raise SingularSystem(f"the mode at omega = {omega!r} has no net decay")
    n = (k_h * x_h + k_c * x_c) / loss
    J_h = omega * k_h * (x_h - (1.0 - x_h) * n)
    J_c = omega * k_c * (x_c - (1.0 - x_c) * n)
    return n, J_h, J_c


def _row(statistics: Statistics, omega_h, omega_c, epsilon, T_h, T_c, kappa) -> tuple:
    """One row of GlobalSteadyStates, in its field order; raises the row's typed error."""
    wp, wm, c2, s2 = normal_modes(omega_h, omega_c, epsilon, statistics)
    (gh_p, gh_m, gc_p, gc_m), (xh_p, xh_m, xc_p, xc_m) = _rates(wp, wm, T_h, T_c, kappa)
    n_p, Jh_p, Jc_p = _mode_balance(wp, gh_p * c2, xh_p, gc_p * s2, xc_p)
    n_m, Jh_m, Jc_m = _mode_balance(wm, gh_m * s2, xh_m, gc_m * c2, xc_m)
    J_h = Jh_p + Jh_m
    J_c = Jc_p + Jc_m
    X = 2.0 * math.sqrt(c2 * s2) * (n_p - n_m)
    warning = (wp - wm) < SECULAR_FACTOR * max(gh_p, gh_m, gc_p, gc_m)
    nA, nB, sigma = c2 * n_p + s2 * n_m, s2 * n_p + c2 * n_m, -J_h / T_h - J_c / T_c
    return nA, nB, X, 0.0, n_p, n_m, J_h, J_c, sigma, warning, wp, wm, c2, s2


_FAILED = (math.nan,) * 14  # the columns of a failed row


def steady_states(
    omega_h, omega_c, epsilon, T_h, T_c, kappa, statistics: Statistics
) -> GlobalSteadyStates:
    """Steady states of the global generator for equal-length parameter columns.

    statistics is shared by every row.  A row's first error wins: the
    statistics, the spectrum, the rates in the order h+, h-, c+, c-, then
    the + mode's balance and the - mode's.
    """
    parameters = (repeat(statistics), omega_h, omega_c, epsilon, T_h, T_c, kappa)
    columns, errors = by_row(_row, parameters, _FAILED)
    return GlobalSteadyStates(*columns, errors=errors)


def steady_state(params: NetworkParams) -> GlobalSteadyState:
    """Steady state of the global generator from per-mode detailed balance."""
    values = (params.omega_h, params.omega_c, params.epsilon, params.T_h, params.T_c, params.kappa)
    s = steady_states(*([value] for value in values), params.statistics)
    if s.errors[0] is not None:
        raise s.errors[0]
    return GlobalSteadyState(
        n_plus=s.n_plus[0], n_minus=s.n_minus[0], nA=s.nA[0], nB=s.nB[0], J_h=s.J_h[0],
        J_c=s.J_c[0], sigma=s.sigma[0], secular_warning=s.secular_warning[0],
        basis=NormalModeBasis(s.omega_plus[0], s.omega_minus[0], s.c2[0], s.s2[0]),
    )


def heat_current_closed_form(params: NetworkParams) -> float:
    """Steady J_h as an explicit two-term rational expression.

    Each term is the detailed-balance current through one normal mode,

        omega c_h c_c (x_h - x_c) / (c_h (1 - x_c) / g_h + c_c (1 - x_h) / g_c),

    with x_l = exp(-beta_l omega) <= 1, dressed rates g_l and channel weights
    c_l (cos^2 or sin^2).  The bath identity g_h (1 - x_h) = g_c (1 - x_c) =
    kappa omega^3 leaves no product of rates to underflow.  Each term carries
    the sign of x_h - x_c and so vanishes at equal temperatures; both vanish
    at epsilon = 0 through the cos^2 sin^2 prefactor.
    Independent of steady_state(), which goes through the occupations n_+-.
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
