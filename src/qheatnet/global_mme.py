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
rates.  steady_state flags the opposite regime via secular_warning instead of
refusing, since the algebra stays well defined.
"""

import math
from dataclasses import dataclass

from . import bath
from .errors import SingularSystem
from .model import NetworkParams, NormalModeBasis, normal_mode_basis

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
    """Basis, dressed rates and upward weights exp(-beta omega), each ordered (h+, h-, c+, c-)."""
    basis = normal_mode_basis(params)
    T_h, T_c, kappa = params.T_h, params.T_c, params.kappa
    rates = (
        bath.rate(basis.omega_plus, T_h, kappa),
        bath.rate(basis.omega_minus, T_h, kappa),
        bath.rate(basis.omega_plus, T_c, kappa),
        bath.rate(basis.omega_minus, T_c, kappa),
    )
    weights = (
        math.exp(-params.beta_h * basis.omega_plus),
        math.exp(-params.beta_h * basis.omega_minus),
        math.exp(-params.beta_c * basis.omega_plus),
        math.exp(-params.beta_c * basis.omega_minus),
    )
    return basis, rates, weights


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


def steady_state(params: NetworkParams) -> GlobalSteadyState:
    """Steady state of the global generator from per-mode detailed balance."""
    basis, (gh_p, gh_m, gc_p, gc_m), (xh_p, xh_m, xc_p, xc_m) = _setup(params)
    wp, wm = basis.omega_plus, basis.omega_minus
    n_p, Jh_p, Jc_p = _mode_balance(wp, gh_p * basis.c2, xh_p, gc_p * basis.s2, xc_p)
    n_m, Jh_m, Jc_m = _mode_balance(wm, gh_m * basis.s2, xh_m, gc_m * basis.c2, xc_m)
    J_h = Jh_p + Jh_m
    J_c = Jc_p + Jc_m
    sigma = -J_h / params.T_h - J_c / params.T_c
    warning = (wp - wm) < SECULAR_FACTOR * max(gh_p, gh_m, gc_p, gc_m)
    return GlobalSteadyState(
        n_plus=n_p,
        n_minus=n_m,
        nA=basis.c2 * n_p + basis.s2 * n_m,
        nB=basis.s2 * n_p + basis.c2 * n_m,
        J_h=J_h,
        J_c=J_c,
        sigma=sigma,
        secular_warning=bool(warning),
        basis=basis,
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
