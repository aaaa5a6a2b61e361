"""Two-node transport network: parameters, statistics and the normal-mode basis.

The system is a pair of single-frequency nodes exchanging excitations,

    H = omega_h a'a + omega_c b'b + epsilon (a'b + ab'),

with node A damped by a hot bath and node B by a cold bath.  Everything is
expressed in natural units (hbar = k_B = 1), so beta * omega is the only
dimensionless combination that ever enters a rate or an occupation.

The one-body matrix [[omega_h, epsilon], [epsilon, omega_c]] is diagonalised
by a rotation of angle theta; its eigenfrequencies omega_+ >= omega_- define
the delocalised normal modes used by the global treatment.  The rotation is
computed from stable rewrites (hypot for the splitting, the determinant for
omega_-) so that nearly-resonant or weakly-coupled inputs do not lose digits
to cancellation.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import (
    GaplessSpectrum,
    NegativeCoupling,
    NonPositiveParameter,
    RateOverflow,
    UnsupportedStatistics,
)


class Statistics(Enum):
    """Exchange statistics of the two nodes."""

    BOSON = "boson"
    TLS = "tls"

    @property
    def delta(self) -> float:
        """Sign in the on-node relation a a' + delta a'a = 1: -1 bosons, +1 two-level systems."""
        return 1.0 if self is Statistics.TLS else -1.0


@dataclass(frozen=True)
class NetworkParams:
    """Full parameter set of one transport configuration.

    Every instance is valid: construction, dataclasses.replace included,
    runs `validate` and raises its typed errors.
    """

    omega_h: float = 10.0  # node A frequency (hot side)
    omega_c: float = 5.0  # node B frequency (cold side)
    epsilon: float = 1e-3  # inter-node exchange coupling, >= 0
    T_h: float = 12.0  # hot bath temperature
    T_c: float = 10.0  # cold bath temperature
    kappa: float = 1e-7  # prefactor of the cubic spectral response
    statistics: Statistics = Statistics.BOSON

    def __post_init__(self) -> None:
        validate(self)

    @property
    def beta_h(self) -> float:
        return 1.0 / self.T_h

    @property
    def beta_c(self) -> float:
        return 1.0 / self.T_c

    @property
    def delta(self) -> float:
        return self.statistics.delta


def _finite(value) -> bool:
    """Whether value is a finite int or float; an int too large for a float is not."""
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:
        return False


def validate(params: NetworkParams) -> NetworkParams:
    """Check a parameter set and return it unchanged.

    Raises NonPositiveParameter for non-positive (or non-finite) frequencies,
    temperatures or kappa, NegativeCoupling for epsilon < 0, and
    UnsupportedStatistics when statistics is not a Statistics member.
    """
    positive = {
        "omega_h": params.omega_h,
        "omega_c": params.omega_c,
        "T_h": params.T_h,
        "T_c": params.T_c,
        "kappa": params.kappa,
    }
    for name, value in positive.items():
        if not (_finite(value) and value > 0):
            raise NonPositiveParameter(f"{name} must be a positive finite number, got {value!r}")
    eps = params.epsilon
    if not _finite(eps):
        raise NonPositiveParameter(f"epsilon must be finite, got {eps!r}")
    if eps < 0:
        raise NegativeCoupling(f"epsilon must be >= 0, got {eps!r}")
    if not isinstance(params.statistics, Statistics):
        raise UnsupportedStatistics(f"unknown statistics {params.statistics!r}")
    return params


def thermal_occupation(omega: float, T: float, statistics: Statistics) -> float:
    """Equilibrium occupation 1 / (exp(omega/T) + delta) of a single node."""
    x = omega / T
    if statistics is Statistics.BOSON:
        return 1.0 / math.expm1(x)
    return 1.0 / (math.exp(x) + 1.0)


@dataclass(frozen=True)
class NormalModeBasis:
    """Rotation diagonalising the one-body matrix [[omega_h, eps], [eps, omega_c]].

    The mode operators are d_+ = cos(theta) a + sin(theta) b and
    d_- = cos(theta) b - sin(theta) a, with theta in [0, pi/2] and
    cos(theta) sin(theta) = epsilon / (omega_+ - omega_-).
    """

    omega_plus: float
    omega_minus: float
    c2: float  # cos(theta)**2
    s2: float  # sin(theta)**2

    @property
    def c(self) -> float:
        return math.sqrt(self.c2)

    @property
    def s(self) -> float:
        return math.sqrt(self.s2)

    @property
    def cs(self) -> float:
        """cos(theta) sin(theta), always >= 0 for theta in [0, pi/2]."""
        return math.sqrt(self.c2 * self.s2)


def normal_mode_basis(params: NetworkParams) -> NormalModeBasis:
    """Diagonalise the one-body problem; bosonic nodes only (see normal_modes)."""
    modes = normal_modes(params.omega_h, params.omega_c, params.epsilon, params.statistics)
    return NormalModeBasis(*modes)


def normal_modes(
    omega_h: float, omega_c: float, eps: float, statistics: Statistics
) -> tuple[float, float, float, float]:
    """The fields (omega_plus, omega_minus, c2, s2) of one parameter set's NormalModeBasis.

    Raises UnsupportedStatistics for TLS nodes, whose bilinears do not close
    under the rotation, and GaplessSpectrum when eps**2 >= omega_h * omega_c
    (the lower eigenfrequency would not be positive).  When eps**2 and
    omega_h * omega_c both overflow and the spectrum is gapped, omega_+ >= eps
    puts every rate beyond the float range, and RateOverflow is raised here.
    It is raised too when omega_+ itself overflows, since every rate at
    omega_+ would.
    """
    if statistics is not Statistics.BOSON:
        raise UnsupportedStatistics("normal modes are defined for bosonic nodes only")
    product = omega_h * omega_c
    try:
        eps_sq = eps**2
    except OverflowError:
        if math.isfinite(product) or eps >= math.sqrt(omega_h) * math.sqrt(omega_c):
            raise GaplessSpectrum(f"epsilon**2 overflows, >= omega_h*omega_c = {product!r}") from None
        raise RateOverflow(f"omega_+ >= epsilon = {eps!r} overflows every rate") from None
    det = product - eps_sq
    if det <= 0:
        raise GaplessSpectrum(f"epsilon**2 = {eps_sq!r} >= omega_h*omega_c = {product!r}")
    half_gap = 0.5 * (omega_h - omega_c)
    r = math.hypot(half_gap, eps)
    omega_plus = 0.5 * (omega_h + omega_c) + r
    if math.isinf(omega_plus):
        raise RateOverflow(f"omega_+ of omega_h = {omega_h!r}, omega_c = {omega_c!r} overflows")
    # omega_- via the determinant avoids the mid - r cancellation; once
    # omega_h * omega_c overflows, each product is divided by omega_+ first.
    if math.isinf(product):
        omega_minus = (omega_h / omega_plus) * omega_c - eps * (eps / omega_plus)
    else:
        omega_minus = det / omega_plus
    if 0.0 < r < 1e-150:
        # eps**2 and r**2 would underflow; the rotation depends only on ratios to r.
        half_gap, eps = half_gap / r, eps / r
        r = math.hypot(half_gap, eps)
    if r == 0.0:
        # omega_h == omega_c with epsilon == 0: any rotation works, take none.
        c2, s2 = 1.0, 0.0
    else:
        # the larger weight is (r + |half_gap|) / 2r, the smaller eps**2 over
        # 2r (r + |half_gap|); once that product overflows, eps / r first
        wide = r + abs(half_gap)
        den = 2.0 * r * wide
        small = eps**2 / den if den < math.inf else (eps / r) * (eps / wide) / 2.0
        c2, s2 = (wide / (2.0 * r), small) if half_gap >= 0.0 else (small, wide / (2.0 * r))
    return omega_plus, omega_minus, c2, s2


# --- plain key=value configuration files -----------------------------------

_FLOAT_KEYS = ("omega_h", "omega_c", "epsilon", "T_h", "T_c", "kappa")
CONFIG_KEYS = _FLOAT_KEYS + ("statistics",)


def parse_config(text: str) -> dict[str, str]:
    """Parse 'key = value' lines; blank lines and '#' comments are ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


def params_from_mapping(mapping: dict[str, str], base: NetworkParams | None = None) -> NetworkParams:
    """Overlay string-valued settings on a base parameter set."""
    params = base if base is not None else NetworkParams()
    updates: dict[str, object] = {}
    for key, value in mapping.items():
        if key in _FLOAT_KEYS:
            updates[key] = float(value)
        elif key == "statistics":
            try:
                updates[key] = Statistics(value.lower())
            except ValueError:
                raise ValueError(f"statistics must be one of {{boson, tls}}, got {value!r}") from None
        else:
            raise ValueError(f"unknown parameter {key!r}")
    return replace(params, **updates)


def load_config(path: str, base: NetworkParams | None = None) -> NetworkParams:
    """Read a key=value file into a validated parameter set."""
    with open(path, "r", encoding="utf-8") as handle:
        return params_from_mapping(parse_config(handle.read()), base=base)
