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
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    GaplessSpectrum,
    NegativeCoupling,
    NonPositiveParameter,
    RateOverflow,
    UnsupportedStatistics,
)


# The smallest normal float: below it a product keeps fewer than 53 bits.
_TINY = sys.float_info.min


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


def cellwise(function, *columns: np.ndarray) -> np.ndarray:
    """function of Python floats over the cells of same-shape float64 arrays.

    For `math`'s exp and expm1, which numpy's differ from in the last bit on
    some inputs, and hypot, whose CPython algorithm is neither the C
    library's nor numpy's: a cell is the float one row's scalar code gives.
    """
    values = map(function, *(column.ravel().tolist() for column in columns))
    return np.fromiter(values, np.float64, columns[0].size).reshape(columns[0].shape)


def normal_mode_basis(params: NetworkParams) -> NormalModeBasis:
    """Diagonalise the one-body problem; bosonic nodes only (see normal_modes)."""
    modes = normal_modes(params.omega_h, params.omega_c, params.epsilon, params.statistics)
    return NormalModeBasis(*modes)


def normal_modes(
    omega_h: float, omega_c: float, eps: float, statistics: Statistics
) -> tuple[float, float, float, float]:
    """The fields (omega_plus, omega_minus, c2, s2) of one parameter set's NormalModeBasis.

    normal_mode_columns on length-1 columns; raises the row's typed error.
    """
    columns = np.array([[omega_h], [omega_c], [eps]], dtype=np.float64)
    modes, (error,) = normal_mode_columns(*columns, statistics)
    if error is not None:
        raise error
    return tuple(mode.item() for mode in modes)


def normal_mode_columns(omega_h, omega_c, eps, statistics: Statistics) -> tuple[tuple, list]:
    """The arrays (omega_plus, omega_minus, c2, s2) of float64 columns, and a typed error or None per row.

    Every row of two-level nodes, whose bilinears do not close under the
    rotation, fails with UnsupportedStatistics.  A bosonic row fails with
    GaplessSpectrum when eps**2 >= omega_h * omega_c (the lower
    eigenfrequency would not be positive) or when omega_- rounds to 0.
    Where omega_h * omega_c leaves the normal float range, eps is compared
    with its square root, and omega_- divides each product by omega_+
    before it forms.  RateOverflow is a row's error only where omega_+
    itself overflows.  A failed row holds NaN.  hypot is `math`'s (see
    cellwise), and every other operation is numpy's in the order of one
    row's formulas, so a row's values do not depend on the batch around it.
    """
    if statistics is not Statistics.BOSON:
        message = "normal modes are defined for bosonic nodes only"
        return tuple(np.full((4, len(eps)), math.nan)), [UnsupportedStatistics(message) for _ in eps]
    with np.errstate(all="ignore"):
        product = omega_h * omega_c
        direct = (_TINY <= product) & (product < math.inf)
        det = product - eps * eps
        root = np.sqrt(omega_h) * np.sqrt(omega_c)
        gapless = np.where(direct, det <= 0.0, eps >= root)
        half_gap = 0.5 * (omega_h - omega_c)
        r = cellwise(math.hypot, half_gap, eps)
        omega_plus = 0.5 * (omega_h + omega_c) + r
        overflow = ~gapless & np.isinf(omega_plus)
        # omega_- via the determinant avoids the mid - r cancellation
        omega_minus = np.where(
            direct, det / omega_plus, (omega_h / omega_plus) * omega_c - eps * (eps / omega_plus)
        )
        edge = ~gapless & ~overflow & (omega_minus <= 0.0)  # below the smallest float, or at the gap edge
        # the larger weight is (r + |half_gap|) / 2r, the smaller eps**2 over
        # 2r (r + |half_gap|), formed from ratios to r so no square under- or
        # overflows; where r = 0 (omega_h == omega_c with eps == 0) any
        # rotation works, take none
        wide = r + np.abs(half_gap)
        large, small = wide / (2.0 * r), (eps / r) * (eps / wide) / 2.0
        upper = half_gap >= 0.0
        c2 = np.where(r == 0.0, 1.0, np.where(upper, large, small))
        s2 = np.where(r == 0.0, 0.0, np.where(upper, small, large))
    modes = np.array([omega_plus, omega_minus, c2, s2])
    failed = gapless | overflow | edge
    modes[:, failed] = math.nan
    errors = [None] * len(failed)
    for i in failed.nonzero()[0].tolist():
        h, c, e = omega_h[i].item(), omega_c[i].item(), eps[i].item()
        if gapless[i] and direct[i]:
            errors[i] = GaplessSpectrum(f"epsilon**2 = {e * e!r} >= omega_h*omega_c = {h * c!r}")
        elif gapless[i]:
            errors[i] = GaplessSpectrum(f"epsilon = {e!r} >= sqrt(omega_h*omega_c) = {root[i].item()!r}")
        elif overflow[i]:
            errors[i] = RateOverflow(f"omega_+ of omega_h = {h!r}, omega_c = {c!r} overflows")
        else:
            minus = omega_minus[i].item()
            errors[i] = GaplessSpectrum(f"omega_- = {minus!r} of omega_h = {h!r}, omega_c = {c!r}")
    return tuple(modes), errors


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


def params_from_mapping(mapping: dict[str, str]) -> NetworkParams:
    """Overlay string-valued settings on the default parameter set."""
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
    return NetworkParams(**updates)


def load_config(path: str) -> NetworkParams:
    """Read a key=value file into a validated parameter set."""
    with open(path, "r", encoding="utf-8") as handle:
        return params_from_mapping(parse_config(handle.read()))
