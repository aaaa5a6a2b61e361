"""Spectral-response rates: frozen values, limits, scaling, error paths."""

import math
import sys

import numpy as np
import pytest

from qheatnet import bath
from qheatnet.errors import NegativeFrequency, RateOverflow
from qheatnet.model import NetworkParams, normal_mode_basis


def test_rate_frozen_value():
    # 50-digit evaluation of 1e-7 * 125 / (1 - e^(-1/2))
    reference = 3.1768676031709978552e-05
    assert bath.rate(5.0, 10.0, 1e-7) == pytest.approx(reference, rel=1e-15, abs=0.0)


def test_rate_zero_frequency():
    assert bath.rate(0.0, 2.0, 1e-4) == 0.0


def test_rate_small_frequency_is_quadratic():
    # gamma -> kappa * T * omega^2 * (1 + omega/(2T) + O(omega^2)) as omega -> 0
    temperature, kappa, omega = 3.0, 1e-5, 1e-7
    expansion = kappa * temperature * omega**2 * (1.0 + omega / (2.0 * temperature))
    assert bath.rate(omega, temperature, kappa) == pytest.approx(expansion, rel=1e-12, abs=0.0)


def test_rate_where_omega_over_T_underflows_is_the_quadratic_limit():
    # omega / T rounds to 0, so 1 - exp(-omega/T) does too; the rate is kappa * T * omega**2
    assert bath.rate(1e-300, 1e300, 1e-7) == 1e-7 * (1e-300 * 1e300) * 1e-300
    # omega**2 alone would underflow to 0 here
    assert bath.rate(1e-170, 1e300, 1.0) == pytest.approx(1e-40, rel=1e-15, abs=0.0)
    with pytest.raises(RateOverflow):
        bath.rate(1e-30, 1e300, 1e100)


@pytest.mark.parametrize(
    ("omega", "T", "kappa", "reference"),
    [
        (8.702490877042025e-208, 6.550302214408692e88, 6.221807012752841e73, 3.0864910868454934739e-252),
        (1e-20, 1e280, 1e-300, 9.9999999999999994815e-61),
        (1e-160, 1e-155, 1e170, 1.0000050000083333593e-305),
    ],
    ids=["found", "kappa_omega_underflows", "omega_over_expm1_underflows"],
)
def test_rate_where_kappa_omega_cubed_underflows(omega, T, kappa, reference):
    # kappa * omega**3 is below the smallest normal float and the rate is not;
    # kappa * omega is below it too in the second case, omega**2 / -expm1(-x)
    # in the third.  References are mpmath at 50 digits on the exact doubles:
    # mpf(kappa) * mpf(omega)**3 / -mp.expm1(-mpf(omega) / mpf(T))
    assert bath.rate(omega, T, kappa) == pytest.approx(reference, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    ("omega", "T", "kappa", "reference"),
    [
        (8.6851137375132368e-154, 2.0235896477250978e165, 1e-7, 1.5264179671750869054e-148),
        (1e-5, 1e304, 1.0, 1.0000000000000001029e294),
        (3.0, 1.7e308, 1e-7, 1.5299999999999998757e302),
    ],
    ids=["found", "cube_normal", "omega_T_overflows"],
)
def test_rate_where_omega_over_T_is_subnormal_is_the_quadratic_limit(omega, T, kappa, reference):
    # omega / T is a nonzero subnormal with few bits, so the quotient through
    # expm1 was 3.3e-6 low in the first case; in the third omega * T overflows
    # while the rate does not.  References are mpmath at 50 digits on the exact
    # doubles: mpf(kappa) * mpf(omega)**3 / -mp.expm1(-mpf(omega) / mpf(T))
    assert 0.0 < omega / T < sys.float_info.min
    assert bath.rate(omega, T, kappa) == pytest.approx(reference, rel=1e-15, abs=0.0)


def test_rate_cold_limit_is_bare_cubic():
    # at T << omega the thermal factor is 1 and only spontaneous decay remains
    assert bath.rate(5.0, 1e-3, 1e-6) == pytest.approx(1e-6 * 125.0, rel=1e-15, abs=0.0)


def test_rate_monotone_in_frequency():
    grid = np.linspace(1e-3, 40.0, 500)
    values = [bath.rate(float(w), 4.0, 1e-5) for w in grid]
    assert all(b > a > 0.0 for a, b in zip(values, values[1:]))


def test_rate_detailed_balance_identity():
    # gamma(omega) * (1 - e^(-omega/T)) == kappa omega^3: net decay is thermal-free
    rng = np.random.default_rng(11)
    for _ in range(100):
        temperature = float(rng.uniform(0.2, 30.0))
        omega = float(rng.uniform(0.01, 20.0))
        kappa = float(10.0 ** rng.uniform(-7, -3))
        net = bath.rate(omega, temperature, kappa) * -math.expm1(-omega / temperature)
        assert net == pytest.approx(kappa * omega**3, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("omega", [-1e-12, -5.0, float("nan"), float("inf")])
def test_rate_rejects_bad_frequency(omega):
    with pytest.raises(NegativeFrequency):
        bath.rate(omega, 1.0, 1e-5)


@pytest.mark.parametrize(
    "kappa, omega",
    [(1e-7, 1e200), (1e10, 1e100)],
    ids=["cube_overflows", "product_overflows"],
)
def test_rate_overflow_is_typed(kappa, omega):
    with pytest.raises(RateOverflow):
        bath.rate(omega, 1.0, kappa)


def test_rate_where_only_omega_cubed_overflows():
    # omega**3 = 1e330 is beyond the float range, kappa omega^3 = 1e30 is not
    assert bath.rate(1e110, 12.0, 1e-300) == pytest.approx(1e30, rel=1e-15, abs=0.0)


def test_dressed_rates_bracket_local_rate():
    # omega_- < omega_h < omega_+ and the response is monotone
    params = NetworkParams(omega_h=6.0, omega_c=5.0, epsilon=1.0, T_h=12.0, T_c=10.0, kappa=1e-5)
    basis = normal_mode_basis(params)
    assert basis.omega_minus < params.omega_h < basis.omega_plus
    gamma_minus, gamma_h, gamma_plus = (
        bath.rate(omega, params.T_h, params.kappa)
        for omega in (basis.omega_minus, params.omega_h, basis.omega_plus)
    )
    assert gamma_minus < gamma_h < gamma_plus
