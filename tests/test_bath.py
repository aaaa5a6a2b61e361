"""Spectral-response rates: frozen values, limits, scaling, error paths."""

import math

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
