"""Spectral-response rates: frozen values, limits, scaling, error paths."""

import math

import numpy as np
import pytest

from qheatnet import bath
from qheatnet.errors import NegativeFrequency, RateOverflow
from qheatnet.model import NetworkParams, Statistics, normal_mode_basis

from _draws import generic_params


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


def test_local_rates_wiring():
    params = NetworkParams(omega_h=7.0, omega_c=3.0, T_h=11.0, T_c=2.0, kappa=1e-6)
    gamma_h, gamma_c = bath.local_rates(params)
    assert gamma_h == bath.rate(7.0, 11.0, 1e-6)
    assert gamma_c == bath.rate(3.0, 2.0, 1e-6)


def test_dressed_rates_wiring():
    rng = np.random.default_rng(23)
    params = generic_params(rng)
    basis = normal_mode_basis(params)
    gh_p, gh_m, gc_p, gc_m = bath.dressed_rates(params, basis)
    T_h, T_c, kappa = params.T_h, params.T_c, params.kappa
    assert gh_p == bath.rate(basis.omega_plus, T_h, kappa)
    assert gh_m == bath.rate(basis.omega_minus, T_h, kappa)
    assert gc_p == bath.rate(basis.omega_plus, T_c, kappa)
    assert gc_m == bath.rate(basis.omega_minus, T_c, kappa)


def test_dressed_rates_bracket_local_rate():
    # omega_- < omega_h,omega_c < omega_+ and the response is monotone
    params = NetworkParams(omega_h=6.0, omega_c=5.0, epsilon=1.0, T_h=12.0, T_c=10.0, kappa=1e-5)
    basis = normal_mode_basis(params)
    gh_p, gh_m, _, _ = bath.dressed_rates(params, basis)
    gamma_h, _ = bath.local_rates(params)
    assert gh_m < gamma_h < gh_p


def test_statistics_do_not_enter_rates():
    boson = NetworkParams(statistics=Statistics.BOSON)
    tls = NetworkParams(statistics=Statistics.TLS)
    assert bath.local_rates(boson) == bath.local_rates(tls)
