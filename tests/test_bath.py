"""Spectral-response rates: frozen values, limits, scaling, error paths."""

import math

import numpy as np
import pytest

from qheatnet import bath
from qheatnet.errors import NegativeFrequency, NonPositiveParameter, RateOverflow
from qheatnet.model import NetworkParams, Statistics, normal_mode_basis

from _draws import generic_params


def test_rate_frozen_value():
    # 50-digit evaluation of 1e-7 * 125 / (1 - e^(-1/2))
    spec = bath.BathSpec(temperature=10.0, kappa=1e-7)
    assert bath.rate(spec, 5.0) == pytest.approx(3.1768676031709978552e-05, rel=1e-15)


def test_rate_zero_frequency():
    spec = bath.BathSpec(temperature=2.0, kappa=1e-4)
    assert bath.rate(spec, 0.0) == 0.0


def test_rate_small_frequency_is_quadratic():
    # gamma -> kappa * T * omega^2 * (1 + omega/(2T) + O(omega^2)) as omega -> 0
    spec = bath.BathSpec(temperature=3.0, kappa=1e-5)
    omega = 1e-7
    expansion = spec.kappa * spec.temperature * omega**2 * (1.0 + omega / (2.0 * spec.temperature))
    assert bath.rate(spec, omega) == pytest.approx(expansion, rel=1e-12)


def test_rate_cold_limit_is_bare_cubic():
    # at T << omega the thermal factor is 1 and only spontaneous decay remains
    spec = bath.BathSpec(temperature=1e-3, kappa=1e-6)
    assert bath.rate(spec, 5.0) == pytest.approx(1e-6 * 125.0, rel=1e-15)


def test_rate_monotone_in_frequency():
    spec = bath.BathSpec(temperature=4.0, kappa=1e-5)
    grid = np.linspace(1e-3, 40.0, 500)
    values = [bath.rate(spec, float(w)) for w in grid]
    assert all(b > a > 0.0 for a, b in zip(values, values[1:]))


def test_rate_detailed_balance_identity():
    # gamma(omega) * (1 - e^(-omega/T)) == kappa omega^3: net decay is thermal-free
    rng = np.random.default_rng(11)
    for _ in range(100):
        temperature = float(rng.uniform(0.2, 30.0))
        omega = float(rng.uniform(0.01, 20.0))
        kappa = float(10.0 ** rng.uniform(-7, -3))
        spec = bath.BathSpec(temperature=temperature, kappa=kappa)
        net = bath.rate(spec, omega) * -math.expm1(-omega / temperature)
        assert net == pytest.approx(kappa * omega**3, rel=1e-14)


@pytest.mark.parametrize("omega", [-1e-12, -5.0, float("nan"), float("inf")])
def test_rate_rejects_bad_frequency(omega):
    spec = bath.BathSpec(temperature=1.0, kappa=1e-5)
    with pytest.raises(NegativeFrequency):
        bath.rate(spec, omega)


@pytest.mark.parametrize(
    "kappa, omega",
    [(1e-7, 1e200), (1e10, 1e100)],
    ids=["cube_overflows", "product_overflows"],
)
def test_rate_overflow_is_typed(kappa, omega):
    spec = bath.BathSpec(temperature=1.0, kappa=kappa)
    with pytest.raises(RateOverflow):
        bath.rate(spec, omega)


@pytest.mark.parametrize("kwargs", [
    {"temperature": 0.0, "kappa": 1e-5},
    {"temperature": -1.0, "kappa": 1e-5},
    {"temperature": 1.0, "kappa": 0.0},
    {"temperature": 1.0, "kappa": float("inf")},
])
def test_bath_spec_rejects_nonpositive(kwargs):
    with pytest.raises(NonPositiveParameter):
        bath.BathSpec(**kwargs)


def test_local_rates_wiring():
    params = NetworkParams(omega_h=7.0, omega_c=3.0, T_h=11.0, T_c=2.0, kappa=1e-6)
    gamma_h, gamma_c = bath.local_rates(params)
    assert gamma_h == bath.rate(bath.BathSpec(11.0, 1e-6), 7.0)
    assert gamma_c == bath.rate(bath.BathSpec(2.0, 1e-6), 3.0)


def test_dressed_rates_wiring():
    rng = np.random.default_rng(23)
    params = generic_params(rng)
    basis = normal_mode_basis(params)
    gh_p, gh_m, gc_p, gc_m = bath.dressed_rates(params, basis)
    hot = bath.BathSpec(params.T_h, params.kappa)
    cold = bath.BathSpec(params.T_c, params.kappa)
    assert gh_p == bath.rate(hot, basis.omega_plus)
    assert gh_m == bath.rate(hot, basis.omega_minus)
    assert gc_p == bath.rate(cold, basis.omega_plus)
    assert gc_m == bath.rate(cold, basis.omega_minus)


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
