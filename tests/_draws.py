"""Seeded random parameter draws shared across the test modules.

Four families, each sized for what the consuming check can tolerate:

  generic_params   broad valid ranges; epsilon capped at half the smaller
                   frequency so the spectrum never goes gapless.
  contrast_params  strong coupling plus guards keeping beta_h omega_h away
                   from beta_c omega_c and the temperatures apart, so
                   closed-form vs solve comparisons are far from the
                   cancellation floor of either route.
  cold_params      omega/T >= 2.6, so a truncated-Fock solve at n_max = 12
                   carries a thermal tail below the oracle's own occupancy
                   guard.
  extreme_params   omega, omega/T and kappa log-uniform over many decades,
                   one draw in ten resonant (omega_c = omega_h), half the
                   couplings log-uniform down to 1e-300 and one draw in five
                   two-level, for robustness checks that accept a typed
                   error in place of numbers.
"""

import numpy as np

from qheatnet.model import NetworkParams, Statistics, normal_mode_basis


def _loguniform(rng: np.random.Generator, low: float, high: float) -> float:
    return float(np.exp(rng.uniform(np.log(low), np.log(high))))


def generic_params(rng: np.random.Generator, statistics: Statistics = Statistics.BOSON) -> NetworkParams:
    omega_h = float(rng.uniform(0.5, 10.0))
    omega_c = float(rng.uniform(0.5, 10.0))
    return NetworkParams(
        omega_h=omega_h,
        omega_c=omega_c,
        epsilon=float(rng.uniform(0.0, 0.5 * min(omega_h, omega_c))),
        T_h=float(rng.uniform(0.5, 20.0)),
        T_c=float(rng.uniform(0.5, 20.0)),
        kappa=_loguniform(rng, 1e-7, 1e-3),
        statistics=statistics,
    )


def contrast_params(rng: np.random.Generator, statistics: Statistics = Statistics.BOSON) -> NetworkParams:
    while True:
        omega_h = float(rng.uniform(2.0, 8.0))
        omega_c = float(rng.uniform(2.0, 8.0))
        params = NetworkParams(
            omega_h=omega_h,
            omega_c=omega_c,
            epsilon=float(rng.uniform(0.3, 0.45) * min(omega_h, omega_c)),
            T_h=float(rng.uniform(0.5, 12.0)),
            T_c=float(rng.uniform(0.5, 12.0)),
            kappa=_loguniform(rng, 1e-6, 1e-3),
            statistics=statistics,
        )
        if abs(params.beta_h * omega_h - params.beta_c * omega_c) < 0.05:
            continue
        if statistics is Statistics.BOSON:
            omega_minus = normal_mode_basis(params).omega_minus
            if abs(params.beta_h - params.beta_c) * omega_minus < 0.05:
                continue
        return params


def cold_params(rng: np.random.Generator, statistics: Statistics = Statistics.BOSON) -> NetworkParams:
    omega_h = float(rng.uniform(3.0, 8.0))
    omega_c = float(rng.uniform(3.0, 8.0))
    omega_min = min(omega_h, omega_c)
    return NetworkParams(
        omega_h=omega_h,
        omega_c=omega_c,
        epsilon=float(rng.uniform(0.05, 0.2) * omega_min),
        T_h=float(rng.uniform(0.4, omega_min / 2.6)),
        T_c=float(rng.uniform(0.4, omega_min / 2.6)),
        kappa=_loguniform(rng, 1e-5, 1e-3),
        statistics=statistics,
    )


def extreme_params(rng: np.random.Generator) -> NetworkParams:
    omega_h = _loguniform(rng, 1e-3, 1e3)
    omega_c = omega_h if rng.uniform() < 0.1 else _loguniform(rng, 1e-3, 1e3)
    eps_max = 0.5 * min(omega_h, omega_c)
    if rng.uniform() < 0.5:
        epsilon = _loguniform(rng, 1e-300, eps_max)
    else:
        epsilon = float(rng.uniform(0.0, eps_max))
    return NetworkParams(
        omega_h=omega_h,
        omega_c=omega_c,
        epsilon=epsilon,
        T_h=omega_h / _loguniform(rng, 1e-6, 1e4),
        T_c=omega_c / _loguniform(rng, 1e-6, 1e4),
        kappa=_loguniform(rng, 1e-300, 1e-1),
        statistics=Statistics.TLS if rng.uniform() < 0.2 else Statistics.BOSON,
    )
