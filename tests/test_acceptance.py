"""End-to-end acceptance checks, one test per shipped claim.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per claim.  These are the slow, wide-net versions of properties the unit
files probe pointwise: current conservation, the sign structure of the
entropy production in both treatments, closed forms against solved
dynamics, both generators against the truncated-Fock solver, the three
preset sweeps, equilibrium behaviour, quadrature correlations, and the
two independent assemblies of the global dissipator.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from _draws import cold_params, contrast_params, generic_params
from qheatnet import cli, gaussian, global_mme, local_mme, model, oracle
from qheatnet.model import NetworkParams, Statistics, thermal_occupation


def test_criterion_01_first_law_closes_heat_currents():
    rng = np.random.default_rng(20260819)
    checked = 0
    for _ in range(400):
        params = generic_params(rng)
        state = local_mme.steady_state(params)
        assert abs(state.J_h + state.J_c) <= 1e-10 * max(1.0, abs(state.J_h))
        checked += 1
    for _ in range(200):
        params = generic_params(rng, Statistics.TLS)
        state = local_mme.steady_state(params)
        assert abs(state.J_h + state.J_c) <= 1e-10 * max(1.0, abs(state.J_h))
        checked += 1
    for _ in range(400):
        params = generic_params(rng)
        state = global_mme.steady_state(params)
        assert abs(state.J_h + state.J_c) <= 1e-10 * max(1.0, abs(state.J_h))
        checked += 1
    assert checked == 1000


def test_criterion_02_local_entropy_sign_map_follows_the_frequency_ratio():
    started = time.perf_counter()
    columns, blocks = cli.preset_fig2()
    assert columns[-1] == "sigma_sign"
    assert len(blocks) == 200 and all(len(b) == 200 for b in blocks)
    cell = (15.0 - 0.5) / 199.0
    for block in blocks:
        t_h = block[0]["T_h"]
        boundary = 0.5 * t_h  # sign(sigma) = sign(omega_c/T_c - omega_h/T_h)
        positive, negative = [], []
        for row in block:
            assert row["error"] == ""
            omega_h = row["omega_h"]
            sign = row["sigma_sign"]
            if sign > 0:
                positive.append(omega_h)
            elif sign < 0:
                negative.append(omega_h)
            if abs(omega_h - boundary) > 1.5 * cell:
                expected = 1 if omega_h < boundary else -1
                assert sign == expected
        # a single clean flip, and it happens within one cell of the line
        assert positive and negative
        assert max(positive) < min(negative)
        midpoint = 0.5 * (max(positive) + min(negative))
        assert abs(midpoint - boundary) <= cell
    assert time.perf_counter() - started < 60.0


def test_criterion_03_global_entropy_production_is_nonnegative():
    fixed = NetworkParams(omega_c=5.0, epsilon=1e-4, T_c=10.0, kappa=1e-7)
    for t_h in np.linspace(10.05, 20.0, 200):
        for omega_h in np.linspace(0.5, 15.0, 200):
            params = replace(fixed, omega_h=float(omega_h), T_h=float(t_h))
            assert global_mme.steady_state(params).sigma >= -1e-12
    rng = np.random.default_rng(3001)
    reversed_bias = 0
    for _ in range(1000):
        params = generic_params(rng)
        assert global_mme.steady_state(params).sigma >= -1e-12
        if params.omega_c / params.T_c < params.omega_h / params.T_h:
            reversed_bias += 1
    assert reversed_bias > 100  # the draw family covers both sign regimes


def test_criterion_04_closed_forms_match_the_solved_dynamics():
    rng = np.random.default_rng(4001)
    for statistics, count in ((Statistics.BOSON, 300), (Statistics.TLS, 200)):
        for _ in range(count):
            params = contrast_params(rng, statistics)
            solved = local_mme.steady_state(params).J_h
            closed, _ = local_mme.heat_current_closed_form(params)
            assert abs(closed - solved) <= 1e-10 * abs(closed)
    for _ in range(500):
        params = contrast_params(rng)
        balance = global_mme.steady_state(params).J_h
        closed = global_mme.heat_current_closed_form(params)
        assert abs(closed - balance) <= 1e-10 * abs(closed)


def test_criterion_05_moment_equations_match_the_fock_oracle():
    rng = np.random.default_rng(5001)
    for _ in range(50):
        params = cold_params(rng)
        assert oracle.suggested_nmax(params, oracle.Generator.GLOBAL) <= 12

        liou = oracle.build(params, oracle.Generator.LOCAL, n_max=12)
        rho = oracle.steady_state(liou)
        want = local_mme.steady_state(params)
        got = oracle.moments(liou, rho)
        assert got.as_array() == pytest.approx(want.moments.as_array(), abs=1e-8)
        assert oracle.heat_current(liou, rho, "hot") == pytest.approx(want.J_h, abs=1e-8)
        assert oracle.heat_current(liou, rho, "cold") == pytest.approx(want.J_c, abs=1e-8)

        liou = oracle.build(params, oracle.Generator.GLOBAL, n_max=12)
        rho = oracle.steady_state(liou)
        state = global_mme.steady_state(params)
        n_plus, n_minus = oracle.mode_populations(liou, rho)
        assert n_plus == pytest.approx(state.n_plus, abs=1e-8)
        assert n_minus == pytest.approx(state.n_minus, abs=1e-8)
        got = oracle.moments(liou, rho)
        assert got.nA == pytest.approx(state.nA, abs=1e-8)
        assert got.nB == pytest.approx(state.nB, abs=1e-8)
        assert oracle.heat_current(liou, rho, "hot") == pytest.approx(state.J_h, abs=1e-8)
        assert oracle.heat_current(liou, rho, "cold") == pytest.approx(state.J_c, abs=1e-8)
    for _ in range(50):
        params = generic_params(rng, Statistics.TLS)
        liou = oracle.build(params, oracle.Generator.LOCAL)
        rho = oracle.steady_state(liou)
        want = local_mme.steady_state(params)
        got = oracle.moments(liou, rho)
        assert got.as_array() == pytest.approx(want.moments.as_array(), abs=1e-8)
        assert oracle.heat_current(liou, rho, "hot") == pytest.approx(want.J_h, abs=1e-8)
        assert oracle.heat_current(liou, rho, "cold") == pytest.approx(want.J_c, abs=1e-8)


def test_criterion_06_weak_coupling_sweep_shows_opposite_current_signs():
    _, blocks = cli.preset_fig3()
    rows = [row for block in blocks for row in block]
    assert all(row["error"] == "" for row in rows)
    in_range = [r for r in rows if r["epsilon"] <= 0.1 * (1.0 + 1e-12)]
    assert len(in_range) == 2 * 49  # 61 log points span 5 decades, 4 in range
    for row in in_range:
        if row["approach"] == "local":
            assert row["J_h"] < 0.0
        else:
            assert row["J_h"] > 0.0
    # at vanishing coupling both treatments agree on the node populations
    weakest = [r for r in rows if r["epsilon"] == 1e-5]
    n_a = {r["approach"]: r["n_A"] for r in weakest}
    thermal = thermal_occupation(5.0, 10.0, Statistics.BOSON)
    assert abs(n_a["local"] - n_a["global"]) < 1e-4 * thermal


def test_criterion_07_resonance_sweep_flips_only_the_local_current():
    _, blocks = cli.preset_fig4()
    rows = [row for block in blocks for row in block]
    assert all(row["error"] == "" for row in rows)
    for row in rows:
        if row["approach"] == "global":
            assert row["J_h"] >= 0.0
    local_rows = [r for r in rows if r["approach"] == "local"]
    positive = [r["omega_h"] for r in local_rows if r["J_h"] > 0.0]
    negative = [r["omega_h"] for r in local_rows if r["J_h"] < 0.0]
    assert max(positive) < min(negative)
    # the local current dies at exp(omega_c/T_c) = exp(omega_h/T_h)
    grid_step = 0.1
    assert abs(0.5 * (max(positive) + min(negative)) - 6.0) <= grid_step


def test_criterion_08_equilibrium_is_exact_globally_and_violated_locally():
    rng = np.random.default_rng(8001)
    for _ in range(100):
        params = generic_params(rng)
        params = replace(params, T_c=params.T_h)
        state = global_mme.steady_state(params)
        assert abs(state.J_h) <= 1e-12
        basis = model.normal_mode_basis(params)
        for occupation, omega in (
            (state.n_plus, basis.omega_plus),
            (state.n_minus, basis.omega_minus),
        ):
            expected = thermal_occupation(omega, params.T_h, Statistics.BOSON)
            assert occupation == pytest.approx(expected, rel=1e-12, abs=0.0)
    # equal temperatures, detuned nodes: the local current never dies
    pathology = NetworkParams(
        omega_h=10.0, omega_c=5.0, epsilon=1e-3, T_h=10.0, T_c=10.0, kappa=1e-7
    )
    state = local_mme.steady_state(pathology)
    assert abs(state.J_h) > 1e-12
    assert state.J_h < 0.0  # downhill in exp(beta omega), here toward the hot bath


def test_criterion_09_cross_quadrature_correlations_and_separability():
    rng = np.random.default_rng(9001)
    for _ in range(200):
        params = generic_params(rng)
        state = global_mme.steady_state(params)
        basis = model.normal_mode_basis(params)
        report = gaussian.correlations(
            gaussian.covariance_global(basis, state.n_plus, state.n_minus)
        )
        assert abs(report.cor_xApB) <= 1e-12
        assert abs(report.cor_pAxB) <= 1e-12
    for _ in range(200):
        params = contrast_params(rng)
        moments = local_mme.steady_state(params).moments
        assert moments.Y != 0.0
        report = gaussian.correlations(gaussian.covariance_local(moments))
        assert abs(report.cor_xApB) > 0.0
        assert report.cor_xApB == -report.cor_pAxB
    separable_checked = 0
    for _ in range(250):
        params = generic_params(rng)
        moments = local_mme.steady_state(params).moments
        report = gaussian.correlations(gaussian.covariance_local(moments))
        assert report.separable is True
        separable_checked += 1
    for _ in range(250):
        params = generic_params(rng)
        state = global_mme.steady_state(params)
        basis = model.normal_mode_basis(params)
        report = gaussian.correlations(
            gaussian.covariance_global(basis, state.n_plus, state.n_minus)
        )
        assert report.separable is True
        separable_checked += 1
    assert separable_checked == 500


def test_criterion_10_channel_table_matches_the_mode_dissipators():
    rng = np.random.default_rng(10001)
    for _ in range(20):
        params = generic_params(rng)
        liou = oracle.build(params, oracle.Generator.GLOBAL, n_max=3)
        table = global_mme.local_basis_generator(params)
        for channels, direct in (
            (table.hot, liou.hot_part),
            (table.cold, liou.cold_part),
        ):
            assembled = oracle.channel_superoperator(liou.a, liou.b, channels)
            gap = np.abs((assembled - direct).toarray()).max()
            assert gap <= 1e-12
