"""Tests for the truncated-Fock brute-force solver.

The solver exists to audit the closed forms, so most checks here pin its
own internals instead: trace preservation of the assembled generators,
exactly solvable limits (decoupled thermalization, equal-temperature
Gibbs states), truncation behaviour, and the guard exceptions.  Light
agreement checks against the moment and balance routes live here too;
the heavy sweeps live in the acceptance tests.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from _draws import cold_params, generic_params
from qheatnet import gaussian, global_mme, local_mme, model, oracle
from qheatnet.errors import (
    DegenerateNullspace,
    GaplessSpectrum,
    NonConvergence,
    StatisticsMismatch,
    TruncationTooSmall,
    UnsupportedStatistics,
)
from qheatnet.model import NetworkParams, Statistics
from qheatnet.oracle import Generator

COLD_POINT = NetworkParams(
    omega_h=6.0, omega_c=5.0, epsilon=0.5, T_h=1.5, T_c=1.2, kappa=1e-4
)
# cold enough that both generators clear the occupancy guard at n_max = 2
FRIGID_POINT = NetworkParams(
    omega_h=10.0, omega_c=8.0, epsilon=1.0, T_h=0.7, T_c=0.6, kappa=1e-3
)
SECTOR_CASES = [
    (Statistics.BOSON, Generator.LOCAL, 2),
    (Statistics.BOSON, Generator.LOCAL, 3),
    (Statistics.BOSON, Generator.LOCAL, 4),
    (Statistics.BOSON, Generator.GLOBAL, 2),
    (Statistics.BOSON, Generator.GLOBAL, 3),
    (Statistics.BOSON, Generator.GLOBAL, 4),
    (Statistics.TLS, Generator.LOCAL, 1),
]


def _truncated_thermal(omega: float, temperature: float, n_max: int) -> np.ndarray:
    weights = np.exp(-omega * np.arange(n_max + 1) / temperature)
    return np.diag(weights / weights.sum())


def _sector_mask(liou: oracle.FockLiouvillian) -> np.ndarray:
    """Which column-stacked entries |n><m| have N(n) = N(m).

    Worked out from the kron order a = ladder (x) 1, b = 1 (x) ladder,
    independently of how the oracle labels its indices.
    """
    dim_mode = liou.n_max + 1
    index = np.arange(liou.dimension)
    number = index // dim_mode + index % dim_mode
    return (number[:, None] == number[None, :]).reshape(-1, order="F")


def _full_space_steady_state(liou: oracle.FockLiouvillian) -> np.ndarray:
    """Trace-pinned solve of the whole dim**2 system, as the reference."""
    dim = liou.dimension
    trace_row = sp.csr_matrix(
        (np.ones(dim), (np.zeros(dim, dtype=int), np.arange(0, dim * dim, dim + 1))),
        shape=(1, dim * dim),
        dtype=complex,
    )
    pinned = sp.vstack([trace_row, liou.generator[1:, :]], format="csc")
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    rho = splu(pinned).solve(rhs).reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("statistics,approach,n_max", SECTOR_CASES)
def test_generator_does_not_couple_the_sector_to_its_complement(statistics, approach, n_max):
    params = dataclasses.replace(FRIGID_POINT, statistics=statistics)
    liou = oracle.build(params, approach, n_max=n_max)
    inside = _sector_mask(liou)
    assert 0 < inside.sum() < inside.size
    assert liou.generator[inside][:, ~inside].count_nonzero() == 0
    assert liou.generator[~inside][:, inside].count_nonzero() == 0


@pytest.mark.parametrize("statistics,approach,n_max", SECTOR_CASES)
def test_sector_solve_matches_the_full_space_solve(statistics, approach, n_max):
    params = dataclasses.replace(FRIGID_POINT, statistics=statistics)
    liou = oracle.build(params, approach, n_max=n_max)
    rho = oracle.steady_state(liou)
    reference = _full_space_steady_state(liou)
    assert np.abs(rho - reference).max() <= 1e-14
    # the reference is not trivially the vacuum
    assert np.abs(reference[1:, 1:]).max() > 1e-9


@pytest.mark.parametrize("statistics,approach,n_max", SECTOR_CASES)
def test_sector_assembly_matches_the_sliced_full_generator(statistics, approach, n_max):
    params = dataclasses.replace(FRIGID_POINT, statistics=statistics)
    liou = oracle.build(params, approach, n_max=n_max)
    sector = np.flatnonzero(_sector_mask(liou))
    direct = oracle.superoperator(liou.terms, liou.dimension, sector)
    sliced = liou.generator[sector][:, sector]
    assert direct.shape == sliced.shape
    assert (direct != sliced).nnz == 0


@pytest.mark.parametrize("approach", [Generator.LOCAL, Generator.GLOBAL])
def test_applying_the_terms_matches_the_assembled_generator(approach):
    liou = oracle.build(COLD_POINT, approach, n_max=6)
    dim = liou.dimension
    rng = np.random.default_rng(58)
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = rho + rho.conj().T
    assert np.abs(rho[~_sector_mask(liou).reshape((dim, dim), order="F")]).min() > 0
    applied = oracle.apply(liou.terms, rho)
    assembled = (liou.generator @ rho.reshape(-1, order="F")).reshape((dim, dim), order="F")
    assert np.abs(applied - assembled).max() <= 1e-14 * np.abs(assembled).max()


def _commutator(op: sp.spmatrix) -> tuple:
    eye = sp.identity(op.shape[0], format="csr")
    return ((op, eye, -1j), (eye, op, 1j))


@pytest.mark.parametrize("breaking", ["squeezing", "quadrature_dissipator"])
def test_symmetry_breaking_term_fails_the_full_residual(breaking):
    liou = oracle.build(FRIGID_POINT, Generator.LOCAL, n_max=4)
    a, ad = liou.a, liou.a.conj().T
    if breaking == "squeezing":
        extra = _commutator(1e-3 * (ad @ ad + a @ a))
    else:
        x = a + ad
        eye = sp.identity(liou.dimension, format="csr")
        extra = ((x, x, 1e-3), (x @ x, eye, -5e-4), (eye, x @ x, -5e-4))
    broken = dataclasses.replace(liou, terms=liou.terms + extra)
    with pytest.raises(NonConvergence):
        oracle.steady_state(broken)


@pytest.mark.parametrize("approach", [Generator.LOCAL, Generator.GLOBAL])
def test_generator_preserves_trace(approach):
    liou = oracle.build(COLD_POINT, approach, n_max=4)
    dim = liou.dimension
    trace_vec = np.zeros(dim * dim, dtype=complex)
    trace_vec[:: dim + 1] = 1.0
    drift = np.abs(trace_vec @ liou.generator).max()
    scale = np.abs(liou.generator.data).max()
    assert drift <= 1e-13 * scale


def test_tls_generator_preserves_trace():
    params = dataclasses.replace(COLD_POINT, statistics=Statistics.TLS)
    liou = oracle.build(params, Generator.LOCAL)
    trace_vec = np.zeros(16, dtype=complex)
    trace_vec[::5] = 1.0
    drift = np.abs(trace_vec @ liou.generator).max()
    assert drift <= 1e-13 * np.abs(liou.generator.data).max()


def test_steady_state_is_a_density_matrix():
    liou = oracle.build(COLD_POINT, Generator.LOCAL, n_max=10)
    rho = oracle.steady_state(liou)
    assert abs(np.trace(rho) - 1.0) <= 1e-14
    assert np.abs(rho - rho.conj().T).max() == 0.0
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_decoupled_nodes_thermalize_exactly():
    params = dataclasses.replace(COLD_POINT, epsilon=0.0)
    liou = oracle.build(params, Generator.LOCAL, n_max=10)
    rho = oracle.steady_state(liou)
    expected = np.kron(
        _truncated_thermal(params.omega_h, params.T_h, 10),
        _truncated_thermal(params.omega_c, params.T_c, 10),
    )
    assert np.abs(rho - expected).max() <= 1e-12


def test_equal_temperatures_relax_to_gibbs():
    params = dataclasses.replace(COLD_POINT, T_h=1.3, T_c=1.3)
    liou = oracle.build(params, Generator.GLOBAL, n_max=12)
    rho = oracle.steady_state(liou)
    assert np.abs(rho - oracle.gibbs_state(liou, 1.3)).max() <= 1e-11


def test_local_solve_matches_moment_equations():
    rng = np.random.default_rng(51)
    for _ in range(3):
        params = cold_params(rng)
        liou = oracle.build(params, Generator.LOCAL, n_max=12)
        rho = oracle.steady_state(liou)
        got = oracle.moments(liou, rho)
        want = local_mme.steady_state(params)
        assert got.as_array() == pytest.approx(
            want.moments.as_array(), abs=1e-10
        )
        j_hot = oracle.heat_current(liou, rho, "hot")
        j_cold = oracle.heat_current(liou, rho, "cold")
        assert abs(j_hot - want.J_h) <= 1e-8 * abs(want.J_h) + 1e-12
        assert abs(j_cold - want.J_c) <= 1e-8 * abs(want.J_c) + 1e-12
        # the brute-force currents balance on their own
        assert abs(j_hot + j_cold) <= 1e-13 * max(1.0, abs(j_hot))


def test_global_solve_matches_mode_balance():
    rng = np.random.default_rng(52)
    for _ in range(3):
        params = cold_params(rng)
        liou = oracle.build(params, Generator.GLOBAL, n_max=12)
        rho = oracle.steady_state(liou)
        want = global_mme.steady_state(params)
        n_plus, n_minus = oracle.mode_populations(liou, rho)
        assert n_plus == pytest.approx(want.n_plus, abs=1e-10)
        assert n_minus == pytest.approx(want.n_minus, abs=1e-10)
        j_hot = oracle.heat_current(liou, rho, "hot")
        assert abs(j_hot - want.J_h) <= 1e-8 * abs(want.J_h) + 1e-12


def test_tls_solve_is_exact():
    rng = np.random.default_rng(53)
    for _ in range(3):
        params = generic_params(rng, Statistics.TLS)
        liou = oracle.build(params, Generator.LOCAL)
        assert liou.n_max == 1
        assert liou.dimension == 4
        rho = oracle.steady_state(liou)
        got = oracle.moments(liou, rho)
        want = local_mme.steady_state(params)
        assert got.as_array() == pytest.approx(
            want.moments.as_array(), rel=1e-10, abs=1e-14
        )
        j_hot = oracle.heat_current(liou, rho, "hot")
        assert j_hot == pytest.approx(want.J_h, rel=1e-9, abs=1e-18)


def test_moments_converge_in_truncation():
    params = cold_params(np.random.default_rng(54))
    solved = []
    for n_max in (8, 12):
        liou = oracle.build(params, Generator.LOCAL, n_max=n_max)
        rho = oracle.steady_state(liou)
        solved.append(oracle.moments(liou, rho).as_array())
    assert solved[0] == pytest.approx(solved[1], abs=1e-10)


def test_quadrature_covariance_matches_moment_assembly():
    params = cold_params(np.random.default_rng(55))
    liou = oracle.build(params, Generator.LOCAL, n_max=12)
    rho = oracle.steady_state(liou)
    direct = oracle.quadrature_covariance(liou, rho)
    assembled = gaussian.covariance_local(oracle.moments(liou, rho))
    np.testing.assert_allclose(
        direct.matrix, assembled.matrix, rtol=0.0, atol=1e-10
    )


def test_quadrature_covariance_rejects_tls():
    params = dataclasses.replace(COLD_POINT, statistics=Statistics.TLS)
    liou = oracle.build(params, Generator.LOCAL)
    rho = oracle.steady_state(liou)
    with pytest.raises(StatisticsMismatch):
        oracle.quadrature_covariance(liou, rho)


def test_channel_table_reassembles_the_global_generator():
    params = generic_params(np.random.default_rng(56))
    liou = oracle.build(params, Generator.GLOBAL, n_max=3)
    table = global_mme.local_basis_generator(params)
    via_table = oracle.channel_superoperator(liou.a, liou.b, table.hot)
    assert np.abs((via_table - liou.hot_part).toarray()).max() <= 1e-12


def test_channel_table_rejects_an_unknown_kind():
    liou = oracle.build(COLD_POINT, Generator.LOCAL, n_max=2)
    channel = global_mme.DissipationChannel(kind="c", weight=1.0, boltzmann=0.5)
    with pytest.raises(ValueError, match="unknown channel kind"):
        oracle.channel_superoperator(liou.a, liou.b, (channel,))


def test_warm_point_trips_the_occupancy_guard():
    # omega/T ~ 0.8 leaves ~1e-5 of the population on the top Fock level
    # at n_max = 12, far above what the residual alone would reveal
    liou = oracle.build(NetworkParams(), Generator.LOCAL, n_max=12)
    with pytest.raises(TruncationTooSmall):
        oracle.steady_state(liou)


def test_commutator_alone_has_degenerate_nullspace():
    liou = oracle.build(COLD_POINT, Generator.LOCAL, n_max=4)
    broken = dataclasses.replace(liou, terms=_commutator(liou.hamiltonian))
    with pytest.raises(DegenerateNullspace):
        oracle.steady_state(broken)


def _tls_with_hot_channel(rate: float, boltzmann: float) -> oracle.FockLiouvillian:
    # the two-level local generator with its hot dissipator swapped for another
    params = dataclasses.replace(COLD_POINT, statistics=Statistics.TLS)
    liou = oracle.build(params, Generator.LOCAL)
    hot = oracle._thermal_channel(((liou.a, liou.a),), rate, boltzmann)
    return dataclasses.replace(liou, terms=_commutator(liou.hamiltonian) + hot + liou.cold)


def test_non_positive_steady_state_fails_the_positivity_guard():
    # a negative upward weight keeps the trace but not positivity
    broken = _tls_with_hot_channel(1e-4, -0.5)
    with pytest.raises(NonConvergence, match="eigenvalue"):
        oracle.steady_state(broken)


def test_non_finite_solution_is_a_degenerate_nullspace():
    broken = _tls_with_hot_channel(1e300, 0.5)
    with pytest.raises(DegenerateNullspace, match="non-finite entries"):
        oracle.steady_state(broken)


def test_global_tls_is_rejected():
    params = dataclasses.replace(COLD_POINT, statistics=Statistics.TLS)
    with pytest.raises(UnsupportedStatistics):
        oracle.build(params, Generator.GLOBAL)


def test_bosonic_truncation_below_two_is_rejected():
    with pytest.raises(TruncationTooSmall):
        oracle.build(COLD_POINT, Generator.LOCAL, n_max=1)


def test_heat_current_rejects_unknown_bath():
    liou = oracle.build(COLD_POINT, Generator.LOCAL, n_max=4)
    rho = oracle.gibbs_state(liou, 1.0)
    with pytest.raises(ValueError):
        oracle.heat_current(liou, rho, "tepid")


def test_mode_populations_need_a_gapped_spectrum():
    params = NetworkParams(omega_h=1.0, omega_c=1.0, epsilon=1.5, T_h=0.3, T_c=0.25)
    liou = oracle.build(params, Generator.LOCAL, n_max=4)
    rho = oracle.gibbs_state(liou, 0.3)
    with pytest.raises(GaplessSpectrum):
        oracle.mode_populations(liou, rho)


def test_suggested_nmax_is_the_smallest_clearing_the_tail():
    rng = np.random.default_rng(57)
    for approach in (Generator.LOCAL, Generator.GLOBAL):
        for _ in range(20):
            params = generic_params(rng)
            n = oracle.suggested_nmax(params, approach)
            if approach is Generator.GLOBAL:
                omega = model.normal_mode_basis(params).omega_minus
            else:
                omega = min(params.omega_h, params.omega_c)
            x = omega / max(params.T_h, params.T_c)
            assert math.exp(-x * (n + 1)) < oracle.TAIL_TARGET
            if n > 2:
                assert math.exp(-x * n) >= oracle.TAIL_TARGET


def test_suggested_nmax_edge_cases():
    assert (
        oracle.suggested_nmax(
            dataclasses.replace(NetworkParams(), statistics=Statistics.TLS)
        )
        == 1
    )
    # tails this cold would clear the target already at n_max = 1, but the
    # cross channels need two excitations to exist at all
    frigid = NetworkParams(omega_h=10.0, omega_c=8.0, epsilon=0.1, T_h=0.5, T_c=0.4)
    assert oracle.suggested_nmax(frigid) == 2
    # the dressed gap is softer than either bare frequency
    assert oracle.suggested_nmax(COLD_POINT, Generator.GLOBAL) >= oracle.suggested_nmax(
        COLD_POINT, Generator.LOCAL
    )
