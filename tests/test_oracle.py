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
from qheatnet import _fock_reference as reference
from qheatnet import global_mme, local_mme, model, oracle
from qheatnet.errors import (
    DegenerateNullspace,
    GaplessSpectrum,
    NonConvergence,
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
# the frigid cases plus a warmer point whose blocks all carry weight
SOLVE_CASES = [
    pytest.param(dataclasses.replace(FRIGID_POINT, statistics=s), g, n, id=f"{s}-{g}-{n}")
    for s, g, n in SECTOR_CASES
] + [pytest.param(COLD_POINT, g, 8, id=f"cold-{g}-8") for g in Generator]
# the sector cases plus the warmer point at the truncations the rows use
BLOCK_CASES = SOLVE_CASES + [pytest.param(COLD_POINT, g, 12, id=f"cold-{g}-12") for g in Generator]


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


def _full(liou: oracle.FockLiouvillian) -> reference.FullSpace:
    """liou's generator rebuilt on the whole space by the reference."""
    return reference.operators(liou.params, liou.approach, liou.n_max)


def _with_terms(liou: oracle.FockLiouvillian, terms: tuple) -> oracle.FockLiouvillian:
    """liou with its terms replaced by full-space ones, cut into blocks and grouped."""
    return dataclasses.replace(liou, terms=oracle._grouped(reference.cut(terms, liou.n_max)))


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


@pytest.mark.parametrize("params,approach,n_max", SOLVE_CASES)
def test_sector_solve_matches_the_full_space_solve(params, approach, n_max):
    liou = oracle.build(params, approach, n_max=n_max)
    rho = oracle.steady_state(liou)
    reference = _full_space_steady_state(liou)
    assert np.abs(rho - reference).max() <= 1e-14
    # the reference is not trivially the vacuum
    assert np.abs(reference[1:, 1:]).max() > 1e-9


@pytest.mark.parametrize("approach", [Generator.LOCAL, Generator.GLOBAL])
def test_sector_generator_is_block_tridiagonal_in_n(approach):
    # numbered by N = N_A + N_B, the sector couples each block only to N - 1, N, N + 1
    rng = np.random.default_rng(59)
    draws = [(cold_params(rng), 12) for _ in range(3)]
    if approach is Generator.LOCAL:
        draws.append((dataclasses.replace(COLD_POINT, statistics=Statistics.TLS), 1))
    for params, n_max in draws:
        liou = oracle.build(params, approach, n_max=n_max)
        dim_mode = liou.n_max + 1
        index = np.arange(liou.dimension)
        sector = np.flatnonzero(_sector_mask(liou))
        block = (index // dim_mode + index % dim_mode)[sector % liou.dimension]
        coupled = reference.superoperator(_full(liou).terms, liou.dimension, sector).tocoo()
        assert coupled.nnz > 0
        assert np.abs(block[coupled.row] - block[coupled.col]).max() <= 1


@pytest.mark.parametrize("params,approach,n_max", BLOCK_CASES)
def test_every_block_piece_equals_the_cut_full_space_operator(params, approach, n_max):
    # the row path's blocks against operators built on the whole space and
    # cut, entry by entry; each group's R stack holds every jump, raising,
    # anticommutator, identity and Hamiltonian piece unweighted, and its
    # w L stack the same pieces times their weights; terms, joined from the
    # commutator's and the baths' groups, equals grouping all its terms at once
    liou = oracle.build(params, approach, n_max=n_max)
    full = _full(liou)
    for blocks, op, shift in (
        (liou.a, full.a, -1),
        (liou.b, full.b, -1),
        (liou.hamiltonian, full.hamiltonian, 0),
    ):
        cut = reference.piece(op, liou.n_max)
        assert cut[0] == shift
        assert np.array_equal(blocks, cut[1])
    for part in ("terms", "hot", "cold"):
        got = getattr(liou, part)
        want = oracle._grouped(reference.cut(getattr(full, part), liou.n_max))
        assert list(got) == list(want)  # in order: the row path sums the shifts in it
        for shift, (lefts, rights) in want.items():
            assert np.array_equal(got[shift][0], lefts)
            assert np.array_equal(got[shift][1], rights)


@pytest.mark.parametrize("statistics,approach,n_max", SECTOR_CASES)
def test_sector_assembly_matches_the_sliced_full_generator(statistics, approach, n_max):
    params = dataclasses.replace(FRIGID_POINT, statistics=statistics)
    liou = oracle.build(params, approach, n_max=n_max)
    sector = np.flatnonzero(_sector_mask(liou))
    direct = reference.superoperator(_full(liou).terms, liou.dimension, sector)
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
    applied = reference.apply(_full(liou).terms, rho)
    assembled = (liou.generator @ rho.reshape(-1, order="F")).reshape((dim, dim), order="F")
    assert np.abs(applied - assembled).max() <= 1e-14 * np.abs(assembled).max()


def _commutator(op: sp.spmatrix) -> tuple:
    eye = sp.identity(op.shape[0], format="csr")
    return ((op, eye, -1j), (eye, op, 1j))


@pytest.mark.parametrize("breaking", ["squeezing", "quadrature_dissipator"])
def test_symmetry_breaking_term_fails_the_full_residual(breaking):
    # a'a' + aa and a + a' each shift N by two amounts, which cutting them refuses
    liou = oracle.build(FRIGID_POINT, Generator.LOCAL, n_max=4)
    full = _full(liou)
    a, ad = full.a, full.a.conj().T
    if breaking == "squeezing":
        extra = _commutator(1e-3 * (ad @ ad + a @ a))
    else:
        x = a + ad
        eye = sp.identity(liou.dimension, format="csr")
        extra = ((x, x, 1e-3), (x @ x, eye, -5e-4), (eye, x @ x, -5e-4))
    with pytest.raises(NonConvergence, match="shifts N by each of"):
        oracle.steady_state(_with_terms(liou, full.terms + extra))


def _pair_jump(op: sp.spmatrix, rate: float) -> tuple:
    # D[c] at rate for the pair jump c = op**2
    c = op @ op
    decay = c.conj().T @ c
    eye = sp.identity(op.shape[0], format="csr")
    return ((c, c.conj().T, rate), (decay, eye, -0.5 * rate), (eye, decay, -0.5 * rate))


@pytest.mark.parametrize("breaking", ["weak_squeezing", "pair_jump"])
def test_a_term_off_the_block_structure_is_refused_before_the_residual(breaking):
    # both are far below the residual tolerance on the unbroken steady state,
    # so only the structural checks on the N shifts can refuse them: cutting
    # refuses the squeezing operator, which shifts N by two amounts, and the
    # grouping refuses D[a^2], whose terms move N by two
    liou = oracle.build(FRIGID_POINT, Generator.LOCAL, n_max=4)
    full = _full(liou)
    a, ad = full.a, full.a.conj().T
    if breaking == "weak_squeezing":
        extra, refusal = _commutator(1e-20 * (ad @ ad + a @ a)), "shifts N by each of"
    else:
        extra, refusal = _pair_jump(a, 1e-3), "shifts N by -2 on the left"
    rho = oracle.steady_state(liou)
    assert np.abs(reference.apply(full.terms + extra, rho)).max() <= oracle.RESIDUAL_TOLERANCE
    with pytest.raises(NonConvergence, match=refusal):
        oracle.steady_state(_with_terms(liou, full.terms + extra))


@pytest.mark.parametrize("approach", [Generator.LOCAL, Generator.GLOBAL])
def test_observables_match_dense_traces_for_any_state(approach):
    # the observables read rho's N-blocks only; every operator they trace with
    # conserves N, so a state with entries off the sector gives the same numbers
    liou = oracle.build(COLD_POINT, approach, n_max=6)
    dim = liou.dimension
    rng = np.random.default_rng(60)
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = rho + rho.conj().T
    assert np.abs(rho[~_sector_mask(liou).reshape((dim, dim), order="F")]).min() > 0
    full = _full(liou)
    a, b = full.a.toarray(), full.b.toarray()
    basis = model.normal_mode_basis(COLD_POINT)
    d_plus, d_minus = basis.c * a + basis.s * b, basis.c * b - basis.s * a
    cross = np.trace(a.conj().T @ b @ rho)
    want = {
        "nA": np.trace(a.conj().T @ a @ rho).real,
        "nB": np.trace(b.conj().T @ b @ rho).real,
        "X": 2.0 * cross.real,
        "Y": -2.0 * cross.imag,
        "n_plus": np.trace(d_plus.conj().T @ d_plus @ rho).real,
        "n_minus": np.trace(d_minus.conj().T @ d_minus @ rho).real,
        "hot": np.trace(full.hamiltonian @ reference.apply(full.hot, rho)).real,
        "cold": np.trace(full.hamiltonian @ reference.apply(full.cold, rho)).real,
    }
    m = oracle.moments(liou, rho)
    n_plus, n_minus = oracle.mode_populations(liou, rho)
    got = {
        "nA": m.nA, "nB": m.nB, "X": m.X, "Y": m.Y, "n_plus": n_plus, "n_minus": n_minus,
        "hot": oracle.heat_current(liou, rho, "hot"),
        "cold": oracle.heat_current(liou, rho, "cold"),
    }
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-13, abs=0.0), key


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


@pytest.mark.parametrize("approach", [Generator.LOCAL, Generator.GLOBAL])
def test_moments_that_change_n_vanish_exactly(approach):
    # rho is block-diagonal in N, so the four moments fix the quadrature
    # covariance: first moments and the anomalous ones are exactly zero
    params = cold_params(np.random.default_rng(55))
    liou = oracle.build(params, approach, n_max=12)
    rho = oracle.steady_state(liou)
    full = _full(liou)
    a, b = full.a, full.b
    for op in (a, b, a @ a, b @ b, a @ b):
        assert np.trace(op @ rho) == 0.0


def test_channel_table_reassembles_the_global_generator():
    params = generic_params(np.random.default_rng(56))
    liou = oracle.build(params, Generator.GLOBAL, n_max=3)
    table = global_mme.local_basis_generator(params)
    full = _full(liou)
    via_table = reference.channel_superoperator(full.a, full.b, table.hot)
    assert np.abs((via_table - liou.hot_part).toarray()).max() <= 1e-12


def test_channel_table_rejects_an_unknown_kind():
    liou = oracle.build(COLD_POINT, Generator.LOCAL, n_max=2)
    channel = global_mme.DissipationChannel(kind="c", weight=1.0, boltzmann=0.5)
    full = _full(liou)
    with pytest.raises(ValueError, match="unknown channel kind"):
        reference.channel_superoperator(full.a, full.b, (channel,))


def test_warm_point_trips_the_occupancy_guard():
    # omega/T ~ 0.8 leaves ~1e-5 of the population on the top Fock level
    # at n_max = 12, far above what the residual alone would reveal
    liou = oracle.build(NetworkParams(), Generator.LOCAL, n_max=12)
    with pytest.raises(TruncationTooSmall):
        oracle.steady_state(liou)


def test_commutator_alone_has_degenerate_nullspace():
    liou = oracle.build(COLD_POINT, Generator.LOCAL, n_max=4)
    with pytest.raises(DegenerateNullspace):
        oracle.steady_state(_with_terms(liou, _commutator(_full(liou).hamiltonian)))


def _tls_with_hot_channel(rate: float, boltzmann: float) -> oracle.FockLiouvillian:
    # the two-level local generator with its hot dissipator swapped for another
    params = dataclasses.replace(COLD_POINT, statistics=Statistics.TLS)
    liou = oracle.build(params, Generator.LOCAL)
    full = _full(liou)
    hot = reference._thermal_channel(((full.a, full.a),), rate, boltzmann)
    return _with_terms(liou, _commutator(full.hamiltonian) + hot + full.cold)


def test_non_positive_steady_state_fails_the_positivity_guard():
    # a negative upward weight keeps the trace but not positivity
    broken = _tls_with_hot_channel(1e-4, -0.5)
    with pytest.raises(NonConvergence, match="eigenvalue"):
        oracle.steady_state(broken)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_solution_is_a_degenerate_nullspace():
    # at rate 1e300 the block solve stays finite and the residual guard rejects it
    with pytest.raises(NonConvergence, match="residual"):
        oracle.steady_state(_tls_with_hot_channel(1e300, 0.5))
    with pytest.raises(DegenerateNullspace, match="non-finite entries"):
        oracle.steady_state(_tls_with_hot_channel(math.inf, 0.5))


def test_zero_trace_solution_is_a_degenerate_nullspace():
    # hot rate 1.3e37 against a cold one of 2.7e-221: the recursion's populations cancel to trace 0
    params = NetworkParams(kappa=8.376704664343789e-224, T_h=1.610262027560903e258)
    with pytest.raises(DegenerateNullspace, match="trace"):
        oracle.steady_state(oracle.build(params, Generator.LOCAL, 3))


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
