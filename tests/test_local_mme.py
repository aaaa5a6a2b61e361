"""Local-treatment moment system: steady state, closed form, conservation laws."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qheatnet import bath
from qheatnet.errors import RateOverflow, SingularSystem
from qheatnet.local_mme import (
    MomentState,
    affine_system,
    heat_current_closed_form,
    steady_state,
    steady_states,
)
from qheatnet.model import NetworkParams, Statistics, thermal_occupation

from _draws import contrast_params, extreme_params, generic_params


def _hand_rhs(params, state):
    # the four moment equations written out longhand, independent of the
    # matrix assembly under test
    gamma_h = bath.rate(params.omega_h, params.T_h, params.kappa)
    gamma_c = bath.rate(params.omega_c, params.T_c, params.kappa)
    w_h = math.exp(-params.omega_h / params.T_h)
    w_c = math.exp(-params.omega_c / params.T_c)
    G_h = gamma_h * (1.0 + params.delta * w_h)
    G_c = gamma_c * (1.0 + params.delta * w_c)
    gap = params.omega_h - params.omega_c
    d_nA = gamma_h * w_h - G_h * state.nA - params.epsilon * state.Y
    d_nB = gamma_c * w_c - G_c * state.nB + params.epsilon * state.Y
    d_X = -0.5 * (G_h + G_c) * state.X + gap * state.Y
    d_Y = -0.5 * (G_h + G_c) * state.Y - gap * state.X + 2.0 * params.epsilon * (state.nA - state.nB)
    return np.array([d_nA, d_nB, d_X, d_Y])


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.TLS])
def test_moment_rhs_matches_hand_equations(statistics):
    rng = np.random.default_rng(101)
    for _ in range(50):
        params = generic_params(rng, statistics)
        state = MomentState(*rng.normal(size=4))
        A, v = affine_system(params)
        got = A @ state.as_array() + v
        assert got == pytest.approx(_hand_rhs(params, state), rel=1e-13, abs=1e-16)


def test_rhs_vanishes_at_steady_state():
    rng = np.random.default_rng(5)
    for _ in range(50):
        params = generic_params(rng)
        state = steady_state(params)
        A, v = affine_system(params)
        rhs = A @ state.moments.as_array() + v
        scale = max(1.0, float(np.max(np.abs(state.moments.as_array()))))
        assert np.max(np.abs(rhs)) <= 1e-12 * scale


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.TLS])
def test_decoupled_nodes_thermalize(statistics):
    params = NetworkParams(omega_h=9.0, omega_c=2.0, epsilon=0.0, T_h=17.0, T_c=3.0,
                           kappa=1e-5, statistics=statistics)
    state = steady_state(params)
    nA, nB = thermal_occupation(9.0, 17.0, statistics), thermal_occupation(2.0, 3.0, statistics)
    assert state.moments.nA == pytest.approx(nA, rel=1e-12, abs=0.0)
    assert state.moments.nB == pytest.approx(nB, rel=1e-12, abs=0.0)
    assert state.moments.X == 0.0
    assert state.moments.Y == 0.0
    assert state.J_h == pytest.approx(0.0, abs=1e-18)
    assert state.J_c == pytest.approx(0.0, abs=1e-18)


def test_first_law_generic_draws():
    rng = np.random.default_rng(42)
    for statistics in (Statistics.BOSON, Statistics.TLS):
        for _ in range(100):
            params = generic_params(rng, statistics)
            state = steady_state(params)
            assert abs(state.J_h + state.J_c) <= 1e-10 * max(1.0, abs(state.J_h))


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.TLS])
def test_closed_form_matches_solve(statistics):
    rng = np.random.default_rng(77)
    for _ in range(50):
        params = contrast_params(rng, statistics)
        state = steady_state(params)
        closed, _ = heat_current_closed_form(params)
        assert closed == pytest.approx(state.J_h, rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "params",
    [
        NetworkParams(omega_h=10.0, T_h=0.03),
        NetworkParams(omega_h=10.0, T_h=0.012),
        NetworkParams(kappa=1e-300),
    ],
    ids=["omega_over_T_333", "omega_over_T_833", "kappa_1e-300"],
)
def test_closed_form_matches_solve_at_extremes(params):
    # powers of exp(+beta omega) leave the float range at omega/T = 333 and
    # 833, and a product of four rates does at kappa = 1e-300; the solve
    # itself is good to a few 1e-9 at this weak coupling; abs=0 because these
    # currents sit below pytest's default 1e-12 absolute slack
    closed, prefactor = heat_current_closed_form(params)
    assert closed == pytest.approx(steady_state(params).J_h, rel=1e-8, abs=0.0)
    assert prefactor >= 0.0


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.TLS])
def test_closed_form_at_huge_coupling(statistics):
    # epsilon**2 overflows at epsilon = 1e200; the closed form never forms it
    params = NetworkParams(epsilon=1e200, statistics=statistics)
    closed, prefactor = heat_current_closed_form(params)
    assert math.isfinite(closed) and prefactor >= 0.0
    assert closed == pytest.approx(steady_state(params).J_h, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.TLS])
@pytest.mark.parametrize(
    "values", [{"omega_h": 1e200}, {"kappa": 1e300, "omega_h": 1e5}], ids=["omega_h", "kappa"]
)
def test_size_one_calls_raise_the_row_error(statistics, values):
    # the kernel carries the error in its row; the size-1 calls raise it, and
    # so does the closed form, which reads the same node rates
    params = NetworkParams(**values, statistics=statistics)
    for call in (steady_state, affine_system, heat_current_closed_form):
        with pytest.raises(RateOverflow):
            call(params)


# kappa omega_h^3 = 4e-548 underflows while gamma_h = 3.1e-252 does not.  The
# references, with mpmath at 50 digits on the exact doubles and x = omega_h / T_h:
#   p_h = kappa * omega_h**3 / -mp.expm1(-x) * mp.exp(-x)
# and n_A from Gaussian elimination of the 4x4 moment system A x = -v at 400
# digits, built from the exact rates the same way.
UNDERFLOWING_CUBE_TLS = NetworkParams(
    omega_h=8.702490877042025e-208, omega_c=6.484549848456e-27, epsilon=1.1714788723384688e-148,
    T_h=6.550302214408692e88, T_c=2.1840538906304704e-186, kappa=6.221807012752841e73,
    statistics=Statistics.TLS,
)


def test_a_node_whose_cubic_rate_underflows_keeps_its_pumping():
    _, v = affine_system(UNDERFLOWING_CUBE_TLS)
    assert v[0] == pytest.approx(3.0864910868454934739e-252, rel=1e-15, abs=0.0)
    assert steady_state(UNDERFLOWING_CUBE_TLS).moments.nA == pytest.approx(0.5, rel=1e-15, abs=0.0)


def test_a_bosonic_node_whose_damping_underflows_keeps_its_pumping():
    # G_h = kappa omega_h^3 = 1e-337 flushes to 0, while p_h = 1e-127 pumps node
    # A far above the cold node's 7e-218.  References as for the TLS point,
    # with J_h = eps Y (omega_h G_c + omega_c G_h) / S from the solved moments.
    state = steady_state(NetworkParams(omega_h=1e-110, T_h=1e100, T_c=0.01))
    assert state.moments.nA == pytest.approx(2.0000000800031251534e-115, rel=1e-15, abs=0.0)
    assert state.J_h == pytest.approx(1.0000000000000001243e-237, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "params",
    [NetworkParams(T_h=1e17, T_c=1e17), NetworkParams(omega_h=0.01, omega_c=0.02, kappa=1e-320)],
    ids=["weights_round_to_1", "rates_underflow"],
)
def test_closed_form_with_a_zero_rate_is_a_singular_system(params):
    # G_l rounds to 0, so S / G_l in the closed form would divide by zero
    with pytest.raises(SingularSystem):
        heat_current_closed_form(params)


# gamma_c underflows to 0 and epsilon is 2.4e-279 of the detuning, so in working
# precision nothing couples node B: the moment system is singular to working
# precision, as a 60-digit mpmath solve of it finds too
SINGULAR_TLS = NetworkParams(
    omega_h=7.101498345015055, omega_c=0.013147191079549564, epsilon=1.6957597259418116e-278,
    T_h=704760091.1234993, T_c=1.3713246728250014e-06, kappa=1.241e-320,
    statistics=Statistics.TLS,
)


def test_non_finite_moments_are_a_singular_system():
    with pytest.raises(SingularSystem, match="working precision"):
        steady_state(SINGULAR_TLS)
    points = [SINGULAR_TLS, replace(SINGULAR_TLS, kappa=1e-7)]
    columns = [
        [getattr(p, name) for p in points]
        for name in ("omega_h", "omega_c", "epsilon", "T_h", "T_c", "kappa")
    ]
    states, errors = steady_states(*columns, Statistics.TLS.delta)
    assert isinstance(errors[0], SingularSystem) and errors[1] is None
    assert all(math.isfinite(states[name][1]) for name in ("n_A", "n_B", "X", "Y"))


def test_current_sign_follows_exponential_contrast():
    # J_h carries the sign of e^(beta_c omega_c) - e^(beta_h omega_h); sigma
    # additionally carries the sign of the inverse-temperature difference
    rng = np.random.default_rng(13)
    for _ in range(200):
        params = contrast_params(rng)
        state = steady_state(params)
        contrast = math.exp(params.beta_c * params.omega_c) - math.exp(params.beta_h * params.omega_h)
        assert math.copysign(1.0, state.J_h) == math.copysign(1.0, contrast)
        if abs(params.beta_c - params.beta_h) > 1e-3:
            expected = math.copysign(1.0, contrast) * math.copysign(1.0, params.beta_c - params.beta_h)
            assert math.copysign(1.0, state.sigma) == expected


def test_prefactor_is_nonnegative():
    rng = np.random.default_rng(3)
    for statistics in (Statistics.BOSON, Statistics.TLS):
        for _ in range(100):
            params = generic_params(rng, statistics)
            _, prefactor = heat_current_closed_form(params)
            assert prefactor >= 0.0


def test_frozen_regression_boson():
    # 50-digit evaluation at omega_h=10, omega_c=5, eps=0.01, T_h=12, T_c=10, kappa=1e-4
    params = NetworkParams(omega_h=10.0, omega_c=5.0, epsilon=1e-2, T_h=12.0, T_c=10.0, kappa=1e-4)
    reference = -1.9317780982720402553e-06
    closed, _ = heat_current_closed_form(params)
    assert closed == pytest.approx(reference, rel=1e-12, abs=0.0)
    # the 4x4 solve loses a few digits to conditioning at this weak coupling
    assert steady_state(params).J_h == pytest.approx(reference, rel=1e-9, abs=0.0)


def test_frozen_regression_tls():
    # 50-digit evaluation at the default parameter point with two-level nodes
    params = NetworkParams(statistics=Statistics.TLS)
    closed, _ = heat_current_closed_form(params)
    assert closed == pytest.approx(-5.3086124926134222206e-12, rel=1e-12, abs=0.0)


def test_tls_moments_bounded():
    rng = np.random.default_rng(211)
    for _ in range(100):
        params = generic_params(rng, Statistics.TLS)
        m = steady_state(params).moments
        assert -1e-12 <= m.nA <= 1.0 + 1e-12
        assert -1e-12 <= m.nB <= 1.0 + 1e-12


def test_boson_moments_physical():
    # occupations nonnegative and the coherence obeys Cauchy-Schwarz
    rng = np.random.default_rng(212)
    for _ in range(100):
        params = generic_params(rng)
        m = steady_state(params).moments
        assert m.nA >= -1e-14
        assert m.nB >= -1e-14
        coherence_sq = 0.25 * (m.X**2 + m.Y**2)
        assert coherence_sq <= m.nA * (m.nB + 1.0) + 1e-12
        assert coherence_sq <= (m.nA + 1.0) * m.nB + 1e-12


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.TLS])
def test_steady_state_attracts(statistics):
    # every eigenvalue of the drift matrix has a negative real part, so any
    # initial moment vector relaxes to the unique steady state
    rng = np.random.default_rng(31)
    for _ in range(100):
        A, _ = affine_system(generic_params(rng, statistics))
        assert np.max(np.linalg.eigvals(A).real) < 0.0


def _generator_currents(params, m):
    # the hot and cold generator expectations at moments m, each as its
    # terms: omega p - omega G n - (epsilon / 2) G X, with G written as the
    # bath identity kappa omega^3 for bosons (gamma (1 - w) loses digits
    # where w rounds towards 1) and p = gamma w rounded once, as in the
    # kernel (among subnormal rates that rounding is the largest)
    currents = []
    for omega, T, n in ((params.omega_h, params.T_h, m.nA), (params.omega_c, params.T_c, m.nB)):
        gamma = bath.rate(omega, T, params.kappa)
        w = math.exp(-omega / T)
        G = params.kappa * omega**3 if params.delta < 0 else gamma * (1.0 + w)
        currents.append((omega * (gamma * w), -omega * G * n, -0.5 * params.epsilon * G * m.X))
    return currents


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.TLS])
def test_grid_kernel_matches_the_dense_solve_and_the_generator_currents(statistics):
    rng = np.random.default_rng(8080)
    points = [
        replace(draw(rng), statistics=statistics)
        for draw in (generic_params, contrast_params, extreme_params)
        for _ in range(300)
    ]
    # a singular moment system and an overflowing rate, mid-column
    points[100:100] = [
        NetworkParams(omega_h=0.01, omega_c=0.02, epsilon=0.0, kappa=1e-320, statistics=statistics),
        NetworkParams(omega_h=1e200, statistics=statistics),
    ]
    columns = [
        [getattr(p, name) for p in points]
        for name in ("omega_h", "omega_c", "epsilon", "T_h", "T_c", "kappa")
    ]
    states, errors = steady_states(*columns, statistics.delta)
    failed = [i for i, error in enumerate(errors) if error is not None]
    assert failed == [100, 101]
    assert type(errors[100]) is SingularSystem and type(errors[101]) is RateOverflow
    unit = np.finfo(float).eps
    for i, params in enumerate(points):
        if i in failed:
            continue
        m = MomentState(*(states[name][i] for name in ("n_A", "n_B", "X", "Y")))
        # a backward-stable dense solve is good to a few units of cond(A) eps
        A, v = affine_system(params)
        want = np.linalg.solve(A, -v)
        gap = np.max(np.abs(m.as_array() - want))
        assert gap == 0.0 or gap <= 8.0 * unit * np.linalg.cond(A) * np.max(np.abs(want)), params
        # the currents are the generator expectations, good to the rounding
        # of the terms that cancel in them (absolute among subnormal terms)
        J_h, J_c = states["J_h"][i], states["J_c"][i]
        for terms, want_J in zip(_generator_currents(params, m), (J_h, -J_h)):
            bound = 1e-13 * sum(map(abs, terms)) + 4.0 * math.ulp(0.0)
            assert abs(sum(terms) - want_J) <= bound, params
        assert J_c == -J_h
        assert states["sigma"][i] == -J_h / params.T_h - J_c / params.T_c


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.TLS])
def test_swapping_the_baths_swaps_the_nodes(statistics):
    # (omega_h, T_h) <-> (omega_c, T_c) relabels the nodes: J_h and J_c
    # trade places, so do nA and nB, X stays and Y changes sign
    rng = np.random.default_rng(515)
    for draw in (generic_params, contrast_params, extreme_params):
        for _ in range(100):
            params = replace(draw(rng), statistics=statistics)
            mirror = replace(
                params, omega_h=params.omega_c, T_h=params.T_c, omega_c=params.omega_h, T_c=params.T_h
            )
            state, swapped = steady_state(params), steady_state(mirror)
            pairs = [
                (swapped.J_h, state.J_c), (swapped.J_c, state.J_h),
                (swapped.moments.nA, state.moments.nB), (swapped.moments.nB, state.moments.nA),
                (swapped.moments.X, state.moments.X), (swapped.moments.Y, -state.moments.Y),
            ]
            for got, want in pairs:
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), params
