"""Global-treatment balance: equilibrium, second law, closed form, channel table."""

import hashlib
import math
import sys

import numpy as np
import pytest

from qheatnet import bath
from qheatnet.errors import (
    GaplessSpectrum, HeatNetError, RateOverflow, SingularSystem, UnsupportedStatistics,
)
from qheatnet.global_mme import (
    heat_current_closed_form,
    local_basis_generator,
    steady_state,
    steady_states,
)
from qheatnet.model import _FLOAT_KEYS, NetworkParams, Statistics, normal_mode_basis

from _draws import (
    contrast_params, extreme_params, generic_params, pin_texts, whole_range_params, whole_range_points,
)
from _exact import exact_global_row


def test_equal_temperatures_give_bose_einstein_modes():
    rng = np.random.default_rng(31)
    for _ in range(100):
        base = generic_params(rng)
        params = NetworkParams(
            omega_h=base.omega_h, omega_c=base.omega_c, epsilon=base.epsilon,
            T_h=base.T_h, T_c=base.T_h, kappa=base.kappa,
        )
        state = steady_state(params)
        basis = normal_mode_basis(params)
        expected_plus = 1.0 / math.expm1(basis.omega_plus / params.T_h)
        expected_minus = 1.0 / math.expm1(basis.omega_minus / params.T_h)
        assert state.n_plus == pytest.approx(expected_plus, rel=1e-12, abs=0.0)
        assert state.n_minus == pytest.approx(expected_minus, rel=1e-12, abs=0.0)
        assert abs(state.J_h) <= 1e-12
        assert abs(state.J_c) <= 1e-12
        assert abs(state.sigma) <= 1e-13


def test_zero_coupling_decouples_baths():
    params = NetworkParams(omega_h=10.0, omega_c=5.0, epsilon=0.0, T_h=12.0, T_c=10.0, kappa=1e-5)
    state = steady_state(params)
    assert state.J_h == pytest.approx(0.0, abs=1e-18)
    assert state.J_c == pytest.approx(0.0, abs=1e-18)
    assert state.nA == pytest.approx(1.0 / math.expm1(10.0 / 12.0), rel=1e-12, abs=0.0)
    assert state.nB == pytest.approx(1.0 / math.expm1(5.0 / 10.0), rel=1e-12, abs=0.0)
    assert heat_current_closed_form(params) == 0.0


def test_first_law_generic_draws():
    rng = np.random.default_rng(32)
    for _ in range(200):
        params = generic_params(rng)
        state = steady_state(params)
        assert abs(state.J_h + state.J_c) <= 1e-10 * max(1.0, abs(state.J_h))


def test_second_law_even_with_reversed_bias():
    # generic draws include T_c > T_h; sigma must stay nonnegative throughout
    rng = np.random.default_rng(33)
    for _ in range(300):
        params = generic_params(rng)
        state = steady_state(params)
        assert state.sigma >= -1e-12
        # entropy production reduces to the current times the bias, up to
        # exactly -beta_c (J_h + J_c), the float residual of the first law
        expected = (params.beta_c - params.beta_h) * state.J_h
        slack = params.beta_c * abs(state.J_h + state.J_c) + 1e-15 * max(
            params.beta_h, params.beta_c
        ) * max(abs(state.J_h), abs(state.J_c))
        assert abs(state.sigma - expected) <= 1e-9 * abs(expected) + 2.0 * slack


def test_heat_flows_downhill():
    rng = np.random.default_rng(34)
    for _ in range(200):
        params = contrast_params(rng)
        state = steady_state(params)
        if params.T_h > params.T_c:
            assert state.J_h > 0.0
            assert state.J_c < 0.0
        else:
            assert state.J_h < 0.0
            assert state.J_c > 0.0


def test_closed_form_matches_balance():
    rng = np.random.default_rng(35)
    for _ in range(50):
        params = contrast_params(rng)
        assert heat_current_closed_form(params) == pytest.approx(
            steady_state(params).J_h, rel=1e-10, abs=0.0
        )


@pytest.mark.parametrize(
    "params",
    [
        NetworkParams(omega_h=10.0, T_h=0.03),
        NetworkParams(omega_h=10.0, T_h=0.012),
        NetworkParams(kappa=1e-300),
    ],
    ids=["omega_over_T_333", "omega_over_T_833", "kappa_1e-300"],
)
def test_closed_form_matches_balance_at_extremes(params):
    # exp(+beta omega) leaves the float range at omega/T = 833, and a
    # product of two rates does at kappa = 1e-300
    expected = steady_state(params).J_h
    # abs=0: these currents sit below pytest's default 1e-12 absolute slack
    assert heat_current_closed_form(params) == pytest.approx(expected, rel=1e-8, abs=0.0)


def test_frozen_regression():
    # 50-digit evaluation at omega_h=10, omega_c=5, eps=0.01, T_h=12, T_c=10, kappa=1e-4
    params = NetworkParams(omega_h=10.0, omega_c=5.0, epsilon=1e-2, T_h=12.0, T_c=10.0, kappa=1e-4)
    reference = 8.4497979247571301511e-07
    assert heat_current_closed_form(params) == pytest.approx(reference, rel=1e-12, abs=0.0)
    # the balance route cancels digits at weak coupling, where the mode
    # occupations are nearly single-bath thermal
    assert steady_state(params).J_h == pytest.approx(reference, rel=1e-9, abs=0.0)


def test_occupations_interpolate_between_baths():
    rng = np.random.default_rng(36)
    for _ in range(100):
        params = generic_params(rng)
        state = steady_state(params)
        basis = normal_mode_basis(params)
        for omega, n in ((basis.omega_plus, state.n_plus), (basis.omega_minus, state.n_minus)):
            occupations = sorted(
                (1.0 / math.expm1(omega / params.T_h), 1.0 / math.expm1(omega / params.T_c))
            )
            assert occupations[0] - 1e-12 <= n <= occupations[1] + 1e-12
        assert state.nA == pytest.approx(
            basis.c2 * state.n_plus + basis.s2 * state.n_minus, rel=1e-14, abs=0.0
        )
        assert state.nB == pytest.approx(
            basis.s2 * state.n_plus + basis.c2 * state.n_minus, rel=1e-14, abs=0.0
        )


def test_secular_warning_flags_small_splitting():
    # resonant pair split only by 2 eps, rates boosted by a large kappa
    tight = NetworkParams(omega_h=5.0, omega_c=5.0, epsilon=1e-4, T_h=12.0, T_c=10.0, kappa=1e-3)
    assert steady_state(tight).secular_warning
    wide = NetworkParams(omega_h=10.0, omega_c=5.0, epsilon=1e-4, T_h=12.0, T_c=10.0, kappa=1e-7)
    assert not steady_state(wide).secular_warning


def test_tls_rejected_everywhere():
    params = NetworkParams(statistics=Statistics.TLS)
    with pytest.raises(UnsupportedStatistics):
        steady_state(params)
    with pytest.raises(UnsupportedStatistics):
        heat_current_closed_form(params)
    with pytest.raises(UnsupportedStatistics):
        local_basis_generator(params)


def test_gapless_rejected():
    with pytest.raises(GaplessSpectrum):
        steady_state(NetworkParams(omega_h=1.0, omega_c=1.0, epsilon=1.0))


@pytest.mark.parametrize(
    "params",
    [NetworkParams(T_h=1e17, T_c=1e17), NetworkParams(omega_h=0.01, omega_c=0.02, kappa=1e-320)],
    ids=["weights_round_to_1", "rates_underflow"],
)
def test_a_mode_whose_decay_rounds_to_0_solves(params):
    # exp(-omega/T) rounds to 1 on both channels, or both rates round to 0:
    # the Bose factors need neither, so the row is finite; the references are
    # the rate form in 60-digit mpmath.  J_h is 0 at equal temperatures and
    # 1.7e-327, below the normal range, at kappa = 1e-320
    state = steady_state(params)
    exact = exact_global_row(params)
    cells = {"n_plus": state.n_plus, "n_minus": state.n_minus, "n_A": state.nA, "n_B": state.nB}
    for name, got in cells.items():
        assert got == pytest.approx(float(exact[name]), rel=1e-15, abs=0.0), name
    assert state.J_h == 0.0 and abs(exact["J_h"]) < sys.float_info.min
    # the closed form divides by the rates and the weights' complements
    with pytest.raises(SingularSystem):
        heat_current_closed_form(params)


def test_channel_table_weights():
    # the node-basis expansion must reassemble the per-mode channel strengths
    rng = np.random.default_rng(37)
    for _ in range(50):
        params = generic_params(rng)
        basis = normal_mode_basis(params)
        T_h, T_c, kappa = params.T_h, params.T_c, params.kappa
        gh_p, gh_m = bath.rate(basis.omega_plus, T_h, kappa), bath.rate(basis.omega_minus, T_h, kappa)
        gc_p, gc_m = bath.rate(basis.omega_plus, T_c, kappa), bath.rate(basis.omega_minus, T_c, kappa)
        table = local_basis_generator(params)
        for channels, k_plus, k_minus in (
            (table.hot, gh_p * basis.c2, gh_m * basis.s2),
            (table.cold, gc_p * basis.s2, gc_m * basis.c2),
        ):
            assert len(channels) == 6
            by_kind = {}
            for ch in channels:
                by_kind.setdefault(ch.kind, []).append(ch)
            plus, minus = by_kind["a"]
            plus_b, minus_b = by_kind["b"]
            # single-node weights of one mode sum to that mode's strength
            assert plus.weight + plus_b.weight == pytest.approx(k_plus, rel=1e-12, abs=1e-300)
            assert minus.weight + minus_b.weight == pytest.approx(k_minus, rel=1e-12, abs=1e-300)
            # cross weights are the geometric means, opposite in sign
            cross_plus, cross_minus = by_kind["cross"]
            assert cross_plus.weight == pytest.approx(
                math.sqrt(plus.weight * plus_b.weight), rel=1e-10, abs=1e-300
            )
            assert cross_minus.weight == pytest.approx(
                -math.sqrt(minus.weight * minus_b.weight), rel=1e-10, abs=1e-300
            )


def test_channel_table_boltzmann_factors():
    params = NetworkParams(omega_h=6.0, omega_c=4.0, epsilon=1.0, T_h=3.0, T_c=2.0, kappa=1e-5)
    basis = normal_mode_basis(params)
    table = local_basis_generator(params)
    for channels, beta in ((table.hot, 1.0 / 3.0), (table.cold, 0.5)):
        plus = pytest.approx(math.exp(-beta * basis.omega_plus), rel=1e-12, abs=0.0)
        minus = pytest.approx(math.exp(-beta * basis.omega_minus), rel=1e-12, abs=0.0)
        plus_like = [ch for ch in channels if ch.boltzmann == plus]
        minus_like = [ch for ch in channels if ch.boltzmann == minus]
        assert len(plus_like) == 3
        assert len(minus_like) == 3


def test_channel_table_collapses_at_zero_coupling():
    params = NetworkParams(omega_h=10.0, omega_c=5.0, epsilon=0.0, T_h=12.0, T_c=10.0, kappa=1e-5)
    gamma_h = bath.rate(params.omega_h, params.T_h, params.kappa)
    gamma_c = bath.rate(params.omega_c, params.T_c, params.kappa)
    table = local_basis_generator(params)
    hot = {(ch.kind, round(ch.weight, 18)) for ch in table.hot if ch.weight != 0.0}
    cold = {(ch.kind, round(ch.weight, 18)) for ch in table.cold if ch.weight != 0.0}
    assert hot == {("a", round(gamma_h, 18))}
    assert cold == {("b", round(gamma_c, 18))}


def _kernel(points: list[NetworkParams], statistics=Statistics.BOSON):
    return steady_states(*([getattr(p, name) for p in points] for name in _FLOAT_KEYS), statistics)


def test_kernel_rows_are_independent_of_their_batch():
    # ordinary, gapless, overflowing, decay-free and NaN-current rows in one
    # batch: each row is what the point solve gives, bit for bit, or its error
    rng = np.random.default_rng(41)
    points = [generic_params(rng) for _ in range(40)]
    draws = (extreme_params(rng) for _ in range(200))
    points += [p for p in draws if p.statistics is Statistics.BOSON]
    points += [
        NetworkParams(omega_h=1.0, omega_c=1.0, epsilon=1.0),
        NetworkParams(omega_h=1e200),
        NetworkParams(T_h=1e17, T_c=1e17),
        NetworkParams(omega_h=1e80),
        _SIGMA_OVERFLOW,
    ]
    states, row_errors = _kernel(points)
    errors = set()
    for i, params in enumerate(points):
        try:
            want = steady_state(params)
        except HeatNetError as exc:
            errors.add(type(exc))
            assert type(row_errors[i]) is type(exc) and str(row_errors[i]) == str(exc)
            continue
        assert row_errors[i] is None
        got = [states[name][i] for name in ("n_plus", "n_minus", "n_A", "n_B", "J_h", "J_c")]
        got += [states["sigma"][i], states["secular_warning"][i]]
        expected = (want.n_plus, want.n_minus, want.nA, want.nB, want.J_h, want.J_c, want.sigma)
        assert np.array_equal(got, [*expected, want.secular_warning], equal_nan=True), params
        # X as the rows printed it before the kernel: 2 cs (n_+ - n_-) from the basis
        basis = normal_mode_basis(params)
        assert states["X"][i] == 2.0 * basis.cs * (want.n_plus - want.n_minus)
        assert states["Y"][i] == 0.0
    assert errors == {GaplessSpectrum, RateOverflow}


# J_h is about 1.8e242 and T_c about 1e-225, so sigma is beyond the float range
_SIGMA_OVERFLOW = NetworkParams(
    omega_h=132882.1940568587, omega_c=1.0459489621609917e-26, epsilon=1.6261839577953575e-48,
    T_h=3.412143457021893e26, T_c=8.816864270556461e-226, kappa=2.2353900895477338e200,
)


@pytest.mark.parametrize(
    "params",
    [
        _SIGMA_OVERFLOW,
        NetworkParams(
            omega_h=1e160, omega_c=2e148, epsilon=1.3e154, T_h=1e160, T_c=1e150, kappa=1e-300
        ),
    ],
    ids=["cold_bath", "huge_splitting"],
)
def test_an_overflowing_entropy_production_is_a_rate_overflow(params):
    # J_h is about 1.8e242 and T_c about 1e-225, so sigma is beyond the float
    # range; at the huge splitting the mixing weight s2 is 1.69e-12, not 0, and
    # J_h itself is beyond it.  The kernel's row is checked from the CLI
    with pytest.raises(RateOverflow):
        steady_state(params)


def test_kernel_error_order():
    # two-level nodes fail every row before anything else is looked at
    tls = [NetworkParams(statistics=Statistics.TLS), NetworkParams(omega_h=1e200, epsilon=9.0)]
    assert [type(e) for e in _kernel(tls, Statistics.TLS)[1]] == [UnsupportedStatistics] * 2
    # a gapless row fails before its rates would overflow
    (error,) = _kernel([NetworkParams(omega_h=1e200, omega_c=1e-200, epsilon=1.0)])[1]
    assert type(error) is GaplessSpectrum
    # no mode divides by its loss, so after the spectrum the only error left
    # is a cell beyond the float range; the decay-free modes above solve
    points = [
        NetworkParams(omega_h=1e308, omega_c=1e308, epsilon=0.0),
        NetworkParams(omega_h=0.01, omega_c=0.02, kappa=1e-320),
        NetworkParams(T_h=1e17, T_c=1e17),
        _SIGMA_OVERFLOW,
    ]
    assert [type(e) for e in _kernel(points)[1]] == [RateOverflow, type(None), type(None), RateOverflow]
    assert "omega_+" in str(_kernel(points[:1])[1][0])


def _accuracy_points() -> list[NetworkParams]:
    rng = np.random.default_rng(3)
    points = [whole_range_params(rng) for _ in range(2000)]
    rng = np.random.default_rng(41)
    points += [extreme_params(rng) for _ in range(2000)]
    return [p for p in points if p.statistics is Statistics.BOSON]


# Indices into _accuracy_points() of the occupations that still print more
# than 1e-8 off a normal exact value: a mixing weight below the normal range
# times a large Bose factor (ROADMAP, whole-range accuracy)
_STILL_OFF = {
    "n_plus": [5, 556, 1145, 1387],
    "n_minus": [49, 53, 74, 336, 471, 480, 684, 707, 802, 825, 1156, 1227, 1229, 1385],
}


def test_printed_global_rows_match_the_exact_rate_form():
    # 3 022 bosonic draws over the whole float range and over extreme ratios,
    # against the rate form in 60-digit mpmath: a row is gapless exactly where
    # the spectrum is, no printed cell stands for a value beyond the float
    # range, and every printed J_h whose exact value is a normal float
    # matches it to 1e-8, sign included
    points = _accuracy_points()
    states, errors = _kernel(points)
    off = {name: [] for name in _STILL_OFF}
    for i, (params, error) in enumerate(zip(points, errors)):
        exact = exact_global_row(params)
        if error is not None:
            assert (type(error) is GaplessSpectrum) == (exact is None), (i, error)
            continue
        assert all(abs(value) <= sys.float_info.max for value in exact.values()), i
        if abs(exact["J_h"]) >= sys.float_info.min:
            assert states["J_h"][i] == pytest.approx(float(exact["J_h"]), rel=1e-8, abs=0.0), i
        for name, indices in off.items():
            want = exact[name]
            if abs(want) >= sys.float_info.min and abs(states[name][i] / want - 1) > 1e-8:
                indices.append(i)
    assert errors.count(None) == 2077
    assert off == _STILL_OFF


def _whole_range_pin_points() -> list[NetworkParams]:
    # the bosonic draws of the local pin, then each branch of a row by hand:
    # uncoupled nodes either way round and at resonance, weights that round
    # to 1, a gapless row, omega_+ and sigma beyond the float range
    points = [p for p in whole_range_points() if p.statistics is Statistics.BOSON]
    return points + [
        NetworkParams(epsilon=0.0),
        NetworkParams(omega_h=5.0, omega_c=10.0, epsilon=0.0),
        NetworkParams(omega_h=5.0, omega_c=5.0, epsilon=0.0),
        NetworkParams(omega_h=5.0, omega_c=5.0, epsilon=1e-200),
        NetworkParams(T_h=1e17, T_c=1e17),
        NetworkParams(omega_h=1.0, omega_c=1.0, epsilon=1.0),
        NetworkParams(omega_h=1e308, omega_c=1e308, epsilon=0.0),
        NetworkParams(omega_h=1e200),
        _SIGMA_OVERFLOW,
    ]


# sha256 prefix of the global rows over the whole float range, every cell as
# %.17g with each row's error type and message; fig3 and fig4 are moderate,
# so only this pin covers the underflow, logarithm and overflow paths
_WHOLE_RANGE_SHA256 = "7fa60f2ecd3d7aa7"


def test_global_rows_over_the_whole_float_range_are_pinned():
    texts = pin_texts(*_kernel(_whole_range_pin_points()))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]
    assert digest == _WHOLE_RANGE_SHA256
