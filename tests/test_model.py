"""Parameter validation, thermal occupations, normal modes, config parsing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qheatnet.errors import (
    GaplessSpectrum,
    NegativeCoupling,
    NonPositiveParameter,
    RateOverflow,
    UnsupportedStatistics,
)
from qheatnet.model import (
    NetworkParams,
    Statistics,
    load_config,
    normal_mode_basis,
    normal_modes,
    params_from_mapping,
    parse_config,
    thermal_occupation,
    validate,
)

from _draws import generic_params


def test_defaults_are_valid():
    validate(NetworkParams())


@pytest.mark.parametrize("field", ["omega_h", "omega_c", "T_h", "T_c", "kappa"])
@pytest.mark.parametrize(
    "bad", [0.0, -1.0, float("nan"), float("inf"), pytest.param(10**400, id="int_too_large")]
)
def test_positive_fields_rejected(field, bad):
    with pytest.raises(NonPositiveParameter, match=field):
        NetworkParams(**{field: bad})
    with pytest.raises(NonPositiveParameter, match=field):
        replace(NetworkParams(), **{field: bad})


def test_negative_coupling_rejected():
    with pytest.raises(NegativeCoupling):
        NetworkParams(epsilon=-1e-6)
    with pytest.raises(NegativeCoupling):
        replace(NetworkParams(), epsilon=-1e-6)
    validate(NetworkParams(epsilon=0.0))  # zero coupling is a valid network


def test_non_finite_coupling_rejected():
    with pytest.raises(NonPositiveParameter):
        NetworkParams(epsilon=float("nan"))
    with pytest.raises(NonPositiveParameter):
        replace(NetworkParams(), epsilon=float("inf"))
    with pytest.raises(NonPositiveParameter):
        NetworkParams(epsilon=10**400)


def test_statistics_must_be_the_enum():
    with pytest.raises(UnsupportedStatistics):
        NetworkParams(statistics="boson")
    with pytest.raises(UnsupportedStatistics):
        replace(NetworkParams(), statistics="tls")


def test_statistics_delta():
    assert Statistics.BOSON.delta == -1.0
    assert Statistics.TLS.delta == 1.0


def test_thermal_occupation_frozen_values():
    # 50-digit evaluation of 1/(e^(1/2) -+ 1)
    assert thermal_occupation(5.0, 10.0, Statistics.BOSON) == pytest.approx(
        1.5414940825367982841, rel=1e-15, abs=0.0
    )
    assert thermal_occupation(5.0, 10.0, Statistics.TLS) == pytest.approx(
        0.37754066879814543536, rel=1e-15, abs=0.0
    )


def test_thermal_occupation_limits():
    # deep quantum regime: boson occupation ~ e^(-omega/T), TLS the same
    assert thermal_occupation(10.0, 0.1, Statistics.BOSON) == pytest.approx(
        math.exp(-100.0), rel=1e-12, abs=0.0
    )
    # classical regime: boson ~ T/omega, TLS saturates at 1/2
    assert thermal_occupation(1e-6, 10.0, Statistics.BOSON) == pytest.approx(1e7, rel=1e-6, abs=0.0)
    assert thermal_occupation(1e-9, 10.0, Statistics.TLS) == pytest.approx(0.5, rel=1e-9, abs=0.0)


def test_normal_modes_match_dense_eigensolver():
    rng = np.random.default_rng(20260819)
    for _ in range(200):
        params = generic_params(rng)
        basis = normal_mode_basis(params)
        matrix = np.array([[params.omega_h, params.epsilon], [params.epsilon, params.omega_c]])
        lo, hi = np.linalg.eigvalsh(matrix)
        assert basis.omega_plus == pytest.approx(hi, rel=1e-12, abs=0.0)
        assert basis.omega_minus == pytest.approx(lo, rel=1e-12, abs=0.0)
        # the rotation really diagonalizes the one-body matrix
        c, s = basis.c, basis.s
        rot = np.array([[c, s], [-s, c]])
        diag = rot @ matrix @ rot.T
        assert abs(diag[0, 1]) <= 1e-12 * basis.omega_plus
        assert diag[0, 0] == pytest.approx(basis.omega_plus, rel=1e-12, abs=0.0)
        assert diag[1, 1] == pytest.approx(basis.omega_minus, rel=1e-12, abs=0.0)


def test_normal_mode_invariants():
    rng = np.random.default_rng(7)
    for _ in range(200):
        params = generic_params(rng)
        basis = normal_mode_basis(params)
        assert basis.omega_plus >= basis.omega_minus > 0.0
        assert basis.c2 + basis.s2 == pytest.approx(1.0, abs=1e-15)
        assert 0.0 <= basis.c2 <= 1.0 and 0.0 <= basis.s2 <= 1.0
        # trace and determinant of the one-body matrix are preserved
        assert basis.omega_plus + basis.omega_minus == pytest.approx(
            params.omega_h + params.omega_c, rel=1e-14, abs=0.0
        )
        assert basis.omega_plus * basis.omega_minus == pytest.approx(
            params.omega_h * params.omega_c - params.epsilon**2, rel=1e-13, abs=0.0
        )
        if params.epsilon > 0:
            assert basis.cs == pytest.approx(
                params.epsilon / (basis.omega_plus - basis.omega_minus), rel=1e-12, abs=0.0
            )


def test_normal_modes_frozen_point():
    # 50-digit evaluation at omega_h=10, omega_c=5, epsilon=0.01
    basis = normal_mode_basis(NetworkParams(epsilon=1e-2))
    assert basis.omega_plus == pytest.approx(10.00001999992000064, rel=1e-15, abs=0.0)
    assert basis.omega_minus == pytest.approx(4.99998000007999936, rel=1e-15, abs=0.0)


def test_normal_modes_zero_coupling():
    basis = normal_mode_basis(NetworkParams(omega_h=10.0, omega_c=5.0, epsilon=0.0))
    assert (basis.c2, basis.s2, basis.omega_plus, basis.omega_minus) == (1.0, 0.0, 10.0, 5.0)
    # mirrored ordering: the upper mode tracks the larger bare frequency
    basis = normal_mode_basis(NetworkParams(omega_h=5.0, omega_c=10.0, epsilon=0.0))
    assert (basis.c2, basis.s2, basis.omega_plus, basis.omega_minus) == (0.0, 1.0, 10.0, 5.0)
    basis = normal_mode_basis(NetworkParams(omega_h=7.0, omega_c=7.0, epsilon=0.0))
    assert (basis.c2, basis.s2) == (1.0, 0.0)


def test_resonant_coupling_is_half_angle():
    basis = normal_mode_basis(NetworkParams(omega_h=5.0, omega_c=5.0, epsilon=0.5))
    assert basis.c2 == pytest.approx(0.5, rel=1e-15, abs=0.0)
    assert basis.s2 == pytest.approx(0.5, rel=1e-15, abs=0.0)
    assert basis.omega_plus == pytest.approx(5.5, rel=1e-14, abs=0.0)
    assert basis.omega_minus == pytest.approx(4.5, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "omega, epsilon",
    [(5.0, 1e-200), (5.0, 1e-300), (5.0, 5e-324), (3.0, 1e-170)],
    ids=["eps_1e-200", "eps_1e-300", "eps_min_subnormal", "omega_3_eps_1e-170"],
)
def test_resonant_coupling_below_underflow_is_half_angle(omega, epsilon):
    # epsilon**2 underflows to zero here; the rotation is still the resonant one
    basis = normal_mode_basis(NetworkParams(omega_h=omega, omega_c=omega, epsilon=epsilon))
    assert (basis.c2, basis.s2) == (0.5, 0.5)
    assert (basis.omega_plus, basis.omega_minus) == (omega, omega)


def test_gapless_spectrum_raises():
    with pytest.raises(GaplessSpectrum):
        normal_mode_basis(NetworkParams(omega_h=2.0, omega_c=2.0, epsilon=2.0))
    with pytest.raises(GaplessSpectrum):
        normal_mode_basis(NetworkParams(omega_h=2.0, omega_c=2.0, epsilon=5.0))
    normal_mode_basis(NetworkParams(omega_h=2.0, omega_c=2.0, epsilon=2.0 - 1e-9))


def test_overflowing_coupling_is_typed():
    # epsilon**2 overflows: above any finite omega_h * omega_c it is gapless
    with pytest.raises(GaplessSpectrum, match="overflows"):
        normal_modes(10.0, 5.0, 1e200, Statistics.BOSON)
    with pytest.raises(GaplessSpectrum):
        normal_modes(1e200, 1e200, 1e201, Statistics.BOSON)
    # omega_h * omega_c overflows too, and the gapped spectrum's rates would
    with pytest.raises(RateOverflow):
        normal_modes(1e200, 1e200, 1e199, Statistics.BOSON)


def test_lower_mode_survives_an_overflowing_frequency_product():
    # omega_h * omega_c overflows while epsilon**2 and omega_- do not; the
    # value is a 50-digit evaluation of det / omega_+
    assert normal_modes(1e200, 1e200, 0.0, Statistics.BOSON) == (1e200, 1e200, 1.0, 0.0)
    omega_minus = normal_modes(1e160, 2e148, 1.3e154, Statistics.BOSON)[1]
    assert omega_minus == pytest.approx(3.0999999999947635502e147, rel=1e-14, abs=0.0)


def test_mixing_weight_survives_an_overflowing_denominator():
    # 2 r (r + |half_gap|) overflows once r is above about 1e154, while the
    # weight does not; 50-digit mpmath on the exact doubles:
    # g = (mpf(1e160) - mpf(2e148)) / 2, r = mp.sqrt(g**2 + mpf(1.3e154)**2),
    # mpf(1.3e154)**2 / (2 * r * (r + g))
    _, _, c2, s2 = normal_modes(1e160, 2e148, 1.3e154, Statistics.BOSON)
    assert s2 == pytest.approx(1.6899999999981915319e-12, rel=1e-15, abs=0.0)
    assert normal_modes(2e148, 1e160, 1.3e154, Statistics.BOSON)[2:] == (s2, c2)


def test_normal_modes_reject_tls():
    with pytest.raises(UnsupportedStatistics):
        normal_mode_basis(NetworkParams(statistics=Statistics.TLS))


def test_parse_config():
    text = "omega_h = 7.5\n\n# comment line\nT_h=14 # trailing comment\nstatistics = tls\n"
    assert parse_config(text) == {"omega_h": "7.5", "T_h": "14", "statistics": "tls"}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("omega_x = 1\n")


def test_parse_config_rejects_bare_line():
    with pytest.raises(ValueError, match="key=value"):
        parse_config("omega_h\n")


def test_params_from_mapping_overlays_base():
    base = NetworkParams(omega_h=3.0)
    params = params_from_mapping({"T_h": "15", "statistics": "TLS"}, base=base)
    assert params.omega_h == 3.0
    assert params.T_h == 15.0
    assert params.statistics is Statistics.TLS


def test_params_from_mapping_rejects_bad_statistics():
    with pytest.raises(ValueError, match="statistics"):
        params_from_mapping({"statistics": "fermion"})


def test_params_from_mapping_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown parameter 'bogus'"):
        params_from_mapping({"bogus": "1"})


def test_params_from_mapping_validates():
    with pytest.raises(NonPositiveParameter):
        params_from_mapping({"kappa": "0"})


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("omega_h = 7.5\nkappa = 1e-5\n", encoding="utf-8")
    params = load_config(str(path))
    assert params.omega_h == 7.5
    assert params.kappa == 1e-5
    assert params.omega_c == NetworkParams().omega_c
