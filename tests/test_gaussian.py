"""Tests for the two-mode Gaussian covariance layer.

The assembly from second moments is checked against a hand-built literal
matrix, the symplectic spectrum against closed forms for states where it
is known exactly (vacuum, thermal products, two-mode squeezed vacuum),
and the partial-transpose separability call against the squeezed state,
which is entangled for every nonzero squeezing parameter.
"""

import math

import numpy as np
import pytest

from _draws import generic_params
from qheatnet import gaussian, global_mme, local_mme, model
from qheatnet.errors import UnphysicalCovariance
from qheatnet.gaussian import CovarianceMatrix
from qheatnet.local_mme import MomentState


def _vacuum() -> CovarianceMatrix:
    return CovarianceMatrix(0.5 * np.eye(4))


def _two_mode_squeezed(r: float) -> CovarianceMatrix:
    ch = math.cosh(2.0 * r)
    sh = math.sinh(2.0 * r)
    matrix = 0.5 * np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )
    return CovarianceMatrix(matrix)


def test_entries_against_hand_built_matrix():
    nA, nB, X, Y = 0.7, 0.3, 0.22, -0.11
    cov = gaussian.covariance_local(MomentState(nA, nB, X, Y))
    expected = np.array(
        [
            [nA + 0.5, 0.0, X / 2.0, -Y / 2.0],
            [0.0, nA + 0.5, Y / 2.0, X / 2.0],
            [X / 2.0, Y / 2.0, nB + 0.5, 0.0],
            [-Y / 2.0, X / 2.0, 0.0, nB + 0.5],
        ]
    )
    np.testing.assert_allclose(cov.matrix, expected, rtol=0.0, atol=0.0)


def test_global_matches_local_assembly():
    # the rotated-frame state has the same covariance as a moment vector
    # with X = 2 c s (n_+ - n_-) and no current-carrying part
    params = model.NetworkParams(epsilon=0.4)
    basis = model.normal_mode_basis(params)
    state = global_mme.steady_state(params)
    via_global = gaussian.covariance_global(basis, state.n_plus, state.n_minus)
    x = 2.0 * basis.cs * (state.n_plus - state.n_minus)
    via_local = gaussian.covariance_local(
        MomentState(state.nA, state.nB, x, 0.0)
    )
    np.testing.assert_allclose(
        via_global.matrix, via_local.matrix, rtol=0.0, atol=1e-15
    )


@pytest.mark.parametrize(
    "matrix",
    [np.eye(2), np.eye(3), np.zeros((4, 5))],
    ids=["2x2", "3x3", "4x5"],
)
def test_covariance_rejects_wrong_shape(matrix):
    with pytest.raises(UnphysicalCovariance):
        CovarianceMatrix(matrix)


@pytest.mark.parametrize(
    "entry", [1e-3, 2e-12, math.nan, math.inf], ids=["1e-3", "2e-12", "nan", "inf"]
)
def test_covariance_rejects_asymmetric_matrix(entry):
    matrix = 0.5 * np.eye(4)
    matrix[0, 2] = entry
    with pytest.raises(UnphysicalCovariance):
        CovarianceMatrix(matrix)


def test_covariance_accepts_asymmetry_within_the_bound():
    matrix = 0.5 * np.eye(4)
    matrix[0, 2] = 5e-13
    CovarianceMatrix(matrix)


def test_covariance_rejects_non_finite_diagonal():
    with pytest.raises(UnphysicalCovariance):
        CovarianceMatrix(np.diag([math.inf, math.inf, 1.0, 1.0]))


def test_vacuum_is_at_the_uncertainty_bound():
    nu_1, nu_2 = gaussian.symplectic_eigenvalues(_vacuum())
    assert nu_1 == pytest.approx(0.5, rel=1e-14)
    assert nu_2 == pytest.approx(0.5, rel=1e-14)


def test_thermal_product_eigenvalues():
    nA, nB = 1.7, 0.4
    cov = gaussian.covariance_local(MomentState(nA, nB, 0.0, 0.0))
    nu_1, nu_2 = gaussian.symplectic_eigenvalues(cov)
    assert nu_1 == pytest.approx(nB + 0.5, rel=1e-14)
    assert nu_2 == pytest.approx(nA + 0.5, rel=1e-14)


def test_two_mode_squeezed_state_is_pure():
    nu_1, nu_2 = gaussian.symplectic_eigenvalues(_two_mode_squeezed(0.8))
    assert nu_1 == pytest.approx(0.5, rel=1e-12)
    assert nu_2 == pytest.approx(0.5, rel=1e-12)


def test_determinant_is_squared_eigenvalue_product():
    rng = np.random.default_rng(41)
    for _ in range(100):
        params = generic_params(rng)
        state = local_mme.steady_state(params)
        cov = gaussian.covariance_local(state.moments)
        nu_1, nu_2 = gaussian.symplectic_eigenvalues(cov)
        det = np.linalg.det(cov.matrix)
        assert det == pytest.approx((nu_1 * nu_2) ** 2, rel=1e-10)


def test_vacuum_report():
    report = gaussian.correlations(_vacuum())
    assert report.cor_xAxB == 0.0
    assert report.cor_xApB == 0.0
    assert report.cor_pAxB == 0.0
    assert report.cor_pApB == 0.0
    assert report.nu_min == pytest.approx(0.5, rel=1e-14)
    assert report.separable is True


def test_squeezed_state_is_detected_as_entangled():
    r = 0.6
    report = gaussian.correlations(_two_mode_squeezed(r))
    assert report.separable is False
    # partial transpose squeezes the smaller eigenvalue to e^{-2r}/2
    assert report.nu_min_ppt == pytest.approx(
        0.5 * math.exp(-2.0 * r), rel=1e-12
    )
    # normalized correlators saturate at tanh(2r), +1 in the limit
    assert report.cor_xAxB == pytest.approx(math.tanh(2.0 * r), rel=1e-12)
    assert report.cor_pApB == pytest.approx(-math.tanh(2.0 * r), rel=1e-12)


def test_thermal_product_is_separable():
    cov = gaussian.covariance_local(MomentState(1.2, 0.3, 0.0, 0.0))
    report = gaussian.correlations(cov)
    assert report.separable is True
    assert report.nu_min_ppt == pytest.approx(0.8, rel=1e-12)


@pytest.mark.parametrize(
    "matrix",
    [
        0.25 * np.eye(4),
        -np.eye(4),
        np.diag([-1.0, -1.0, 1.0, 1.0]),
        np.array(
            [
                [1.0, 0.0, 2.0, 0.0],
                [0.0, 1.0, 0.0, 2.0],
                [2.0, 0.0, 1.0, 0.0],
                [0.0, 2.0, 0.0, 1.0],
            ]
        ),
    ],
    ids=["quarter_vacuum", "negative_identity", "negative_block", "indefinite"],
)
def test_below_vacuum_noise_is_rejected(matrix):
    # the last three have symplectic moduli at or above 1/2 but are not
    # positive definite, which V + (i/2) Omega >= 0 requires
    with pytest.raises(UnphysicalCovariance):
        gaussian.correlations(CovarianceMatrix(matrix))


def test_cross_block_signs_track_moments():
    rng = np.random.default_rng(43)
    for _ in range(50):
        params = generic_params(rng)
        state = local_mme.steady_state(params)
        cov = gaussian.covariance_local(state.moments)
        report = gaussian.correlations(cov)
        scale = math.sqrt((state.moments.nA + 0.5) * (state.moments.nB + 0.5))
        assert report.cor_xAxB == pytest.approx(
            state.moments.X / (2.0 * scale), rel=1e-12
        )
        assert report.cor_xApB == -report.cor_pAxB
        assert report.cor_xApB == pytest.approx(
            -state.moments.Y / (2.0 * scale), rel=1e-12
        )
        assert max(abs(report.cor_xAxB), abs(report.cor_xApB)) <= 1.0
