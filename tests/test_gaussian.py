"""Tests for the two-mode Gaussian covariance layer.

The assembly from second moments is checked against a hand-built literal
matrix, the symplectic spectrum against closed forms for states where it
is known exactly (vacuum, thermal products, two-mode squeezed vacuum),
and the partial-transpose separability call against the squeezed state,
which is entangled for every nonzero squeezing parameter.  The closed-form
moment route the rows use is checked against the matrix route row by row.
"""

import hashlib
import math

import numpy as np
import pytest

from _draws import contrast_params, extreme_params, generic_params, pin_texts, whole_range_points
from qheatnet import gaussian, global_mme, local_mme, model
from qheatnet.errors import HeatNetError, UnphysicalCovariance
from qheatnet.gaussian import CovarianceMatrix
from qheatnet.local_mme import MomentState
from qheatnet.model import Statistics


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
    assert nu_1 == pytest.approx(0.5, rel=1e-14, abs=0.0)
    assert nu_2 == pytest.approx(0.5, rel=1e-14, abs=0.0)


def test_thermal_product_eigenvalues():
    nA, nB = 1.7, 0.4
    cov = gaussian.covariance_local(MomentState(nA, nB, 0.0, 0.0))
    nu_1, nu_2 = gaussian.symplectic_eigenvalues(cov)
    assert nu_1 == pytest.approx(nB + 0.5, rel=1e-14, abs=0.0)
    assert nu_2 == pytest.approx(nA + 0.5, rel=1e-14, abs=0.0)


def test_two_mode_squeezed_state_is_pure():
    nu_1, nu_2 = gaussian.symplectic_eigenvalues(_two_mode_squeezed(0.8))
    assert nu_1 == pytest.approx(0.5, rel=1e-12, abs=0.0)
    assert nu_2 == pytest.approx(0.5, rel=1e-12, abs=0.0)


def test_determinant_is_squared_eigenvalue_product():
    rng = np.random.default_rng(41)
    for _ in range(100):
        params = generic_params(rng)
        state = local_mme.steady_state(params)
        cov = gaussian.covariance_local(state.moments)
        nu_1, nu_2 = gaussian.symplectic_eigenvalues(cov)
        det = np.linalg.det(cov.matrix)
        assert det == pytest.approx((nu_1 * nu_2) ** 2, rel=1e-10, abs=0.0)


def test_vacuum_report():
    report = gaussian.correlations(_vacuum())
    assert report.cor_xAxB == 0.0
    assert report.cor_xApB == 0.0
    assert report.cor_pAxB == 0.0
    assert report.cor_pApB == 0.0
    assert report.nu_min == pytest.approx(0.5, rel=1e-14, abs=0.0)
    assert report.separable is True


def test_squeezed_state_is_detected_as_entangled():
    r = 0.6
    report = gaussian.correlations(_two_mode_squeezed(r))
    assert report.separable is False
    # partial transpose squeezes the smaller eigenvalue to e^{-2r}/2
    assert report.nu_min_ppt == pytest.approx(
        0.5 * math.exp(-2.0 * r), rel=1e-12, abs=0.0
    )
    # normalized correlators saturate at tanh(2r), +1 in the limit
    assert report.cor_xAxB == pytest.approx(math.tanh(2.0 * r), rel=1e-12, abs=0.0)
    assert report.cor_pApB == pytest.approx(-math.tanh(2.0 * r), rel=1e-12, abs=0.0)


def test_thermal_product_is_separable():
    cov = gaussian.covariance_local(MomentState(1.2, 0.3, 0.0, 0.0))
    report = gaussian.correlations(cov)
    assert report.separable is True
    assert report.nu_min_ppt == pytest.approx(0.8, rel=1e-12, abs=0.0)


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
            state.moments.X / (2.0 * scale), rel=1e-12, abs=0.0
        )
        assert report.cor_xApB == -report.cor_pAxB
        assert report.cor_xApB == pytest.approx(
            -state.moments.Y / (2.0 * scale), rel=1e-12, abs=0.0
        )
        assert max(abs(report.cor_xAxB), abs(report.cor_xApB)) <= 1.0


def _row_moments(draw, seed: int, count: int):
    """(nA, nB, X, Y) and the assembled V of every bosonic row that solves,
    local and global, the way the CLI rows build them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        params = draw(rng)
        if params.statistics is not Statistics.BOSON:
            continue
        try:
            m = local_mme.steady_state(params).moments
        except HeatNetError:
            pass
        else:
            yield (m.nA, m.nB, m.X, m.Y), lambda m=m: gaussian.covariance_local(m)
        try:
            state = global_mme.steady_state(params)
        except HeatNetError:
            continue
        basis = model.normal_mode_basis(params)
        X = 2.0 * basis.cs * (state.n_plus - state.n_minus)
        yield (state.nA, state.nB, X, 0.0), lambda s=state, b=basis: gaussian.covariance_global(
            b, s.n_plus, s.n_minus
        )


def _verdict(route):
    try:
        return route()
    except HeatNetError as exc:
        return type(exc)


@pytest.mark.parametrize(
    "draw, seed",
    [(generic_params, 61), (contrast_params, 62), (extreme_params, 63)],
    ids=["generic", "contrast", "extreme"],
)
def test_moment_route_matches_matrix_route(draw, seed):
    rows = 0
    for moments, covariance in _row_moments(draw, seed, 300):
        matrix = _verdict(lambda: gaussian.correlations(covariance()))
        closed = _verdict(lambda: gaussian.moment_correlations(*moments))
        rows += 1
        if isinstance(matrix, type) or isinstance(closed, type):
            assert matrix is closed, moments
            continue
        assert closed.cor_xAxB == matrix.cor_xAxB
        assert closed.cor_xApB == matrix.cor_xApB
        assert closed.cor_pAxB == matrix.cor_pAxB
        assert closed.cor_pApB == matrix.cor_pApB
        assert closed.nu_min == pytest.approx(matrix.nu_min, rel=1e-10, abs=0.0)
        assert closed.nu_min_ppt == pytest.approx(matrix.nu_min_ppt, rel=1e-10, abs=0.0)
        assert closed.separable is matrix.separable
    assert rows >= 300


_PHYSICAL = (0.7, 0.3, 0.22, -0.11)


def _with(index: int, value: float) -> tuple:
    moments = list(_PHYSICAL)
    moments[index] = value
    return tuple(moments)


@pytest.mark.parametrize(
    "moments",
    [
        (-0.6, 0.3, 0.0, 0.0),
        (0.2, 0.3, 0.6, 0.0),
        (-0.5, -0.5, 0.0, 0.0),
        (-1.5, 0.5, 0.0, 0.0),
        (0.5, 0.5, 4.0, 0.0),
    ]
    + [_with(i, v) for v in (math.nan, math.inf, -math.inf) for i in range(4)],
    ids=["below_vacuum", "over_correlated", "zero", "negative_block", "indefinite"]
    + [f"{v}_{name}" for v in ("nan", "inf", "-inf") for name in ("nA", "nB", "X", "Y")],
)
def test_both_routes_reject_unphysical_moments(moments):
    # negative_block and indefinite mirror test_below_vacuum_noise_is_rejected:
    # their symplectic moduli clear 1/2, so only the signed lower value fails
    # them; zero would divide 0/0 without the guard
    with pytest.raises(UnphysicalCovariance):
        gaussian.correlations(gaussian.covariance_local(MomentState(*moments)))
    with pytest.raises(UnphysicalCovariance):
        gaussian.moment_correlations(*moments)


@pytest.mark.parametrize(
    "draw, seed", [(generic_params, 64), (contrast_params, 65)], ids=["generic", "contrast"]
)
def test_physical_rows_are_separable(draw, seed):
    """With c = hypot(X, Y)/2 and n_> >= n_< the occupations, V is separable
    iff (n_> + 1) n_< >= c^2 and physical iff nA nB >= c^2; since
    (n_> + 1) n_< >= n_> n_< = nA nB, every physical row is separable."""
    for (nA, nB, X, Y), _ in _row_moments(draw, seed, 250):
        n_big, n_small = max(nA, nB), min(nA, nB)
        assert (n_big + 1.0) * n_small >= nA * nB >= 0.25 * (X * X + Y * Y)
        assert gaussian.moment_correlations(nA, nB, X, Y).separable is True


def _same_cell(got, want) -> bool:
    # bit for bit: floats by value and sign of zero, NaN as NaN, flags by identity
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want):
            return math.isnan(got)
        return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    return got is want


def test_column_form_matches_the_scalar_row_by_row():
    # ordinary moments, det < 0, upper <= 0, below the bound, NaN and +-inf in one batch
    batch = [moments for moments, _ in _row_moments(extreme_params, 66, 150)]
    batch += [
        _PHYSICAL,
        (0.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, -0.0, -0.0),
        (0.5, 0.5, 4.0, 0.0),  # det < 0
        (-1.0, -1.0, 0.0, 0.0),  # upper < 0
        (-0.5, -0.5, 0.0, 0.0),  # upper = 0
        (0.2, 0.3, 0.6, 0.0),  # det > 0 but nu_min < 1/2
        (1e300, 1e300, 1e300, -1e300),
    ]
    batch += [_with(i, v) for v in (math.nan, math.inf, -math.inf) for i in range(4)]
    columns, errors = gaussian.moment_correlation_columns(*zip(*batch))
    assert tuple(columns) == gaussian.FIELDS
    assert len(errors) == len(batch) and len(batch) > 200
    failed = 0
    for i, moments in enumerate(batch):
        try:
            report = gaussian.moment_correlations(*moments)
        except UnphysicalCovariance as exc:
            failed += 1
            assert type(errors[i]) is UnphysicalCovariance, moments
            assert str(errors[i]) == str(exc)
            assert all(math.isnan(columns[name][i]) for name in gaussian.FIELDS), moments
            continue
        assert errors[i] is None, moments
        for name in gaussian.FIELDS:
            assert _same_cell(columns[name][i], getattr(report, name)), (moments, name)
    assert failed >= 17


# moments the kernels cannot print, each branch of a row by hand: NaN and
# +-inf, nA nB < c^2 and its edges, a subnormal X, Y = +-0 and moments whose
# sums leave the float range
_HAND_MOMENTS = [_with(i, v) for v in (math.nan, math.inf, -math.inf) for i in range(4)] + [
    (0.5, 0.5, 4.0, 0.0),
    (0.2, 0.3, 0.6, 0.0),
    (0.1, 0.1, 0.0, 0.3),
    (-1.0, -1.0, 0.0, 0.0),
    (-0.5, -0.5, 0.0, 0.0),
    (0.7, 0.3, 5e-324, 0.0),
    (0.7, 0.3, 2.2e-310, -1e-310),
    (0.7, 0.3, 0.22, 0.0),
    (0.7, 0.3, 0.22, -0.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, -0.0, -0.0),
    (1e300, 1e300, 1e300, -1e300),
    (1e308, 1e308, 0.0, 0.0),
]


def _whole_range_moments() -> list[tuple]:
    """(nA, nB, X, Y) of every row that solves over the whole-range draw:
    local for both statistics, then global, then the hand-made moments."""
    points = whole_range_points()
    columns = [[getattr(p, name) for p in points] for name in model._FLOAT_KEYS]
    solves = [local_mme.steady_states(*columns, s.delta) for s in Statistics]
    bosons = [p for p in points if p.statistics is Statistics.BOSON]
    columns = [[getattr(p, name) for p in bosons] for name in model._FLOAT_KEYS]
    solves.append(global_mme.steady_states(*columns, Statistics.BOSON))
    moments = []
    for cells, errors in solves:
        rows = zip(*(cells[name] for name in ("n_A", "n_B", "X", "Y")), errors)
        moments += [row[:4] for row in rows if row[4] is None]
    return moments + _HAND_MOMENTS


# sha256 prefix of the correlation columns of those moments, every cell as
# %.17g with each row's error type and message
_WHOLE_RANGE_SHA256 = "62eaf576e365f08d"


def test_correlation_columns_over_the_whole_float_range_are_pinned():
    texts = pin_texts(*gaussian.moment_correlation_columns(*zip(*_whole_range_moments())))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]
    assert digest == _WHOLE_RANGE_SHA256


def test_every_row_of_a_mixed_batch_equals_the_row_solved_alone():
    batch = _whole_range_moments()[::40] + _HAND_MOMENTS
    columns, errors = gaussian.moment_correlation_columns(*zip(*batch))
    assert {UnphysicalCovariance, type(None)} <= set(map(type, errors))
    texts = pin_texts(columns, errors)
    for moments, text in zip(batch, texts, strict=True):
        alone = gaussian.moment_correlation_columns(*([value] for value in moments))
        assert pin_texts(*alone) == [text], moments
