"""Tests for the command-line table front end.

The CSV contract is frozen here: exact header, 17-significant-digit
floats, empty fields for non-applicable columns, exception class names
in the error column, byte-identical repeat runs.  The gnuplot layout is
checked structurally (comment header, blank-line separated blocks,
dash/nan placeholders).  Presets are smoke-checked for shape only; their
physics is covered by the acceptance tests.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qheatnet
from qheatnet import cli, errors, oracle
from qheatnet.gaussian import moment_correlation_columns, moment_correlations
from qheatnet.model import _FLOAT_KEYS, NetworkParams, Statistics

from _draws import cold_params, contrast_params, extreme_params, generic_params

EXPECTED_HEADER = (
    "approach,omega_h,omega_c,epsilon,T_h,T_c,kappa,statistics,"
    "n_A,n_B,X,Y,n_plus,n_minus,J_h,J_c,sigma,"
    "cor_xAxB,cor_xApB,cor_pAxB,cor_pApB,separable,secular_warning,error"
)
CORRELATION_COLUMNS = ("cor_xAxB", "cor_xApB", "cor_pAxB", "cor_pApB")


def _rows(text: str) -> list[dict]:
    lines = text.splitlines()
    names = lines[0].split(",")
    return [dict(zip(names, line.split(","))) for line in lines[1:]]


def test_csv_header_is_frozen(capsys):
    assert cli.main(["point"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == EXPECTED_HEADER


def test_point_emits_one_row_per_treatment(capsys):
    assert cli.main(["point"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [r["approach"] for r in rows] == ["local", "global"]
    local_row, global_row = rows
    assert local_row["n_plus"] == "" and local_row["n_minus"] == ""
    assert local_row["secular_warning"] == ""
    assert global_row["secular_warning"] in ("0", "1")
    assert global_row["Y"] == "0"
    assert local_row["error"] == "" and global_row["error"] == ""
    # parameters echo the defaults with full precision
    assert float(local_row["omega_h"]) == NetworkParams().omega_h
    assert float(local_row["kappa"]) == NetworkParams().kappa


def test_floats_round_trip_through_the_table(capsys):
    assert cli.main(["point", "--approach", "local"]) == 0
    row = _rows(capsys.readouterr().out)[0]
    from qheatnet import local_mme

    state = local_mme.steady_state(NetworkParams())
    assert float(row["J_h"]) == state.J_h
    assert float(row["n_A"]) == state.moments.nA
    assert float(row["sigma"]) == state.sigma


def test_repeat_runs_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    argv = [
        "sweep", "--axis1", "epsilon:1e-3:1e-1:5:log",
        "--axis2", "T_h:11:13:3:lin",
    ]
    for path in paths:
        assert cli.main(argv + ["--out", str(path)]) == 0
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert first.endswith(b"\n") and not first.endswith(b"\n\n")
    # 5 x 3 grid, two treatments each, plus the header
    assert first.count(b"\n") == 1 + 5 * 3 * 2


def test_flags_override_config(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(
        "# base point\nomega_h = 7.0\nT_h = 14\nstatistics = boson\n"
    )
    argv = ["point", "--config", str(config), "--omega-h", "8", "--approach", "local"]
    assert cli.main(argv) == 0
    row = _rows(capsys.readouterr().out)[0]
    assert float(row["omega_h"]) == 8.0
    assert float(row["T_h"]) == 14.0
    assert float(row["omega_c"]) == NetworkParams().omega_c


def test_tls_global_lands_in_the_error_column(capsys):
    argv = ["point", "--statistics", "tls"]
    assert cli.main(argv) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0]["approach"] == "local" and rows[0]["error"] == ""
    assert rows[1]["approach"] == "global"
    assert rows[1]["error"] == "UnsupportedStatistics"
    assert rows[1]["J_h"] == "" and rows[1]["n_plus"] == ""


def test_sweep_survives_gapless_points(capsys):
    argv = [
        "sweep", "--approach", "global",
        "--omega-h", "1", "--omega-c", "1", "--T-h", "2", "--T-c", "1",
        "--axis1", "epsilon:0.5:2.0:4:lin",
    ]
    assert cli.main(argv) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 4
    by_eps = {float(r["epsilon"]): r for r in rows}
    assert by_eps[0.5]["error"] == ""
    assert by_eps[1.5]["error"] == "GaplessSpectrum"
    assert by_eps[2.0]["error"] == "GaplessSpectrum"
    assert by_eps[1.5]["J_h"] == ""


@pytest.mark.parametrize(
    "params",
    [NetworkParams(omega_h=10.0, T_h=0.012), NetworkParams(kappa=1e-300)],
    ids=["omega_over_T_833", "kappa_1e-300"],
)
def test_run_point_is_independent_of_the_local_closed_form(params):
    # The local closed form overflows (exp(833)) or divides by zero
    # (kappa = 1e-300) here; the solved rows must not depend on it.
    rows = cli.run_point(params, ("local", "global"))
    assert [r["approach"] for r in rows] == ["local", "global"]
    for row in rows:
        assert row["error"] == ""
        assert math.isfinite(row["J_h"]) and math.isfinite(row["J_c"])
        assert abs(row["J_h"] + row["J_c"]) <= 1e-10 * max(1.0, abs(row["J_h"]))


def test_rate_overflow_lands_in_the_error_column():
    rows = cli.run_point(NetworkParams(omega_h=1e200), ("local", "global"))
    assert [(r["approach"], r["error"]) for r in rows] == [
        ("local", "RateOverflow"),
        ("global", "RateOverflow"),
    ]


def test_run_point_never_raises_over_extreme_draws():
    # finite currents or a typed error on every row; the first law is not
    # asserted here because the currents lose digits to cancellation at
    # nodes with omega/T well below 1 (ROADMAP, first law at warm nodes)
    typed = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.HeatNetError)
    }
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        params = extreme_params(rng)
        for row in cli.run_point(params, ("local", "global")):
            if row["error"]:
                assert row["error"] in typed, (params, row["error"])
            else:
                assert math.isfinite(row["J_h"]) and math.isfinite(row["J_c"]), params


# Power of lambda each numeric column scales by under the unit scaling below.
_UNIT_POWERS = {
    **dict.fromkeys(("n_A", "n_B", "X", "Y", "n_plus", "n_minus"), 0),
    **dict.fromkeys(("cor_xAxB", "cor_xApB", "cor_pAxB", "cor_pApB"), 0),
    "J_h": 2,
    "J_c": 2,
    "sigma": 1,
}


@pytest.mark.parametrize("draw", [generic_params, contrast_params], ids=["generic", "contrast"])
def test_rows_obey_unit_scaling(draw):
    # Frequencies and temperatures times lambda, kappa over lambda^2: every
    # rate kappa omega^3 (1 + n) scales by lambda, so the steady state is the
    # same, currents scale by lambda^2 and entropy production by lambda.
    # Powers of two keep the scaled inputs exact.
    rng = np.random.default_rng(6001)
    for i in range(750):
        statistics = Statistics.TLS if i % 5 == 0 else Statistics.BOSON
        params = draw(rng, statistics)
        approaches = ("local",) if statistics is Statistics.TLS else ("local", "global")
        rows = cli.run_point(params, approaches)
        for lam in (2.0**-3, 2.0**5):
            scaled = replace(
                params,
                omega_h=lam * params.omega_h,
                omega_c=lam * params.omega_c,
                epsilon=lam * params.epsilon,
                T_h=lam * params.T_h,
                T_c=lam * params.T_c,
                kappa=params.kappa / lam**2,
            )
            for row, other in zip(rows, cli.run_point(scaled, approaches), strict=True):
                for column in ("error", "separable", "secular_warning"):
                    assert other[column] == row[column], (params, lam, column)
                for column, power in _UNIT_POWERS.items():
                    if row[column] is None:
                        assert other[column] is None, (params, lam, column)
                    else:
                        expected = lam**power * row[column]
                        assert other[column] == pytest.approx(expected, rel=1e-13, abs=0.0), (
                            params, lam, column,
                        )


def test_oracle_rows_agree_with_the_closed_forms(capsys):
    argv = ["point", "--statistics", "tls", "--approach", "local", "--oracle"]
    assert cli.main(argv) == 0
    rows = _rows(capsys.readouterr().out)
    assert [r["approach"] for r in rows] == ["local", "oracle-local"]
    closed, brute = rows
    assert float(brute["J_h"]) == pytest.approx(float(closed["J_h"]), rel=1e-9)
    assert float(brute["n_A"]) == pytest.approx(float(closed["n_A"]), rel=1e-9, abs=0.0)
    # quadrature correlations are bosonic; TLS rows leave them empty
    assert brute["cor_xAxB"] == "" and closed["cor_xAxB"] == ""


def test_bosonic_oracle_rows_agree_with_the_closed_form_rows():
    # the oracle rows' mode populations and measured correlations, checked
    # against the closed-form rows and rendered like the reference renderer
    rng = np.random.default_rng(6006)
    shared = ("n_A", "n_B", "X", "Y", "J_h", "J_c", *CORRELATION_COLUMNS)
    approaches = ("local", "global", "oracle-local", "oracle-global")
    for _ in range(6):
        params = cold_params(rng)
        n_max = oracle.suggested_nmax(params, oracle.Generator.GLOBAL)
        rows = cli.run_point(params, approaches, n_max)
        assert [row["error"] for row in rows] == [""] * 4
        local, global_, oracle_local, oracle_global = rows
        for closed, brute, columns in (
            (local, oracle_local, shared),
            (global_, oracle_global, shared + ("n_plus", "n_minus")),
        ):
            for column in columns:
                assert brute[column] == pytest.approx(closed[column], rel=0.0, abs=1e-8), (
                    params, brute["approach"], column,
                )
            assert brute["separable"] == closed["separable"]
        assert all(type(oracle_local[c]) is type(local[c]) for c in CORRELATION_COLUMNS)
        _assert_renders_like_reference(cli.COLUMNS, [rows], cli.COLUMNS, [rows])


def test_gapless_oracle_row_leaves_the_mode_columns_empty():
    # epsilon**2 = omega_h omega_c: the local generator is fine, d+- do not exist
    params = NetworkParams(omega_h=1.0, omega_c=1.0, epsilon=1.0, T_h=0.3, T_c=0.25)
    local, brute = cli.run_point(params, ("local", "oracle-local"), n_max=8)
    assert brute["error"] == ""
    assert brute["n_plus"] is None and brute["n_minus"] is None
    for column in ("n_A", "n_B", "J_h", *CORRELATION_COLUMNS):
        assert brute[column] == pytest.approx(local[column], rel=0.0, abs=1e-8), column


def test_unknown_approach_raises(monkeypatch):
    # the approaches are checked before anything is solved
    def fail(*args, **kwargs):
        raise AssertionError("solved before the approaches were checked")

    monkeypatch.setattr(cli.local_mme, "steady_states", fail)
    monkeypatch.setattr(cli.global_mme, "steady_states", fail)
    with pytest.raises(ValueError, match="unknown approach 'bogus'"):
        cli.run_point(NetworkParams(), ("bogus",))
    with pytest.raises(ValueError, match="unknown approach 'bogus'"):
        cli.sweep_blocks(NetworkParams(), [], ("local", "global", "bogus"))
    # and before the axes are validated
    with pytest.raises(ValueError, match="unknown approach 'bogus'"):
        cli.sweep_blocks(NetworkParams(), [("kappa", np.array([-1.0, 1.0]))], ("bogus",))


# --- blocks: views of one column table -----------------------------------------


def test_run_point_is_the_zero_axis_block():
    approaches = ("local", "global", "oracle-local")
    params = NetworkParams(epsilon=0.3)
    (block,) = cli.sweep_blocks(params, [], approaches, n_max=6)
    rows = cli.run_point(params, approaches, n_max=6)
    assert (rows.start, rows.stop) == (block.start, block.stop) == (0, 3)
    assert rows.table.keys() == block.table.keys() and tuple(block.table) == cli.COLUMNS
    for row, expected in zip(rows, block, strict=True):
        _assert_same_row(row, expected, row["approach"])


def test_block_rows_are_copies_of_the_table():
    axis = cli.parse_axis("T_h:11:13:3:lin")
    blocks = cli.sweep_blocks(NetworkParams(), [axis], ("local", "global"))
    table = blocks[0].table
    assert all(block.table is table for block in blocks)
    assert [(block.start, block.stop) for block in blocks] == [(0, 2), (2, 4), (4, 6)]
    assert all(len(values) == 6 for values in table.values())
    csv, gnuplot = cli.render_csv(cli.COLUMNS, blocks), cli.render_gnuplot(cli.COLUMNS, blocks)
    snapshot = {name: list(values) for name, values in table.items()}
    row = blocks[1][-1]
    assert row == blocks[1][1] and row["approach"] == "global" and row["T_h"] == 12.0
    assert blocks[1][0:2] == [blocks[1][0], row] and blocks[1][::-1][0] == row
    row["J_h"], row["error"] = 1.0, "Edited"
    row["extra"] = 0.0
    assert table == snapshot and blocks[1][1] != row
    assert cli.render_csv(cli.COLUMNS, blocks) == csv
    assert cli.render_gnuplot(cli.COLUMNS, blocks) == gnuplot
    with pytest.raises(IndexError):
        blocks[1][2]


@pytest.mark.parametrize(
    "argv, n_blocks, block_rows",
    [
        (["point"], 1, 2),
        (["sweep", "--approach", "local", "--axis1", "T_h:11:13:3:lin"], 3, 1),
        (
            [
                "sweep", "--approach", "local",
                "--axis1", "T_h:11:13:3:lin", "--axis2", "omega_h:1:2:2:lin",
            ],
            3,
            2,
        ),
    ],
    ids=["no_axis", "one_axis", "two_axes"],
)
def test_gnuplot_layout(argv, n_blocks, block_rows, capsys):
    # one block per axis1 value, a single block for a point
    assert cli.main(argv + ["--gnuplot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# approach omega_h")
    blocks = out[out.index("\n") + 1 :].rstrip("\n").split("\n\n")
    assert len(blocks) == n_blocks
    assert all(len(b.splitlines()) == block_rows for b in blocks)
    first = blocks[0].splitlines()[0].split()
    assert len(first) == len(cli.COLUMNS)
    # local rows: no mode populations, no warning, empty error string
    named = dict(zip(cli.COLUMNS, first))
    assert named["n_plus"] == "nan"
    assert named["secular_warning"] == "nan"
    assert named["error"] == "-"


def test_parse_axis_values():
    name, values = cli.parse_axis("epsilon:1e-3:1:4:log")
    assert name == "epsilon"
    np.testing.assert_allclose(values, np.geomspace(1e-3, 1.0, 4))
    name, values = cli.parse_axis("T_h: 1 : 2 : 3 : lin")
    assert name == "T_h"
    np.testing.assert_allclose(values, np.linspace(1.0, 2.0, 3))


@pytest.mark.parametrize(
    "text",
    [
        "epsilon:1:2:3",
        "gamma:1:2:3:lin",
        "T_h:1:2:1:lin",
        "T_h:2:1:3:lin",
        "T_h:1:2:3:cubic",
        "epsilon:0:1:3:log",
        "epsilon:1:2:x:lin",
    ],
    ids=["parts", "name", "count", "order", "scale", "logzero", "intparse"],
)
def test_parse_axis_rejects_malformed_specs(text):
    with pytest.raises(ValueError):
        cli.parse_axis(text)


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main(["sweep", "--axis1", "gamma:1:2:3:lin"]) == 2
    assert "error" in capsys.readouterr().err
    config = tmp_path / "bad.conf"
    config.write_text("omega_q = 3\n")
    assert cli.main(["point", "--config", str(config)]) == 2
    assert "omega_q" in capsys.readouterr().err
    # whole-command parameter errors are usage errors too
    assert cli.main(["point", "--T-h", "-4"]) == 2
    assert "T_h" in capsys.readouterr().err
    # so is a swept value outside the domain, and nothing is written
    assert cli.main(["sweep", "--approach", "local", "--axis1", "T_h:-1:1:3:lin"]) == 2
    captured = capsys.readouterr()
    assert "T_h" in captured.err
    assert captured.out == ""


def test_fig3_preset_shape(capsys):
    assert cli.main(["fig3"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 61 * 2
    assert {r["approach"] for r in rows} == {"local", "global"}
    eps = sorted({float(r["epsilon"]) for r in rows})
    assert eps[0] == pytest.approx(1e-5, abs=0.0) and eps[-1] == pytest.approx(1.0, abs=0.0)
    assert all(r["error"] == "" for r in rows)


def test_fig4_preset_shape(capsys):
    assert cli.main(["fig4"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 236 * 2
    grid = [float(r["omega_h"]) for r in rows if r["approach"] == "local"]
    assert grid == sorted(grid)
    assert all(r["error"] == "" for r in rows)


def test_module_entry_point_runs():
    # the child does not inherit pytest's pythonpath, so hand it the
    # directory the package under test was imported from
    package_root = str(Path(qheatnet.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""),
    )
    result = subprocess.run(
        [sys.executable, "-m", "qheatnet", "point", "--approach", "local"],
        capture_output=True,
        text=True,
        check=False,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == EXPECTED_HEADER


# --- grid rows against point rows --------------------------------------------


def _assert_same_row(got: dict, want: dict, where) -> None:
    # bit for bit: floats by ==, plus the sign of zero and NaN-ness
    assert got.keys() == want.keys(), where
    for column, value in want.items():
        other = got[column]
        if isinstance(value, float) and isinstance(other, float):
            if math.isnan(value):
                assert math.isnan(other), (where, column, other, value)
            else:
                assert other == value, (where, column, other, value)
                assert math.copysign(1.0, other) == math.copysign(1.0, value), (where, column)
        else:
            assert type(other) is type(value) and other == value, (where, column, other, value)


def _assert_grid_matches_points(fixed, axes, approaches, with_correlations=True) -> list[dict]:
    blocks = cli.sweep_blocks(fixed, axes, approaches, with_correlations=with_correlations)
    names = [name for name, _ in axes]
    outer = axes[0][1] if axes else [None]
    inner = axes[1][1] if len(axes) == 2 else [None]
    assert len(blocks) == len(outer)
    rows = []
    for block, a in zip(blocks, outer):
        assert len(block) == len(inner) * len(approaches)
        for k, b in enumerate(inner):
            values = [v for v in (a, b) if v is not None]
            params = replace(fixed, **{n: float(v) for n, v in zip(names, values)})
            want = cli.run_point(params, approaches, with_correlations=with_correlations)
            got = block[k * len(approaches) : (k + 1) * len(approaches)]
            for row, expected in zip(got, want, strict=True):
                _assert_same_row(row, expected, (params, row["approach"]))
            rows.extend(got)
    return rows


def _grid_axes(base: NetworkParams, two: bool) -> list[tuple[str, np.ndarray]]:
    # kappa over six decades; omega_h through and away from omega_c; every
    # value stays inside the domain
    axes = [("kappa", base.kappa * np.geomspace(1e-3, 1e3, 4))]
    if two:
        axes.append(("omega_h", np.array([0.5 * base.omega_h, base.omega_c, 2.0 * base.omega_h])))
    return axes


@pytest.mark.parametrize("approaches", [("local",), ("local", "global")], ids=["local", "both"])
@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.TLS], ids=["boson", "tls"])
@pytest.mark.parametrize(
    "draw", [generic_params, contrast_params, extreme_params], ids=["generic", "contrast", "extreme"]
)
def test_grid_rows_equal_point_rows(draw, statistics, approaches):
    rng = np.random.default_rng(4242)
    for _ in range(6):
        base = draw(rng) if draw is extreme_params else draw(rng, statistics)
        base = replace(base, statistics=statistics)
        for two in (False, True):
            _assert_grid_matches_points(base, _grid_axes(base, two), approaches)
        _assert_grid_matches_points(base, [], approaches, with_correlations=False)


def test_a_singular_point_fails_alone():
    # kappa = 1e-320 leaves the drift matrix numerically singular, and the
    # global modes without decay
    fixed = NetworkParams(omega_h=0.01, omega_c=0.02, epsilon=0.0)
    axis = cli.parse_axis("kappa:1e-320:1e-7:5:log")
    rows = _assert_grid_matches_points(fixed, [axis], ("local", "global"))
    assert [row["error"] for row in rows] == ["SingularSystem"] * 2 + [""] * 8
    assert all(row["n_A"] is None and row["J_h"] is None for row in rows[:2])
    assert all(math.isfinite(row["J_h"]) for row in rows[2:])


def test_a_local_solve_singular_to_working_precision_fails_its_row(capsys):
    # two-level nodes at kappa ~ 1e-320: the solved moments are inf and NaN
    values = {
        "omega_h": 7.101498345015055, "omega_c": 0.013147191079549564,
        "epsilon": 1.6957597259418116e-278, "T_h": 704760091.1234993,
        "T_c": 1.3713246728250014e-06, "kappa": 1.241e-320,
    }
    argv = ["point", "--statistics", "tls"]
    for name, value in values.items():
        argv += [f"--{name.replace('_', '-')}", repr(value)]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    local_row = _rows(captured.out)[0]
    assert local_row["approach"] == "local" and local_row["error"] == "SingularSystem"
    assert all(local_row[c] == "" for c in ("n_A", "n_B", "X", "Y", "J_h", "J_c", "sigma"))
    fixed = NetworkParams(**values, statistics=Statistics.TLS)
    axis = ("kappa", np.array([fixed.kappa, 1e-7]))
    rows = _assert_grid_matches_points(fixed, [axis], ("local",))
    assert [row["error"] for row in rows] == ["SingularSystem", ""]


def test_weights_that_round_to_1_give_a_singular_global_row(capsys):
    # exp(-omega/T) is exactly 1 at T = 1e17, so neither mode decays
    assert cli.main(["point", "--T-h", "1e17", "--T-c", "1e17"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    global_row = _rows(captured.out)[1]
    assert global_row["approach"] == "global" and global_row["error"] == "SingularSystem"
    assert global_row["J_h"] == ""


_GAUSSIAN_COLUMNS = (*CORRELATION_COLUMNS, "separable")
_RESULT_COLUMNS = tuple(
    c for c in cli.COLUMNS if c not in (*_FLOAT_KEYS, "approach", "statistics", "error")
)


def _gaussian_grid() -> tuple[NetworkParams, list]:
    # global moments do not depend on kappa, so the axes leave it alone
    base = NetworkParams(omega_h=6.0, omega_c=5.0, epsilon=0.3, T_h=1.5, T_c=1.2, kappa=1e-4)
    return base, [("T_h", np.linspace(1.3, 2.0, 4)), ("omega_h", np.array([3.0, 5.0, 6.0]))]


def test_gaussian_cells_are_the_moment_correlations_of_the_row():
    base, axes = _gaussian_grid()
    rows = [row for block in cli.sweep_blocks(base, axes, ("local", "global")) for row in block]
    assert len(rows) == 24 and all(row["error"] == "" for row in rows)
    for row in rows:
        report = moment_correlations(row["n_A"], row["n_B"], row["X"], row["Y"])
        want = {c: getattr(report, c) for c in _GAUSSIAN_COLUMNS}
        _assert_same_row({c: row[c] for c in _GAUSSIAN_COLUMNS}, want, row)
    # two-level nodes have no quadratures, and the cells can be switched off
    tls = replace(base, statistics=Statistics.TLS)
    for params, with_correlations in ((tls, True), (base, False)):
        blocks = cli.sweep_blocks(params, axes, ("local", "global"), 12, with_correlations)
        assert all(row[c] is None for block in blocks for row in block for c in _GAUSSIAN_COLUMNS)


@pytest.mark.parametrize("approach", ["local", "global"])
def test_an_unphysical_covariance_empties_only_its_row(approach, monkeypatch):
    base, axes = _gaussian_grid()
    want = [row for block in cli.sweep_blocks(base, axes, ("local", "global")) for row in block]
    target = [row for row in want if row["approach"] == approach][5]
    moments = tuple(target[c] for c in ("n_A", "n_B", "X", "Y"))
    calls = []

    def fail_on_target(*columns):
        cells = moment_correlation_columns(*columns)
        rows = list(zip(*columns))
        calls.append(rows)
        for i, row in enumerate(rows):
            if row == moments:
                cells.errors[i] = errors.UnphysicalCovariance("chosen row")
        return cells

    monkeypatch.setattr(cli, "moment_correlation_columns", fail_on_target)
    got = [row for block in cli.sweep_blocks(base, axes, ("local", "global")) for row in block]
    # one call per treatment, over all of its rows; the chosen moments are in one row
    assert [len(rows) for rows in calls] == [len(want) // 2] * 2
    assert sum(rows.count(moments) for rows in calls) == 1
    index = want.index(target)
    emptied = {**target, **dict.fromkeys(_RESULT_COLUMNS), "error": "UnphysicalCovariance"}
    for i, (row, expected) in enumerate(zip(got, want, strict=True)):
        _assert_same_row(row, emptied if i == index else expected, (i, row["approach"]))


def test_the_kernels_build_no_parameter_set_per_point(monkeypatch):
    # a 50 x 50 grid validates its 100 axis values; only the oracle needs a
    # NetworkParams per point
    calls = []
    validate = qheatnet.model.validate
    monkeypatch.setattr(qheatnet.model, "validate", lambda p: calls.append(p) or validate(p))
    axes = [("epsilon", np.geomspace(1e-5, 0.4, 50)), ("omega_h", np.linspace(1.0, 12.0, 50))]
    blocks = cli.sweep_blocks(NetworkParams(), axes, ("local", "global"))
    assert sum(map(len, blocks)) == 2 * 50 * 50
    assert 100 <= len(calls) <= 100 + 4
    calls.clear()
    small = [("epsilon", np.geomspace(1e-5, 0.4, 3)), ("omega_h", np.linspace(1.0, 12.0, 4))]
    cli.sweep_blocks(NetworkParams(), small, ("local", "oracle-local"), n_max=3)
    assert len(calls) >= 3 + 4 + 3 * 4


def test_rate_overflow_rows_fail_alone():
    axis = cli.parse_axis("omega_h:1:1e200:3:log")
    rows = _assert_grid_matches_points(NetworkParams(), [axis], ("local", "global"))
    assert [row["error"] for row in rows] == ["", "", "", "", "RateOverflow", "RateOverflow"]
    assert all(row["J_h"] is None for row in rows[4:])


# --- rendering against the per-cell reference ----------------------------------


def _reference_value(value, gnuplot: bool) -> str:
    # the renderer as it was before block rendering, cell by cell
    if value is None:
        return "nan" if gnuplot else ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        if gnuplot and value == "":
            return "-"
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _reference_csv(columns, blocks) -> str:
    lines = [",".join(columns)]
    for block in blocks:
        for row in block:
            lines.append(",".join(_reference_value(row.get(c), False) for c in columns))
    return "\n".join(lines) + "\n"


def _reference_gnuplot(columns, blocks) -> str:
    chunks = []
    for block in blocks:
        lines = [" ".join(_reference_value(row.get(c), True) for c in columns) for row in block]
        chunks.append("\n".join(lines))
    return "# " + " ".join(columns) + "\n" + "\n\n".join(chunks) + "\n"


def _point_blocks(fixed, axes, approaches, with_correlations=True) -> list[list[dict]]:
    # the grid point by point through run_point, outer axis slowest
    (outer_name, outer), (inner_name, inner) = (axes + [(None, [None])])[:2]
    blocks = []
    for a in outer:
        block = []
        for b in inner:
            updates = {outer_name: float(a)}
            if inner_name is not None:
                updates[inner_name] = float(b)
            block.extend(cli.run_point(replace(fixed, **updates), approaches, 12, with_correlations))
        blocks.append(block)
    return blocks


def _assert_renders_like_reference(new_columns, new_blocks, columns, blocks) -> None:
    assert cli.render_csv(new_columns, new_blocks) == _reference_csv(columns, blocks)
    assert cli.render_gnuplot(new_columns, new_blocks) == _reference_gnuplot(columns, blocks)


def test_fig3_and_fig4_bytes_match_the_point_path():
    # the presets' frozen grids, rebuilt here point by point
    fig3 = _point_blocks(
        NetworkParams(omega_h=10.0, omega_c=5.0, T_h=12.0, T_c=10.0, kappa=1e-4),
        [("epsilon", np.geomspace(1e-5, 1.0, 61))],
        ("local", "global"),
    )
    _assert_renders_like_reference(*cli.preset_fig3(), cli.COLUMNS, fig3)
    omega_h = np.concatenate(
        [np.linspace(0.5, 4.4, 40), np.linspace(4.5, 5.5, 101), np.linspace(5.6, 15.0, 95)]
    )
    fig4 = _point_blocks(
        NetworkParams(omega_c=5.0, epsilon=1e-3, T_h=12.0, T_c=10.0, kappa=1e-7),
        [("omega_h", omega_h)],
        ("local", "global"),
    )
    _assert_renders_like_reference(*cli.preset_fig4(), cli.COLUMNS, fig4)


def test_fig2_bytes_match_the_point_path_on_every_tenth_scanline():
    columns, blocks = cli.preset_fig2()
    stride = slice(None, None, 10)
    reference = _point_blocks(
        NetworkParams(omega_c=5.0, epsilon=1e-4, T_c=10.0, kappa=1e-7),
        [("T_h", np.linspace(10.05, 20.0, 200)[stride]), ("omega_h", np.linspace(0.5, 15.0, 200))],
        ("local",),
        with_correlations=False,
    )
    for block in reference:
        for row in block:
            row["sigma_sign"] = int(np.sign(row["sigma"]))
    _assert_renders_like_reference(columns, blocks[stride], columns, reference)


def test_renderer_edge_cells():
    # constant, mixed and zero-signed columns in one block
    table = {
        "name": ["local", "global", "local", "local"],
        "none": [None] * 4,
        "mixed": [1.5, None, -0.0, math.nan],
        "zeros": [-0.0, 0.0, -0.0, 2.0],
        "repeat": [0.1, 0.1, 0.30000000000000004, 0.1],
        "flag": [True, False, True, None],
        "count": [3, -1, 0, None],
        "error": ["", "RateOverflow", "", ""],
    }
    columns = tuple(table)
    blocks = [cli.Block(table, 0, 4), cli.Block(table, 0, 1), cli.Block(table, 4, 4)]
    _assert_renders_like_reference(columns, blocks, columns, blocks)
    csv = cli.render_csv(columns, blocks).splitlines()
    assert csv[1] == "local,,1.5,-0,0.10000000000000001,1,3,"
    assert csv[3] == "local,,-0,-0,0.30000000000000004,1,0,"
    gnuplot = cli.render_gnuplot(columns, blocks).splitlines()
    assert gnuplot[2] == "global nan nan 0 0.10000000000000001 0 -1 RateOverflow"
    assert gnuplot[4] == "local nan nan 2 0.10000000000000001 nan nan -"


@pytest.mark.parametrize("gnuplot", [False, True], ids=["csv", "gnuplot"])
def test_negative_zero_coupling_prints_its_sign(gnuplot, capsys):
    argv = ["point", "--epsilon", "-0.0", "--approach", "local"]
    assert cli.main(argv + (["--gnuplot"] if gnuplot else [])) == 0
    lines = capsys.readouterr().out.splitlines()
    cells = lines[1].split(" " if gnuplot else ",")
    assert cells[cli.COLUMNS.index("epsilon")] == "-0"
    assert cells[cli.COLUMNS.index("error")] == ("-" if gnuplot else "")


@pytest.mark.parametrize(
    "axes, named",
    [
        (["--axis1", "T_h:10:20:3:lin", "--axis2", "kappa:-1:1:3:lin"], "kappa"),
        # both axes have a rejected value; the outer axis is checked first
        (["--axis1", "T_h:-10:20:3:lin", "--axis2", "kappa:-1:1:3:lin"], "T_h"),
        (["--axis1", "kappa:-1:1:3:lin", "--axis2", "T_h:-10:20:3:lin"], "kappa"),
        (["--axis1", "T_h:1:20:3:lin", "--axis2", "T_h:-1:2:3:lin"], "T_h"),
    ],
    ids=["inner", "both", "both_outer_kappa", "same_name"],
)
def test_a_bad_axis_value_is_a_usage_error(axes, named, capsys):
    assert cli.main(["sweep", *axes]) == 2
    captured = capsys.readouterr()
    assert named in captured.err and "positive finite" in captured.err
    assert captured.out == ""


def test_an_outer_axis_the_inner_one_overrides_is_not_checked(capsys):
    # the inner value wins a shared name, so outer kappa <= 0 never reaches a point
    argv = ["sweep", "--approach", "local", "--axis1", "kappa:-10:20:3:lin",
            "--axis2", "kappa:1e-7:2e-7:2:lin"]
    assert cli.main(argv) == 0
    rows = _rows(capsys.readouterr().out)
    assert [float(r["kappa"]) for r in rows] == [1e-7, 2e-7] * 3
    assert all(r["error"] == "" for r in rows)
