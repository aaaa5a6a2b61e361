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
from qheatnet import cli, errors
from qheatnet.model import NetworkParams, Statistics

from _draws import contrast_params, extreme_params, generic_params

EXPECTED_HEADER = (
    "approach,omega_h,omega_c,epsilon,T_h,T_c,kappa,statistics,"
    "n_A,n_B,X,Y,n_plus,n_minus,J_h,J_c,sigma,"
    "cor_xAxB,cor_xApB,cor_pAxB,cor_pApB,separable,secular_warning,error"
)


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
