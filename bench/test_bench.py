"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import numpy as np
import pytest

import run

run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from qheatnet import cli  # noqa: E402


def _first_rounds(workload, seed: int, count: int = 2) -> list:
    rounds = workload.rounds(np.random.default_rng(seed))
    return [op for _ in range(count) for op in next(rounds)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(name):
    workload = workloads.WORKLOADS[name]
    first = _first_rounds(workload, 7)
    assert first == _first_rounds(workload, 7)
    if name != "fig2_map":  # the preset has no free inputs
        assert first != _first_rounds(workload, 8)


def test_oracle_rounds_hold_one_draw_per_truncation():
    ops = _first_rounds(workloads.WORKLOADS["oracle_audit"], 3)
    assert [op.n_max for op in ops] == 2 * list(workloads.ORACLE_TRUNCATIONS)
    assert all(workloads.oracle_nmax(op.params) == op.n_max for op in ops)


def _corrupt(rows: list[dict], index: int, key: str, factor: float) -> list[dict]:
    copy = [dict(row) for row in rows]
    copy[index][key] *= factor
    return copy


@pytest.mark.parametrize("name", ["point_audit", "oracle_audit"])
def test_point_check_flags_a_corrupted_row(name):
    workload = workloads.WORKLOADS[name]
    op = _first_rounds(workload, 11, count=1)[0]
    rows = workload.run(op, "")
    assert workload.check(op, rows) == []
    for index in range(len(rows)):
        assert workload.check(op, _corrupt(rows, index, "J_h", 2.0))
        assert workload.check(op, _corrupt(rows, index, "J_c", 2.0))
    broken = [dict(row) for row in rows]
    broken[-1]["error"] = "NonConvergence"
    assert workload.check(op, broken)


def test_oracle_check_flags_corrupted_moments():
    workload = workloads.WORKLOADS["oracle_audit"]
    op = _first_rounds(workload, 11, count=1)[0]
    rows = workload.run(op, "")
    copy = [dict(row) for row in rows]
    copy[0]["n_A"] += 1e-6
    assert workload.check(op, copy)


def _rewrite_field(src, dst, line_no: int, column: str, value: str) -> None:
    lines = src.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    fields = lines[line_no].rstrip("\n").split(",")
    fields[header.index(column)] = value
    lines[line_no] = ",".join(fields) + "\n"
    dst.write_text("".join(lines))


def test_sweep_check_flags_a_corrupted_row(tmp_path):
    argv = workloads.sweep_argv(np.random.default_rng(5))
    small = tuple(a.replace(f":{workloads.SWEEP_SIDE}:", ":3:") for a in argv)
    op = workloads.CommandOp(small, points=9)
    path = tmp_path / "sweep.csv"
    workloads.WORKLOADS["sweep_both"].run(op, str(path))
    assert workloads.check_sweep(str(path), op.points) == []
    corrupt = tmp_path / "corrupt.csv"
    _rewrite_field(path, corrupt, 4, "J_c", "1.5")
    assert workloads.check_sweep(str(corrupt), op.points)
    _rewrite_field(path, corrupt, 4, "cor_xAxB", "")
    assert workloads.check_sweep(str(corrupt), op.points)


def test_fig2_check_flags_a_flipped_sign(tmp_path):
    path = tmp_path / "fig2.csv"
    assert cli.main(["fig2", "--out", str(path)]) == 0
    assert workloads.check_fig2(str(path)) == []
    corrupt = tmp_path / "corrupt.csv"
    # row 1 is omega_h = 0.5 at T_h = 10.05, far on the positive side
    _rewrite_field(path, corrupt, 1, "sigma_sign", "-1")
    assert workloads.check_fig2(str(corrupt))


def test_traced_self_times_are_nonnegative_and_fit_in_the_wall_time(tmp_path):
    original = cli.run_point
    workload = workloads.WORKLOADS["point_audit"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run_point is not original
        loop = run.Loop(workload)
        for op in _first_rounds(workload, 2, count=20):
            loop.step(op, tracer)
        sweep = workloads.WORKLOADS["sweep_both"]
        argv = workloads.sweep_argv(np.random.default_rng(2))
        small = tuple(a.replace(f":{workloads.SWEEP_SIDE}:", ":4:") for a in argv)
        loop.workload, loop.out_path = sweep, str(tmp_path / "sweep.csv")
        loop.step(workloads.CommandOp(small, points=16), tracer)
    finally:
        tracer.uninstall()
    assert cli.run_point is original
    assert loop.failed == 0 and len(loop.durations) == 101
    times = tracer.layer_times()
    self_s = [seconds for _, seconds in times.values()]
    assert all(seconds >= 0.0 for seconds in self_s)
    assert sum(self_s) <= sum(loop.durations)
    assert times["cli.run_point"][0] == 100 + 16
    assert times["cli.main"][0] == 1
    assert tracer.counts["cli.rows"] == 4 * 20 * 2 + 20 + 2 * 16
