"""The four benchmark workloads: seeded inputs, the timed operation, the check.

Each workload yields its operations in rounds.  A round has a fixed
composition (how many TLS draws, which truncations), so a run that always
finishes whole rounds measures the same mix of work whatever the seed.

  fig2_map      `qheatnet fig2 --out FILE`: 40 000 local rows, no
                correlations, a 9.9 MB CSV.  The local closed forms, validation
                and CSV rendering do nearly all the work; the global
                treatment, the Gaussian layer and the oracle stay idle.
  sweep_both    `qheatnet sweep --approach both` over a 50 x 50 grid
                (log epsilon x lin omega_h) with seeded base parameters and
                correlations on.  The global treatment and the Gaussian layer
                carry most of the time.
  point_audit   one `cli.run_point` call per contrast-style draw; one draw in
                five is TLS and asks for the local treatment only.  Measures
                the scalar path that grid kernels must not slow down.  Not
                listed in BENCHMARK.json: on a shared 2-vCPU host whose speed
                flips between two levels 1.4x apart every fraction of a second,
                the median of these sub-millisecond operations lands on either
                level, so it spread 0.39 (IQR/median) over ten seeds.  Run it
                by name for a manual comparison.
  oracle_audit  one `cli.run_point(params, ("oracle-local", "oracle-global"),
                n_max)` per cold draw, with n_max from `oracle.suggested_nmax`
                and one draw per truncation 4..12 in every round, so the
                working set spans 625 to 28 561 unknowns.  The oracle does all
                the work.

The checks run outside the timed region.  They return a list of problems,
empty when the operation's output is correct.
"""

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from qheatnet import cli, global_mme, local_mme, oracle
from qheatnet.model import NetworkParams, Statistics, normal_mode_basis

FIRST_LAW_RTOL = 1e-10
CLOSED_FORM_RTOL = 1e-10
ORACLE_ATOL = 1e-8

SWEEP_SIDE = 50
POINT_ROUND_BOSONS = 4  # then one TLS draw: one draw in five is TLS
ORACLE_TRUNCATIONS = tuple(range(4, 13))


@dataclass(frozen=True)
class CommandOp:
    """One CLI invocation; the benchmark appends `--out FILE`."""

    argv: tuple[str, ...]
    points: int

    @property
    def label(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class PointOp:
    """One `cli.run_point` call."""

    params: NetworkParams
    approaches: tuple[str, ...]
    n_max: int = 12
    points: int = 1

    @property
    def label(self) -> str:
        """Statistics for closed-form points, the truncation for oracle points."""
        if any(a.startswith("oracle") for a in self.approaches):
            return f"n_max={self.n_max}"
        return self.params.statistics.value


# --- seeded draws -------------------------------------------------------------


def _loguniform(rng: np.random.Generator, low: float, high: float) -> float:
    return float(np.exp(rng.uniform(np.log(low), np.log(high))))


def contrast_params(rng: np.random.Generator, statistics: Statistics) -> NetworkParams:
    """Strong coupling with beta*omega kept apart on both sides, so closed
    forms and solves are compared far from their cancellation floor."""
    while True:
        omega_h = float(rng.uniform(2.0, 8.0))
        omega_c = float(rng.uniform(2.0, 8.0))
        params = NetworkParams(
            omega_h=omega_h,
            omega_c=omega_c,
            epsilon=float(rng.uniform(0.3, 0.45) * min(omega_h, omega_c)),
            T_h=float(rng.uniform(0.5, 12.0)),
            T_c=float(rng.uniform(0.5, 12.0)),
            kappa=_loguniform(rng, 1e-6, 1e-3),
            statistics=statistics,
        )
        if abs(params.beta_h * omega_h - params.beta_c * omega_c) < 0.05:
            continue
        if statistics is Statistics.BOSON:
            omega_minus = normal_mode_basis(params).omega_minus
            if abs(params.beta_h - params.beta_c) * omega_minus < 0.05:
                continue
        return params


def oracle_nmax(params: NetworkParams) -> int:
    """The truncation both generators clear: the larger suggestion."""
    return max(oracle.suggested_nmax(params, g) for g in oracle.Generator)


def cold_params(rng: np.random.Generator, n_max: int) -> NetworkParams:
    """A cold-style draw whose suggested truncation is exactly n_max.

    Temperatures reach omega_min / 1.75, which puts the suggestion between
    2 and 13; draws off the requested truncation are rejected.
    """
    while True:
        omega_h = float(rng.uniform(3.0, 8.0))
        omega_c = float(rng.uniform(3.0, 8.0))
        omega_min = min(omega_h, omega_c)
        params = NetworkParams(
            omega_h=omega_h,
            omega_c=omega_c,
            epsilon=float(rng.uniform(0.05, 0.2) * omega_min),
            T_h=float(rng.uniform(0.4, omega_min / 1.75)),
            T_c=float(rng.uniform(0.4, omega_min / 1.75)),
            kappa=_loguniform(rng, 1e-5, 1e-3),
        )
        if oracle_nmax(params) == n_max:
            return params


def sweep_argv(rng: np.random.Generator) -> tuple[str, ...]:
    """A 50 x 50 sweep, log epsilon x lin omega_h, over seeded base values.

    epsilon stays below half the smaller frequency anywhere on the grid, so
    no point is gapless.
    """
    omega_c = float(rng.uniform(0.5, 10.0))
    omega_lo = float(rng.uniform(0.5, 3.0))
    omega_hi = float(rng.uniform(8.0, 15.0))
    eps_hi = 0.45 * min(omega_c, omega_lo)
    return (
        "sweep",
        "--approach", "both",
        "--axis1", f"epsilon:1e-05:{eps_hi!r}:{SWEEP_SIDE}:log",
        "--axis2", f"omega_h:{omega_lo!r}:{omega_hi!r}:{SWEEP_SIDE}:lin",
        "--omega-c", repr(omega_c),
        "--T-h", repr(float(rng.uniform(0.5, 20.0))),
        "--T-c", repr(float(rng.uniform(0.5, 20.0))),
        "--kappa", repr(_loguniform(rng, 1e-7, 1e-3)),
    )


# --- checks -------------------------------------------------------------------


def first_law_holds(J_h: float, J_c: float) -> bool:
    return abs(J_h + J_c) <= FIRST_LAW_RTOL * max(1.0, abs(J_h))


def _csv_rows(path: str, columns: tuple[str, ...]):
    """Stream a CSV as dicts of strings, checking the header."""
    with open(path, encoding="utf-8") as handle:
        header = tuple(handle.readline().rstrip("\n").split(","))
        if header != columns:
            raise ValueError(f"unexpected header {header!r}")
        for line in handle:
            yield dict(zip(columns, line.rstrip("\n").split(",")))


def _row_problems(row: dict, where: str) -> list[str]:
    if row["error"]:
        return [f"{where}: error row {row['error']}"]
    J_h, J_c = float(row["J_h"]), float(row["J_c"])
    if not first_law_holds(J_h, J_c):
        return [f"{where}: first law J_h={J_h!r} J_c={J_c!r}"]
    return []


def check_fig2(path: str) -> list[str]:
    """Every row closes the first law, and each T_h scanline flips the sign of
    sigma once, within one omega_h cell of omega_h/T_h = omega_c/T_c."""
    problems: list[str] = []
    rows = 0
    scanlines: dict[str, list[tuple[float, int, float]]] = {}
    for row in _csv_rows(path, cli.COLUMNS + ("sigma_sign",)):
        rows += 1
        problems += _row_problems(row, f"fig2 row {rows}")
        sigma, sign = float(row["sigma"]), int(row["sigma_sign"])
        if sign != int(np.sign(sigma)):
            problems.append(f"fig2 row {rows}: sigma_sign {sign} for sigma {sigma!r}")
        boundary = float(row["T_h"]) * float(row["omega_c"]) / float(row["T_c"])
        scanlines.setdefault(row["T_h"], []).append((float(row["omega_h"]), sign, boundary))
    if rows != 40_000:
        problems.append(f"fig2: {rows} rows, expected 40000")
    for t_h, line in scanlines.items():
        omegas = [omega for omega, _, _ in line]
        cell = max(b - a for a, b in zip(omegas, omegas[1:]))
        boundary = line[0][2]
        positive = [omega for omega, sign, _ in line if sign > 0]
        negative = [omega for omega, sign, _ in line if sign < 0]
        if not positive or not negative or max(positive) >= min(negative):
            problems.append(f"fig2 T_h={t_h}: no single sign flip")
            continue
        if abs(0.5 * (max(positive) + min(negative)) - boundary) > cell:
            problems.append(f"fig2 T_h={t_h}: flip more than one cell from {boundary!r}")
        for omega, sign, _ in line:
            if abs(omega - boundary) > 1.5 * cell and sign != (1 if omega < boundary else -1):
                problems.append(f"fig2 T_h={t_h} omega_h={omega!r}: wrong sign {sign}")
    return problems


def check_sweep(path: str, points: int) -> list[str]:
    """Every row is error-free, closes the first law and carries correlations."""
    problems: list[str] = []
    rows = 0
    for row in _csv_rows(path, cli.COLUMNS):
        rows += 1
        where = f"sweep row {rows} ({row['approach']})"
        problems += _row_problems(row, where)
        if row["separable"] not in ("0", "1") or "" in (row["cor_xAxB"], row["cor_pApB"]):
            problems.append(f"{where}: correlations missing")
    if rows != 2 * points:
        problems.append(f"sweep: {rows} rows, expected {2 * points}")
    return problems


def _relative_gap(closed: float, solved: float) -> float:
    return abs(closed - solved) / abs(closed) if closed else abs(solved)


def check_point(op: PointOp, rows: list[dict]) -> list[str]:
    """First law on every row; closed forms against the solved J_h for the
    two treatments; the Fock oracle against both moment solutions."""
    params = op.params
    if [row["approach"] for row in rows] != list(op.approaches):
        return [f"{params}: rows {[row['approach'] for row in rows]}"]
    problems: list[str] = []
    for row in rows:
        where = f"{params} {row['approach']}"
        row_problems = _row_problems(row, where)
        if row_problems:
            problems += row_problems
            continue
        approach = row["approach"]
        if approach in ("local", "global"):
            treatment = local_mme if approach == "local" else global_mme
            closed = treatment.heat_current_closed_form(params)
            # The local closed form returns (J_h, F); take J_h either way.
            closed = closed[0] if isinstance(closed, tuple) else closed
            if _relative_gap(closed, row["J_h"]) > CLOSED_FORM_RTOL:
                problems.append(f"{where}: closed form {closed!r} vs solved {row['J_h']!r}")
        elif approach == "oracle-local":
            want = local_mme.steady_state(params)
            m = want.moments
            expected = {
                "n_A": m.nA, "n_B": m.nB, "X": m.X, "Y": m.Y, "J_h": want.J_h, "J_c": want.J_c,
            }
            problems += _oracle_gaps(where, row, expected)
        else:
            want = global_mme.steady_state(params)
            expected = {
                "n_plus": want.n_plus, "n_minus": want.n_minus, "n_A": want.nA,
                "n_B": want.nB, "J_h": want.J_h, "J_c": want.J_c,
            }
            problems += _oracle_gaps(where, row, expected)
        if approach in ("local", "global") and params.statistics is Statistics.BOSON:
            if row["cor_xAxB"] is None or row["separable"] is None:
                problems.append(f"{where}: correlations missing")
    return problems


def _oracle_gaps(where: str, row: dict, expected: dict) -> list[str]:
    return [
        f"{where}: {key} oracle {row[key]!r} vs {value!r}"
        for key, value in expected.items()
        if not abs(row[key] - value) <= ORACLE_ATOL
    ]


# --- the workloads ------------------------------------------------------------


class Workload:
    """Seeded rounds of operations, how to run one, and how to check it."""

    name = ""
    trace_rounds = 1  # rounds in a traced run: fixed work, so counts repeat
    preset = None  # the figure preset whose CSV each operation writes, if any

    def rounds(self, rng: np.random.Generator):
        raise NotImplementedError

    def run(self, op, out_path: str):
        if isinstance(op, PointOp):
            return cli.run_point(op.params, op.approaches, op.n_max)
        code = cli.main([*op.argv, "--out", out_path])
        if code != 0:
            raise RuntimeError(f"qheatnet {' '.join(op.argv)} exited with {code}")
        return out_path

    def check(self, op, result) -> list[str]:
        raise NotImplementedError


class Fig2Map(Workload):
    name = "fig2_map"
    preset = "fig2"

    def rounds(self, rng):
        # The preset has no free inputs; the seed changes nothing here.
        while True:
            yield [CommandOp(("fig2",), points=40_000)]

    def check(self, op, result):
        return check_fig2(result)


class SweepBoth(Workload):
    name = "sweep_both"
    trace_rounds = 2

    def rounds(self, rng):
        while True:
            yield [CommandOp(sweep_argv(rng), points=SWEEP_SIDE * SWEEP_SIDE)]

    def check(self, op, result):
        return check_sweep(result, op.points)


class PointAudit(Workload):
    name = "point_audit"
    trace_rounds = 400

    def rounds(self, rng):
        both = ("local", "global")
        while True:
            ops = [
                PointOp(contrast_params(rng, Statistics.BOSON), both)
                for _ in range(POINT_ROUND_BOSONS)
            ]
            yield ops + [PointOp(contrast_params(rng, Statistics.TLS), ("local",))]

    def check(self, op, result):
        return check_point(op, result)


class OracleAudit(Workload):
    name = "oracle_audit"

    def rounds(self, rng):
        approaches = ("oracle-local", "oracle-global")
        while True:
            yield [PointOp(cold_params(rng, n), approaches, n) for n in ORACLE_TRUNCATIONS]

    def check(self, op, result):
        return check_point(op, result)


WORKLOADS = {w.name: w for w in (Fig2Map(), SweepBoth(), PointAudit(), OracleAudit())}


# --- output fingerprints ------------------------------------------------------


def fingerprints(out_dir: str, written: dict[str, str]) -> dict[str, str]:
    """sha256 of the fig2, fig3 and fig4 CSVs, reported and not gated.

    `written` maps a preset to a CSV of it the run already wrote.
    """
    digests = {}
    for name in ("fig2", "fig3", "fig4"):
        path = written.get(name)
        if path is None:
            path = f"{out_dir}/{name}.csv"
            if cli.main([name, "--out", path]) != 0:
                raise RuntimeError(f"qheatnet {name} failed")
        with open(path, "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
        os.remove(path)
    return digests
