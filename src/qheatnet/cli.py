"""Command-line front end: point evaluation, parameter sweeps, figure presets.

Every command walks one grid: `point` has no axis, `sweep` one or two, and
the presets are canned sweeps.  Output is a flat table, one row per (grid
point, treatment), echoing the full parameter set so every row stands alone.
Columns that do not apply to a row (normal-mode occupations for the local
treatment, quadrature correlations for two-level nodes) stay empty, and
per-row failures land in the final error column as the exception class name
instead of aborting the sweep.  Floats are printed with 17 significant
digits so identical invocations are byte identical and values round-trip
exactly.

A grid is checked and evaluated as a whole.  `validate` checks each field
on its own, so each axis value is validated once, outer axis first, and a
rejected value is a usage error before anything is computed.  Each
treatment gives its result columns for the whole grid and a typed error or
None per row: the local and global treatments from one kernel call over the
grid's parameter columns, the Fock oracle point by point, and only the oracle
needs a NetworkParams per point.  One writer puts the columns into one table
of named columns, adding the Gaussian columns of bosonic rows from their
moments in one call over the treatment's rows.  Blocks are views of
row ranges of that table whose rows read as dicts.  The table is rendered
column by column over runs of whole blocks about a thousand rows long: a
column holding one object throughout a run is formatted once, and so is
each distinct non-zero float.

The fig2/fig3/fig4 presets are the three canned sweeps this package ships:
the sign map of the local entropy production over (omega_h, T_h), the
epsilon sweep comparing both treatments, and the omega_h sweep through
resonance.  Their fixed constants and grid ranges are frozen here so the
tables they emit are reproducible claims, not just defaults.
"""

import argparse
import itertools
import math
import sys
from collections.abc import Sequence
from dataclasses import replace
from functools import partial

import numpy as np

from . import global_mme, local_mme, oracle
from .errors import GaplessSpectrum, HeatNetError, by_row
from .gaussian import moment_correlation_columns
from .model import _FLOAT_KEYS, NetworkParams, Statistics, load_config

# Each group of result columns is filled together by a treatment.
_MOMENTS = ("n_A", "n_B", "X", "Y")
_CURRENTS = ("J_h", "J_c", "sigma")
_CORRELATIONS = ("cor_xAxB", "cor_xApB", "cor_pAxB", "cor_pApB", "separable")

COLUMNS = (
    "approach", *_FLOAT_KEYS, "statistics", *_MOMENTS, "n_plus", "n_minus", *_CURRENTS,
    *_CORRELATIONS, "secular_warning", "error",
)

def parse_axis(text: str) -> tuple[str, np.ndarray]:
    """Parse 'name:start:stop:count:lin|log' into (name, values)."""
    parts = text.split(":")
    if len(parts) != 5:
        raise ValueError(f"axis must be name:start:stop:count:lin|log, got {text!r}")
    name, start_s, stop_s, count_s, scale = (p.strip() for p in parts)
    if name not in _FLOAT_KEYS:
        raise ValueError(f"axis parameter must be one of {', '.join(_FLOAT_KEYS)}, got {name!r}")
    start, stop, count = float(start_s), float(stop_s), int(count_s)
    if count < 2:
        raise ValueError(f"axis count must be >= 2, got {count}")
    if not start < stop:
        raise ValueError(f"axis needs start < stop, got {start!r} >= {stop!r}")
    if scale not in ("lin", "log"):
        raise ValueError(f"axis scale must be lin or log, got {scale!r}")
    if scale == "log" and start <= 0:
        raise ValueError(f"log axis needs start > 0, got {start!r}")
    spacing = np.geomspace if scale == "log" else np.linspace
    return name, spacing(start, stop, count)


# --- the column table -------------------------------------------------------


class Block(Sequence):
    """Rows start..stop of a grid's column table, read as one dict per row.

    `table` maps each column name to a list with one value per row of the
    whole grid.  block[i] builds a fresh {column: value} dict, so writing to
    it leaves the table alone.
    """

    __slots__ = ("table", "start", "stop")

    def __init__(self, table: dict[str, list], start: int, stop: int) -> None:
        self.table, self.start, self.stop = table, start, stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        row = range(self.start, self.stop)[index]
        return {name: values[row] for name, values in self.table.items()}


def _local_columns(delta: float, points: dict[str, list], params: list) -> tuple[dict, list]:
    """The local rows of a grid from one call of the grid kernel."""
    states = local_mme.steady_states(*(np.array(points[name]) for name in _FLOAT_KEYS), delta)
    columns = np.column_stack([states.moments, states.J_h, states.J_c, states.sigma]).T.tolist()
    return dict(zip(_MOMENTS + _CURRENTS, columns)), states.errors


_GLOBAL_COLUMNS = (*_MOMENTS, "n_plus", "n_minus", *_CURRENTS, "secular_warning")
_ORACLE_COLUMNS = (*_MOMENTS, *_CURRENTS, "n_plus", "n_minus")


def _global_columns(statistics: Statistics, points: dict[str, list], params: list) -> tuple:
    """The global rows of a grid from one call of the grid kernel."""
    s = global_mme.steady_states(*(points[name] for name in _FLOAT_KEYS), statistics)
    values = (s.nA, s.nB, s.X, s.Y, s.n_plus, s.n_minus, s.J_h, s.J_c, s.sigma, s.secular_warning)
    return dict(zip(_GLOBAL_COLUMNS, values)), s.errors


def _oracle_values(generator: oracle.Generator, n_max: int, params: NetworkParams) -> tuple:
    """One oracle row in the order of _ORACLE_COLUMNS; only bosonic rows go past sigma."""
    liou = oracle.build(params, generator, n_max)
    rho = oracle.steady_state(liou)
    m = oracle.moments(liou, rho)
    J_h = oracle.heat_current(liou, rho, "hot")
    J_c = oracle.heat_current(liou, rho, "cold")
    values = (m.nA, m.nB, m.X, m.Y, J_h, J_c, -J_h / params.T_h - J_c / params.T_c)
    if params.statistics is Statistics.BOSON:
        try:
            values += oracle.mode_populations(liou, rho)
        except GaplessSpectrum:
            values += (None, None)  # moments are fine, the mode decomposition just does not exist
    return values


def _oracle_columns(generator: oracle.Generator, n_max: int, points: dict, params: list) -> tuple:
    """The rows of an oracle treatment, solved point by point.

    A failed row holds NaN, like a failed row of the kernels, until _write empties it.
    """
    values = partial(_oracle_values, generator, n_max)
    # a row may stop short of the last names (see _oracle_values)
    columns, errors = by_row(values, (params,), (math.nan,) * len(_ORACLE_COLUMNS))
    return dict(zip(_ORACLE_COLUMNS, columns)), errors


def _treatments(approaches, fixed: NetworkParams, n_max: int, with_correlations: bool) -> list:
    """Each approach as (columns, gaussian); an unknown one raises ValueError.

    columns(points, params) gives the approach's result columns by name for the
    whole grid and a typed error or None per row.  The local and global kernels
    read the parameter columns in `points`; only the oracle reads `params`, one
    NetworkParams per point.  With `gaussian`, _write adds the rows'
    correlation columns from their moments.
    """
    gaussian = with_correlations and fixed.statistics is Statistics.BOSON
    known = {
        "local": (partial(_local_columns, fixed.delta), gaussian),
        "global": (partial(_global_columns, fixed.statistics), gaussian),
    }
    for generator in oracle.Generator:
        known[f"oracle-{generator.value}"] = (partial(_oracle_columns, generator, n_max), gaussian)
    try:
        return [known[approach] for approach in approaches]
    except KeyError as exc:
        raise ValueError(f"unknown approach {exc.args[0]!r}") from None


def _write(table: dict, rows: slice, columns: dict, errors: list, gaussian: bool) -> None:
    """Write one treatment's columns and errors into its rows of the table.

    With `gaussian` the correlation columns come from each row's own
    moments, and a row they find unphysical fails unless it failed already.
    A failed row keeps only its parameters and its first error.
    """
    if gaussian:
        cells = moment_correlation_columns(*(columns[name] for name in _MOMENTS))
        columns.update((name, getattr(cells, name)) for name in _CORRELATIONS)
        errors = [error if error is not None else new for error, new in zip(errors, cells.errors)]
    failed = [i for i, error in enumerate(errors) if error is not None]
    for name, column in columns.items():
        for i in failed:
            column[i] = None
        table[name][rows] = column
    table["error"][rows] = ["" if error is None else type(error).__name__ for error in errors]


def run_point(
    params: NetworkParams,
    approaches: tuple[str, ...],
    n_max: int = 12,
    with_correlations: bool = True,
) -> Block:
    """One row per requested treatment; failures become the row's error column."""
    return sweep_blocks(params, [], approaches, n_max, with_correlations)[0]


def _check_axes(fixed: NetworkParams, axes: list[tuple[str, np.ndarray]]) -> None:
    """Validate each axis value once, outer axis first; raise at the first rejected one.

    `validate` checks each field on its own, so this covers every grid point;
    an outer axis that the inner one overrides is skipped.
    """
    for k, (name, values) in enumerate(axes):
        if name not in dict(axes[k + 1 :]):
            for value in values.tolist():
                replace(fixed, **{name: value})


def sweep_blocks(
    fixed: NetworkParams,
    axes: list[tuple[str, np.ndarray]],
    approaches: tuple[str, ...],
    n_max: int = 12,
    with_correlations: bool = True,
) -> list[Block]:
    """Evaluate a grid of up to two (name, values) axes in deterministic order.

    The first axis is the outer loop and the second the inner one; when both
    name the same parameter the inner value wins.  The rows form one column
    table, point by point and each point's rows in the order of
    `approaches`.  Returns one Block of it per outer value, or a single
    block when there is no axis; blocks become blank-line separated
    scanlines in the gnuplot layout, and their rows read as dicts.

    Each approach gives its columns for the whole grid (see _treatments),
    and _write puts them into the table.
    """
    treatments = _treatments(approaches, fixed, n_max, with_correlations)
    _check_axes(fixed, axes)
    shape = [len(values) for _, values in axes]
    count = math.prod(shape)
    inner = shape[1] if len(axes) == 2 else 1
    # One entry per grid point, outer axis slowest; a value that does not
    # change along a block is one shared object there.
    points = {name: [getattr(fixed, name)] * count for name in _FLOAT_KEYS}
    if axes:
        points[axes[0][0]] = [value for value in axes[0][1].tolist() for _ in range(inner)]
    if len(axes) == 2:
        points[axes[1][0]] = axes[1][1].tolist() * shape[0]
    # each point's NetworkParams, built once and only for the oracle, which solves point by point
    params = [fixed] if not axes else []
    if axes and any(approach.startswith("oracle-") for approach in approaches):
        params = [replace(fixed, **{n: points[n][i] for n in dict(axes)}) for i in range(count)]
    width = len(approaches)
    blank = {"statistics": fixed.statistics.value, "error": ""}  # None in every other column
    table = {name: [blank.get(name)] * (count * width) for name in COLUMNS}
    table["approach"] = list(approaches) * count
    for k, (columns, gaussian) in enumerate(treatments):
        for name in _FLOAT_KEYS:
            table[name][k::width] = points[name]
        _write(table, slice(k, None, width), *columns(points, params), gaussian)
    size = inner * width
    return [Block(table, k * size, (k + 1) * size) for k in range(shape[0] if axes else 1)]


# --- figure presets ---------------------------------------------------------


def preset_fig2() -> tuple[tuple[str, ...], list[Block]]:
    """Sign map of the local entropy production over (omega_h, T_h).

    Fixed constants: T_c = 10, omega_c = 5, epsilon = 1e-4, kappa = 1e-7.
    T_h starts just above T_c: the sign map statement sign(sigma) =
    sign(omega_c/T_c - omega_h/T_h) holds for a hotter hot bath, which is
    also the transport regime the map is about.  The violation borderline
    omega_h/T_h = 1/2 then crosses the full grid.  Quadrature correlations
    are skipped; the map is about sigma only.
    """
    fixed = NetworkParams(omega_c=5.0, epsilon=1e-4, T_c=10.0, kappa=1e-7)
    axes = [("T_h", np.linspace(10.05, 20.0, 200)), ("omega_h", np.linspace(0.5, 15.0, 200))]
    blocks = sweep_blocks(fixed, axes, ("local",), with_correlations=False)
    table = blocks[0].table
    table["sigma_sign"] = [None if v is None else int(np.sign(v)) for v in table["sigma"]]
    return COLUMNS + ("sigma_sign",), blocks


def preset_fig3() -> tuple[tuple[str, ...], list[Block]]:
    """Both treatments across the coupling range epsilon in [1e-5, 1].

    Fixed constants: T_h = 12, T_c = 10, omega_h = 10, omega_c = 5,
    kappa = 1e-4.  Log-spaced, 61 points.
    """
    fixed = NetworkParams(omega_h=10.0, omega_c=5.0, T_h=12.0, T_c=10.0, kappa=1e-4)
    blocks = sweep_blocks(fixed, [("epsilon", np.geomspace(1e-5, 1.0, 61))], ("local", "global"))
    return COLUMNS, blocks


def _fig4_grid() -> np.ndarray:
    # Dense (0.01) through the resonance window around omega_c = 5, 0.1 outside;
    # the outside spacing is also the resolution at the local sign flip at 6.
    return np.concatenate(
        [
            np.linspace(0.5, 4.4, 40),
            np.linspace(4.5, 5.5, 101),
            np.linspace(5.6, 15.0, 95),
        ]
    )


def preset_fig4() -> tuple[tuple[str, ...], list[Block]]:
    """Both treatments across omega_h through resonance with omega_c.

    Fixed constants: T_h = 12, T_c = 10, omega_c = 5, epsilon = 1e-3,
    kappa = 1e-7.
    """
    fixed = NetworkParams(omega_c=5.0, epsilon=1e-3, T_h=12.0, T_c=10.0, kappa=1e-7)
    blocks = sweep_blocks(fixed, [("omega_h", _fig4_grid())], ("local", "global"))
    return COLUMNS, blocks


# --- rendering --------------------------------------------------------------


def _format_value(value, gnuplot: bool) -> str:
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


def _format_column(values: list, gnuplot: bool) -> list[str]:
    """_format_value over a column, formatting a shared object or a repeated float once."""
    first = values[0] if values else None
    if all(value is first for value in values):
        return [_format_value(first, gnuplot)] * len(values)
    if set(map(type, values)) == {float}:
        distinct = dict.fromkeys(values)
        # a table keyed by value would print -0.0 as 0
        if 0.0 not in distinct:
            texts = {value: format(value, ".17g") for value in distinct}
            return list(map(texts.__getitem__, values))
    return [_format_value(value, gnuplot) for value in values]


# Rows formatted together: enough that small blocks share the per-column
# work, few enough that the string columns stay small next to the table.
_CHUNK_ROWS = 1000


def _block_texts(columns: tuple[str, ...], blocks: list[Block], gnuplot: bool):
    """Yield each block's lines, joined by newlines.

    Cells are formatted column by column over runs of whole blocks that
    hold at least _CHUNK_ROWS rows (the last run may hold fewer).
    """
    separator = " " if gnuplot else ","
    run: list[Block] = []
    size = 0
    for index, block in enumerate(blocks):
        run.append(block)
        size += len(block)
        if size < _CHUNK_ROWS and index + 1 < len(blocks):
            continue
        cells = []
        for column in columns:
            values = itertools.chain.from_iterable(b.table[column][b.start : b.stop] for b in run)
            cells.append(_format_column(list(values), gnuplot))
        lines = map(separator.join, zip(*cells))
        for member in run:
            yield "\n".join(itertools.islice(lines, len(member)))
        run, size = [], 0


def render_csv(columns: tuple[str, ...], blocks: list[Block]) -> str:
    texts = filter(None, _block_texts(columns, blocks, False))
    return "\n".join([",".join(columns), *texts]) + "\n"


def render_gnuplot(columns: tuple[str, ...], blocks: list[Block]) -> str:
    """Whitespace-separated table; blocks become blank-line separated so a
    2-D sweep is directly usable as a gnuplot grid."""
    texts = _block_texts(columns, blocks, True)
    return "# " + " ".join(columns) + "\n" + "\n\n".join(texts) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


# --- argument plumbing ------------------------------------------------------


def _params_from_args(args: argparse.Namespace) -> NetworkParams:
    params = NetworkParams()
    if args.config is not None:
        params = load_config(args.config, base=params)
    updates: dict = {}
    for name in _FLOAT_KEYS:
        value = getattr(args, name)
        if value is not None:
            updates[name] = value
    if args.statistics is not None:
        updates["statistics"] = Statistics(args.statistics)
    return replace(params, **updates)


def _approaches_from_args(args: argparse.Namespace) -> tuple[str, ...]:
    base = ("local", "global") if args.approach == "both" else (args.approach,)
    if args.oracle:
        return base + tuple(f"oracle-{name}" for name in base)
    return base


def _build_parser() -> argparse.ArgumentParser:
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--config", help="key=value parameter file")
    params.add_argument("--omega-h", dest="omega_h", type=float, help="node A frequency")
    params.add_argument("--omega-c", dest="omega_c", type=float, help="node B frequency")
    params.add_argument("--epsilon", type=float, help="inter-node coupling")
    params.add_argument("--T-h", dest="T_h", type=float, help="hot bath temperature")
    params.add_argument("--T-c", dest="T_c", type=float, help="cold bath temperature")
    params.add_argument("--kappa", type=float, help="spectral response prefactor")
    params.add_argument("--statistics", choices=("boson", "tls"), help="node statistics")

    approach = argparse.ArgumentParser(add_help=False)
    approach.add_argument(
        "--approach", choices=("local", "global", "both"), default="both",
        help="which treatment(s) to evaluate",
    )
    approach.add_argument(
        "--oracle", action="store_true",
        help="also solve the truncated-space generator for each treatment",
    )
    approach.add_argument(
        "--nmax", type=int, default=12, help="bosonic Fock truncation for --oracle",
    )

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="output path (default: stdout)")
    output.add_argument(
        "--gnuplot", action="store_true",
        help="emit a gnuplot-ready table instead of CSV",
    )

    parser = argparse.ArgumentParser(
        prog="qheatnet",
        description="Steady-state heat transport through a two-node network, "
        "local vs global master equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser(
        "point", parents=[params, approach, output], help="evaluate one parameter set"
    )
    p_point.set_defaults(handler=_cmd_grid, axis1=None, axis2=None)

    p_sweep = sub.add_parser(
        "sweep", parents=[params, approach, output], help="sweep one or two parameters"
    )
    p_sweep.add_argument(
        "--axis1", required=True, help="swept axis as name:start:stop:count:lin|log"
    )
    p_sweep.add_argument("--axis2", help="optional second axis, same format")
    p_sweep.set_defaults(handler=_cmd_grid)

    for name, preset, doc in (
        ("fig2", preset_fig2, "local entropy-production sign map over (omega_h, T_h)"),
        ("fig3", preset_fig3, "coupling sweep comparing both treatments"),
        ("fig4", preset_fig4, "omega_h sweep through resonance, both treatments"),
    ):
        p = sub.add_parser(name, parents=[output], help=doc)
        p.set_defaults(handler=lambda args, preset=preset: preset())
    return parser


def _cmd_grid(args: argparse.Namespace) -> tuple[tuple[str, ...], list[Block]]:
    # `point` has no axis, `sweep` one or two; an empty --axis2 means none
    axes = [parse_axis(spec) for spec in (args.axis1, args.axis2 or None) if spec is not None]
    blocks = sweep_blocks(_params_from_args(args), axes, _approaches_from_args(args), args.nmax)
    return COLUMNS, blocks


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        columns, blocks = args.handler(args)
    except (ValueError, HeatNetError) as exc:
        # Bad config files, malformed axis specs and parameters outside the
        # domain (base or swept) are usage errors; a valid point that fails
        # to solve lands in the error column instead.
        print(f"qheatnet: error: {exc}", file=sys.stderr)
        return 2
    render = render_gnuplot if args.gnuplot else render_csv
    _write_output(render(columns, blocks), args.out)
    return 0
