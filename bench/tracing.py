"""Per-layer spans, recorded from outside the program.

Each layer is a package module.  The tracer wraps the module's public
functions and installs every wrapper wherever a caller looks the name up: a
function that other modules import by name (`validate`, `normal_mode_basis`,
`correlations`, ...) is rebound in each of those modules' namespaces too.

Spans live in flat in-memory arrays (layer, parent span, start, end in ns)
while the run lasts and are written out at its end.  A layer's self time is
the sum of its spans' durations minus the parts its child spans cover.
"""

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

from qheatnet.errors import DegenerateNullspace, NonConvergence, TruncationTooSmall

_GUARD_ERRORS = (TruncationTooSmall, NonConvergence, DegenerateNullspace)

# layer -> the (module, function) pairs whose spans it sums
LAYERS = {
    "bath.rate": (("bath", "rate"),),
    "model.validate": (("model", "validate"),),
    "model.normal_mode_basis": (("model", "normal_mode_basis"),),
    "local_mme.steady_state": (("local_mme", "steady_state"),),
    "local_mme.affine_system": (("local_mme", "affine_system"),),
    "local_mme.heat_current_closed_form": (("local_mme", "heat_current_closed_form"),),
    "global_mme.steady_state": (("global_mme", "steady_state"),),
    "gaussian.covariance_local": (("gaussian", "covariance_local"),),
    "gaussian.covariance_global": (("gaussian", "covariance_global"),),
    "gaussian.correlations": (("gaussian", "correlations"),),
    "gaussian.symplectic_eigenvalues": (("gaussian", "symplectic_eigenvalues"),),
    "oracle.build": (("oracle", "build"),),
    # factorize, solve and the residual/positivity/occupancy guards
    "oracle.steady_state": (("oracle", "steady_state"),),
    "oracle.observables": (
        ("oracle", "moments"),
        ("oracle", "heat_current"),
        ("oracle", "mode_populations"),
        ("oracle", "quadrature_covariance"),
    ),
    "cli.run_point": (("cli", "run_point"),),
    "cli.sweep_blocks": (("cli", "sweep_blocks"),),
    "cli.render": (("cli", "render_csv"), ("cli", "render_gnuplot")),
    "cli.main": (("cli", "main"),),
}

COUNTS = (
    "oracle.unknowns",
    "oracle.generator_nnz",
    "oracle.guard_rejects",
    "cli.rows",
    "cli.error_rows",
    "cli.render_bytes",
)


class Tracer:
    """Wraps the layers' functions; records spans while `recording` is set."""

    def __init__(self) -> None:
        self.layers = list(LAYERS)
        self.layer = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = dict.fromkeys(COUNTS, 0)
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items() if name == "qheatnet" or name.startswith("qheatnet.")
        ]
        on_result = {
            "oracle.build": self._count_build,
            "cli.run_point": self._count_rows,
            "cli.render": self._count_render,
        }
        on_error = {"oracle.steady_state": self._count_guard}
        for index, (layer, targets) in enumerate(LAYERS.items()):
            for module_name, attr in targets:
                original = getattr(sys.modules[f"qheatnet.{module_name}"], attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(index, original, on_result.get(layer), on_error.get(layer))
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, name, original))
                            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, index: int, fn, on_result, on_error):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = len(start)
            layer.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(span)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end[span] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # --- counts, taken from what the layer returned or raised -----------------

    def _count_build(self, liou) -> None:
        self.counts["oracle.unknowns"] += liou.dimension**2
        self.counts["oracle.generator_nnz"] += liou.generator.nnz

    def _count_guard(self, exc: Exception) -> None:
        if isinstance(exc, _GUARD_ERRORS):
            self.counts["oracle.guard_rejects"] += 1

    def _count_rows(self, rows) -> None:
        self.counts["cli.rows"] += len(rows)
        self.counts["cli.error_rows"] += sum(1 for row in rows if row["error"])

    def _count_render(self, text: str) -> None:
        self.counts["cli.render_bytes"] += len(text)

    # --- results --------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "layers": np.array(self.layers),
            "layer": np.array(self.layer, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
        }

    def layer_times(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds)."""
        spans = self.spans()
        duration = spans["end_ns"] - spans["start_ns"]
        covered = np.zeros_like(duration)
        nested = spans["parent"] >= 0
        np.add.at(covered, spans["parent"][nested], duration[nested])
        calls = np.bincount(spans["layer"], minlength=len(self.layers))
        self_ns = np.bincount(spans["layer"], weights=duration - covered, minlength=calls.size)
        return {name: (int(calls[i]), 1e-9 * float(self_ns[i])) for i, name in enumerate(self.layers)}

    def write(self, path: str) -> None:
        np.savez_compressed(path, **self.spans())
