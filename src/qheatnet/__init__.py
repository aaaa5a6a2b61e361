"""Steady-state heat transport through a two-node network, two ways.

A hot bath drives node A, a cold bath drains node B, and the nodes exchange
excitations with strength epsilon.  The package solves the steady state under
two Markovian treatments: a local one, where each bath addresses its own node
at the bare frequency (cheap, but it can push heat against the temperature
bias), and a global one, acting on the delocalised normal modes, which keeps
the second law intact.  A truncated-Fock brute-force solver, `oracle`, audits
both; it is imported on first use, which keeps its import time off the other
commands' start-up.  It needs numpy alone, as does every command: scipy, a
test-only dependency, serves only its full-space reference `_fock_reference`.
"""

import importlib

from . import bath, cli, gaussian, global_mme, local_mme, model
from .errors import HeatNetError
from .gaussian import CorrelationReport, CovarianceMatrix, correlations
from .global_mme import GlobalSteadyState
from .local_mme import LocalSteadyState, MomentState
from .model import NetworkParams, NormalModeBasis, Statistics, normal_mode_basis

__version__ = "0.1.0"

local_steady_state = local_mme.steady_state
global_steady_state = global_mme.steady_state

__all__ = [
    "CorrelationReport",
    "CovarianceMatrix",
    "GlobalSteadyState",
    "HeatNetError",
    "LocalSteadyState",
    "MomentState",
    "NetworkParams",
    "NormalModeBasis",
    "Statistics",
    "bath",
    "cli",
    "correlations",
    "gaussian",
    "global_mme",
    "global_steady_state",
    "local_mme",
    "local_steady_state",
    "model",
    "normal_mode_basis",
    "oracle",
]


def __getattr__(name: str):
    # importlib rather than `from . import oracle`, which would look the
    # name up on this module again and land back here
    if name == "oracle":
        return importlib.import_module(f"{__name__}.oracle")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
