"""The vectorised %.17g kernel against CPython's own conversion, byte for byte."""

import math
import sys

import numpy as np

from qheatnet import _format17
from qheatnet._format17 import format_floats


def _powers_of_ten_and_neighbours() -> list[float]:
    cells = []
    for k in range(-300, 301):
        power = float(f"1e{k}")  # 10**k correctly rounded
        cells += [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
    return cells


def _targeted_cells() -> list[float]:
    fast_ends = []
    for end in (_format17._LOW, _format17._HIGH):
        fast_ends += [end, math.nextafter(end, 0.0), math.nextafter(end, math.inf)]
    # each is just below 10**k and rounds up to it in 17 digits
    round_up = [1e-305, 1e-243, 1e-176, 1e-14, 1e98, 1e129, 1e220]
    for cell in round_up:
        num, den = cell.as_integer_ratio()
        k = int(f"{cell:e}".split("e")[1])
        assert num * 10 ** max(-k, 0) < den * 10 ** max(k, 0)
        assert "%.17g" % cell == f"1e{k:+03d}"
    cells = [
        0.0, 5e-324, sys.float_info.min, *fast_ends, *round_up, *_powers_of_ten_and_neighbours(),
        123456789012345.625, 123456789012345.875,  # exact ties: half-even gives .62, .88
        83529798150037440.0, 1e16, 1e15, 100.0, 1234.5, 0.5, 0.1,  # zeros kept, then stripped
        math.nan, math.inf,
    ]
    return cells + [-cell for cell in cells]


def _random_cells(count: int, seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64)
    # short decimals: every digit count and both notations
    short = rng.integers(1, 10**6, size=count // 4) * 10.0 ** rng.integers(-25, 25, size=count // 4)
    return bits[np.isfinite(bits)].tolist() + short.tolist()


def test_the_kernel_prints_what_percent_17g_prints():
    cells = _targeted_cells() + _random_cells(100_000, seed=33)
    got = format_floats(cells)
    want = ["%.17g" % cell for cell in cells]
    wrong = [(cell, g, w) for cell, g, w in zip(cells, got, want) if g != w]
    assert not wrong, wrong[:10]
