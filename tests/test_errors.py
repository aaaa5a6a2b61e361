"""Tests for errors.by_row: one failing row fails alone, results come back as named columns."""

import math

import pytest

from qheatnet.errors import GaplessSpectrum, RateOverflow, by_row


def _divide(a, b):
    if b == 0:
        raise RateOverflow(f"{a}/0")
    return a / b, a * b


def test_a_failing_row_holds_nan_in_every_field_and_its_error():
    columns, errors = by_row(_divide, ([1.0, 2.0, 3.0], [2.0, 0.0, 4.0]), ("ratio", "product"))
    assert list(columns) == ["ratio", "product"]
    assert columns["ratio"][::2] == [0.5, 0.75] and columns["product"][::2] == [2.0, 12.0]
    assert math.isnan(columns["ratio"][1]) and math.isnan(columns["product"][1])
    assert errors[0] is None and errors[2] is None
    assert type(errors[1]) is RateOverflow and errors[1].args == ("2.0/0",)


def test_every_heat_net_error_is_caught_and_nothing_else():
    def gapless(a):
        raise GaplessSpectrum(f"at {a}")

    columns, errors = by_row(gapless, ([1.0],), ("value",))
    assert math.isnan(columns["value"][0]) and type(errors[0]) is GaplessSpectrum
    with pytest.raises(ZeroDivisionError):
        by_row(lambda a: (1 / a,), ([1.0, 0.0],), ("inverse",))


def test_empty_input_gives_one_empty_list_per_field():
    columns, errors = by_row(_divide, ([], []), ("a", "b", "c"))
    assert columns == {"a": [], "b": [], "c": []} and errors == []
