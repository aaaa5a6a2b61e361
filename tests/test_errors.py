"""Tests for errors.by_row: one failing row fails alone, results come back as columns."""

import pytest

from qheatnet.errors import GaplessSpectrum, HeatNetError, RateOverflow, by_row


def _divide(a, b):
    if b == 0:
        raise RateOverflow(f"{a}/0")
    return a / b, a * b


def test_a_failing_row_gets_the_failed_values_and_its_error():
    columns, errors = by_row(_divide, ([1.0, 2.0, 3.0], [2.0, 0.0, 4.0]), (None, None))
    assert columns == [[0.5, None, 0.75], [2.0, None, 12.0]]
    assert errors[0] is None and errors[2] is None
    assert type(errors[1]) is RateOverflow and errors[1].args == ("2.0/0",)


def test_only_the_expected_errors_are_caught():
    with pytest.raises(ZeroDivisionError):
        by_row(lambda a: (1 / a,), ([1.0, 0.0],), (None,))
    # a HeatNetError outside `expected` propagates too
    with pytest.raises(RateOverflow):
        by_row(_divide, ([1.0], [0.0]), (None, None), expected=GaplessSpectrum)
    columns, errors = by_row(_divide, ([1.0], [0.0]), (None, None), expected=HeatNetError)
    assert columns == [[None], [None]] and type(errors[0]) is RateOverflow


def test_rows_shorter_than_failed_cut_the_columns_to_the_common_width():
    # like the oracle's two-level rows, which stop before the mode populations
    def values(a):
        if a < 0:
            raise GaplessSpectrum("negative")
        return (a, 2 * a) if a < 10 else (a, 2 * a, 3 * a)

    columns, errors = by_row(values, ([1, 20, -1],), (None,) * 3)
    assert columns == [[1, 20, None], [2, 40, None]]
    assert [type(e) for e in errors] == [type(None), type(None), GaplessSpectrum]
    columns, _ = by_row(values, ([20, -1],), (None,) * 3)
    assert columns == [[20, None], [40, None], [60, None]]


def test_empty_input_gives_one_empty_column_per_failed_value():
    columns, errors = by_row(_divide, ([], []), (None, None, None))
    assert columns == [[], [], []] and errors == []
