"""Tests for the table renderer."""

import pytest

from repro.telemetry import format_value, render_table


class TestFormatValue:
    def test_plain_values(self):
        assert format_value(True) == "True"
        assert format_value("text") == "text"
        assert format_value(0.0) == "0"

    def test_float_precision(self):
        assert format_value(3.14159) == "3.14"
        assert format_value(0.000012) == "1.20e-05"

    def test_thousands_grouping(self):
        assert format_value(123456.7) == "123,457"
        assert format_value(98765) == "98,765"


class TestRenderTable:
    def test_alignment_and_separator(self):
        text = render_table(["name", "value"],
                            [["alpha", 1], ["b", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", "+"}
        # All rows share the same width.
        assert len({len(line) for line in lines[1:]}) == 1

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])
