"""Tests for the experiment plumbing (tables, settings)."""

from __future__ import annotations

import math

import pytest

from repro.experiments.common import FIG12_SETTINGS, ExperimentTable, fmt


class TestFig12Settings:
    def test_paper_values(self):
        s = FIG12_SETTINGS
        assert s.eta == 1.0
        assert s.loss_probability == 0.01
        assert s.mean_delay == 0.02
        assert s.var_delay == pytest.approx(4e-4)
        assert s.cutoff_large == pytest.approx(8 * s.mean_delay)
        assert s.cutoff_small == pytest.approx(4 * s.mean_delay)
        assert s.nfde_window == 32

    def test_tdu_grid_spans_paper_range(self):
        grid = FIG12_SETTINGS.tdu_grid(6)
        assert grid[0] == 1.0
        assert grid[-1] == 3.5
        assert len(grid) == 6


class TestExperimentTable:
    def test_add_row_validates_arity(self):
        t = ExperimentTable(title="t", columns=["a", "b"])
        t.add_row(1, 2)
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_column_access(self):
        t = ExperimentTable(title="t", columns=["a", "b"])
        t.add_row(1, 2)
        t.add_row(3, 4)
        assert t.column("b") == [2, 4]

    def test_text_rendering(self):
        t = ExperimentTable(title="My Table", columns=["x", "value"])
        t.add_row(1.0, 1.23456789e7)
        t.add_note("hello")
        text = t.to_text()
        assert "My Table" in text
        assert "1.235e+07" in text
        assert "note: hello" in text

    def test_save(self, tmp_path):
        t = ExperimentTable(title="t", columns=["a"])
        t.add_row(1)
        path = tmp_path / "sub" / "t.txt"
        t.save(path)
        assert path.read_text().startswith("t\n")

    def test_fmt_special_values(self):
        assert fmt(None).strip() == "-"
        assert fmt(math.nan).strip() == "nan"
        assert fmt(math.inf).strip() == "inf"
        assert fmt(0.5).strip() == "0.5000"
        assert fmt(1e-9).strip() == "1e-09"
