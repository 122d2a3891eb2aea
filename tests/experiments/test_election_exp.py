"""Tests for the E17 election-QoS-vs-detector-QoS driver."""

from __future__ import annotations

import math

import pytest

from repro.experiments.cli import _EXPERIMENTS
from repro.experiments.election_exp import ElectionSettings, run_election_qos
from tests.reference import hosted


def small_settings():
    # Three processes and a short horizon keep the driver seconds-fast
    # while still crossing every crash/recovery episode of both
    # scenarios (the episodes are scheduled at fractions of the
    # horizon, all past the 20-time-unit warmup).
    return ElectionSettings(names=("p0", "p1", "p2"), horizon=160.0)


def cell(value):
    """E17 cells are pre-formatted by ``fmt``; parse them back."""
    return float(str(value).strip())


@pytest.fixture(scope="module")
def tables():
    return run_election_qos(settings=small_settings())


class TestTables:
    def test_two_tables_one_row_per_detector(self, tables):
        assert len(tables) == 2
        n_detectors = len(small_settings().detectors())
        for table in tables:
            assert len(table.rows) == n_detectors
            assert table.column("detector") == [
                "NFD-S",
                "NFD-U",
                "NFD-E",
                "NFD-S (Thm 5)",
            ]

    def test_titles_name_the_scenarios(self, tables):
        churn, faults = tables
        assert "churn" in churn.title
        assert "faults" in faults.title

    def test_detection_time_tracks_prediction(self, tables):
        for table in tables:
            for predicted, measured in zip(
                table.column("T_D pred"), table.column("T_D meas")
            ):
                predicted, measured = cell(predicted), cell(measured)
                assert math.isfinite(measured)
                # Measured detection cannot beat the freshness bound by
                # much, nor blow past it: same currency, same scale.
                assert 0.0 < measured <= predicted + 1e-9

    def test_election_latency_tracks_detection_time(self, tables):
        for table in tables:
            for measured, lat_max in zip(
                table.column("T_D meas"), table.column("lat max")
            ):
                # The elector reads its local detector: repair after a
                # real leader crash is one local detection, so even the
                # worst latency stays within the detector's worst case
                # (eta + the freshness bound covers send-phase offset).
                s = small_settings()
                assert cell(lat_max) <= cell(measured) + s.eta + 1e-9

    def test_churn_scenario_measures_leader_crashes(self, tables):
        churn, _ = tables
        for lat_mean in churn.column("lat mean"):
            assert math.isfinite(cell(lat_mean))

    def test_contract_detector_is_most_stable(self, tables):
        # The Theorem 5 configuration trades detection speed for
        # mistake recurrence; the consumer sees that as the lowest
        # spurious-demotion rate (zero demotions ⇒ stability is nan,
        # which is why the rate is the robust column to pin).
        for table in tables:
            spur = [cell(v) for v in table.column("spur/1k")]
            assert spur[-1] == min(spur)

    def test_correct_leader_fraction_is_a_percentage(self, tables):
        for table in tables:
            for value in table.column("correct%"):
                assert 0.0 <= cell(value) <= 100.0

    def test_notes_explain_the_columns(self, tables):
        for table in tables:
            assert len(table.notes) == 2


class ReferenceHosted(ElectionSettings):
    """The same detectors, each in its own per-detector host."""

    def detectors(self):
        return [
            (label, lambda m, subj, f=factory: hosted("object", f(m, subj)), *rest)
            for label, factory, *rest in super().detectors()
        ]


class TestEngineParityAndCLI:
    def test_all_rows_match_reference_hosts(self, tables):
        # Bit-identical transitions *and* same-instant publication order
        # are the SoA engine's hard correctness bar
        # (tests/service/test_soa_identity.py); the election layer must
        # preserve that identity end to end, for every detector row —
        # the elector's output is a function of the event order.
        s = small_settings()
        reference = run_election_qos(
            settings=ReferenceHosted(names=s.names, horizon=s.horizon)
        )
        for ref, table in zip(reference, tables):
            assert ref.title == table.title
            assert ref.rows == table.rows

    def test_registered_in_cli(self):
        assert "election" in _EXPERIMENTS
