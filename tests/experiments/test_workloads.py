"""Tests for the network-profile library and the profile-cost study."""

from __future__ import annotations

import math

import pytest

from repro.experiments.profile_costs import run_profile_costs
from repro.experiments.workloads import PROFILES
from repro.metrics.qos import QoSRequirements


class TestProfiles:
    def test_expected_profiles_present(self):
        for name in (
            "paper-section7",
            "lan",
            "wan",
            "intercontinental",
            "congested",
            "bursty",
            "satellite",
        ):
            assert name in PROFILES

    def test_paper_profile_matches_section7(self):
        p = PROFILES["paper-section7"]
        assert p.mean_delay == pytest.approx(0.02)
        assert p.loss_probability == pytest.approx(0.01)
        assert p.var_delay == pytest.approx(4e-4)

    def test_profiles_have_valid_moments(self):
        for p in PROFILES.values():
            assert p.mean_delay > 0
            assert p.var_delay >= 0
            assert 0 <= p.loss_probability < 1
            assert p.note

    def test_ordering_of_latency_classes(self):
        assert PROFILES["lan"].mean_delay < PROFILES["wan"].mean_delay
        assert PROFILES["wan"].mean_delay < PROFILES["satellite"].mean_delay

    def test_profiles_sampleable(self, rng):
        for p in PROFILES.values():
            s = p.delay.sample(rng, 2000)
            assert s.mean() == pytest.approx(p.mean_delay, rel=0.25)


class TestProfileCosts:
    def test_all_profiles_rowed(self):
        table = run_profile_costs()
        assert len(table.rows) == len(PROFILES)

    def test_section5_never_cheaper(self):
        table = run_profile_costs()
        for row in table.rows:
            known, unknown = row[3], row[4]
            if not (math.isnan(known) or math.isnan(unknown)):
                assert known >= unknown - 1e-9

    def test_impossible_contract_marked_nan(self):
        """A sub-delay detection bound on the satellite link is
        unachievable by any detector (Theorem 7 case 2)."""
        strict = QoSRequirements(0.2, 3600.0, 1.0)  # < 240 ms floor
        table = run_profile_costs(strict, profiles=["satellite"])
        assert math.isnan(table.rows[0][3])

    def test_lan_cheapest(self):
        table = run_profile_costs()
        by_name = {r[0]: r for r in table.rows}
        lan_eta = by_name["lan"][3]
        for name, row in by_name.items():
            if name != "lan" and not math.isnan(row[3]):
                assert lan_eta >= row[3] - 1e-9
