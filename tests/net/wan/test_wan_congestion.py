"""Tests for the shared latent congestion processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.net.delays import ExponentialDelay
from repro.net.wan import CongestionField, CongestionProcess, WanTopology
from repro.net.wan.topology import CongestionSpec, pair_key


def topo(n_specs: int = 1) -> WanTopology:
    t = WanTopology()
    for s in ("A", "B", "C"):
        t.add_site(s)
    t.add_link("A", "B", ExponentialDelay(0.01))
    t.add_link("B", "C", ExponentialDelay(0.01))
    if n_specs >= 1:
        t.add_congestion(
            [("A", "B"), ("B", "C")], rate=0.05, mean_duration=4.0, factor=3.0
        )
    if n_specs >= 2:
        t.add_congestion([("A", "B")], rate=0.05, mean_duration=4.0, factor=2.0)
    return t


def spec() -> CongestionSpec:
    return CongestionSpec(
        pairs=(("A", "B"),), rate=0.05, mean_duration=4.0, factor=3.0
    )


class TestCongestionProcess:
    def test_same_seed_same_episodes(self):
        a = CongestionProcess(spec(), np.random.default_rng(7), horizon=500.0)
        b = CongestionProcess(spec(), np.random.default_rng(7), horizon=500.0)
        assert a.episodes == b.episodes

    def test_factor_inside_and_outside_episodes(self):
        p = CongestionProcess(spec(), np.random.default_rng(3), horizon=2000.0)
        assert p.episodes, "expected at least one episode over 2000s"
        start, end = p.episodes[0]
        mid = (start + end) / 2.0
        assert p.factor_at(mid) == pytest.approx(3.0)
        assert p.factor_at(start - 1e-6) == pytest.approx(1.0)
        assert p.factor_at(-1.0) == pytest.approx(1.0)

    def test_long_episode_covers_past_a_later_short_one(self):
        """The prefix-max matters: an early long episode must still mask
        times after a later short episode has ended."""
        p = CongestionProcess.__new__(CongestionProcess)
        p._spec = spec()
        p._episodes = [(10.0, 100.0), (20.0, 25.0)]
        p._starts = [10.0, 20.0]
        p._max_end = [100.0, 100.0]
        assert p.congested(30.0)
        assert p.congested(99.0)
        assert not p.congested(100.0)

    def test_episode_frequency_matches_rate(self):
        p = CongestionProcess(
            spec(), np.random.default_rng(11), horizon=100_000.0
        )
        # Episode starts arrive ~Exp(1/rate): expect rate*horizon of them.
        assert len(p.episodes) == pytest.approx(0.05 * 100_000.0, rel=0.1)

    def test_congested_time_union(self):
        """Overlapping episodes congest their union: covered through
        the later end, free in the gaps."""
        p = CongestionProcess.__new__(CongestionProcess)
        p._spec = spec()
        p._episodes = [(0.0, 10.0), (5.0, 12.0), (20.0, 30.0)]
        p._starts = [0.0, 5.0, 20.0]
        p._max_end = [10.0, 12.0, 30.0]
        covered = [t for t in np.arange(0.0, 50.0, 0.5) if p.congested(t)]
        assert len(covered) * 0.5 == pytest.approx(12.0 + 10.0)
        assert p.congested(11.0) and not p.congested(12.0)
        assert p.congested(20.0) and not p.congested(30.0)

    def test_bad_horizon_rejected(self):
        with pytest.raises(InvalidParameterError):
            CongestionProcess(spec(), np.random.default_rng(0), horizon=0.0)


class TestCongestionField:
    def test_multiple_specs_compound_multiplicatively(self):
        topology = topo(n_specs=2)
        field = CongestionField(topology, np.random.default_rng(5), horizon=5000.0)
        # The field draws its processes in declaration order: the same
        # seed replays them one by one.
        rng = np.random.default_rng(5)
        shared, solo = (
            CongestionProcess(s, rng, horizon=5000.0)
            for s in topology.congestions
        )
        key = pair_key("A", "B")
        ts = np.linspace(0.0, 5000.0, 2000)
        both = [
            t
            for t in ts
            if shared.congested(t) and solo.congested(t)
        ]
        assert both, "expected overlapping episodes somewhere in 5000s"
        t = both[0]
        assert field.factor(key, t) == pytest.approx(3.0 * 2.0)
        # The B-C link loads only on the shared spec.
        assert field.factor(pair_key("B", "C"), t) == pytest.approx(3.0)

    def test_unaffected_link_is_always_one(self):
        t = topo(n_specs=0)
        field = CongestionField(t, np.random.default_rng(5), horizon=100.0)
        assert field.factor(pair_key("A", "B"), 50.0) == pytest.approx(1.0)

    def test_field_is_deterministic_in_the_seed(self):
        a = CongestionField(topo(), np.random.default_rng(9), horizon=1000.0)
        b = CongestionField(topo(), np.random.default_rng(9), horizon=1000.0)
        key = pair_key("A", "B")
        ts = np.linspace(0.0, 1000.0, 4001)
        factors = [a.factor(key, t) for t in ts]
        assert factors == [b.factor(key, t) for t in ts]
        assert 3.0 in factors
