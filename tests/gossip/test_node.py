"""Tests for the gossip node's protocol semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.gossip.node import GossipNode


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_node(node_id="a", members=("a", "b", "c"), t_gossip=1.0,
              t_fail=5.0, sent=None, seed=0, clock=None):
    sent = sent if sent is not None else []
    clock = clock or Clock()
    node = GossipNode(
        node_id=node_id,
        members=list(members),
        t_gossip=t_gossip,
        t_fail=t_fail,
        send=lambda d, v: sent.append((d, dict(v))),
        rng=np.random.default_rng(seed),
        now=clock,
    )
    return node, sent, clock


class TestValidation:
    def test_parameters(self):
        with pytest.raises(InvalidParameterError):
            make_node(t_gossip=0.0)
        with pytest.raises(InvalidParameterError):
            make_node(t_fail=0.5, t_gossip=1.0)  # t_fail <= t_gossip
        with pytest.raises(InvalidParameterError):
            make_node(node_id="zz")
        with pytest.raises(InvalidParameterError):
            make_node(members=("a",))
        with pytest.raises(InvalidParameterError):
            make_node(members=("a", "a", "b"))


class TestProtocol:
    def test_round_increments_and_sends_full_vector(self):
        node, sent, clock = make_node()
        clock.t = 3.0
        peer = node.gossip_round()
        assert peer in ("b", "c")
        assert len(sent) == 1
        dst, vector = sent[0]
        assert dst == peer
        assert vector == {"a": 1, "b": 0, "c": 0}
        assert node.vector["a"].last_increase == 3.0

    def test_merge_takes_entrywise_max(self):
        node, _, clock = make_node()
        clock.t = 1.0
        node.receive({"b": 5, "c": 2})
        clock.t = 2.0
        node.receive({"b": 3, "c": 7})  # b stale, c fresh
        assert node.vector["b"].counter == 5
        assert node.vector["b"].last_increase == 1.0
        assert node.vector["c"].counter == 7
        assert node.vector["c"].last_increase == 2.0

    def test_unknown_member_learned_from_gossip(self):
        node, _, clock = make_node()
        node.receive({"d": 4})
        assert node.vector["d"].counter == 4

    def test_suspicion_by_staleness(self):
        node, _, clock = make_node(t_fail=5.0)
        clock.t = 1.0
        node.receive({"b": 1})
        clock.t = 5.9
        assert not node.suspects("b")
        clock.t = 6.1
        assert node.suspects("b")
        assert node.suspicion_flip_time("b") == pytest.approx(6.0)

    def test_never_suspects_self(self):
        node, _, clock = make_node(t_fail=5.0)
        clock.t = 100.0
        assert not node.suspects("a")
        assert "a" not in node.suspected_set()

    def test_crashed_node_is_inert(self):
        node, sent, clock = make_node()
        node.crashed = True
        assert node.gossip_round() is None
        node.receive({"b": 9})
        assert node.vector["b"].counter == 0
        assert sent == []

    def test_peer_selection_uniformish(self):
        node, sent, clock = make_node(members=("a", "b", "c", "d"), seed=7)
        for _ in range(3000):
            node.gossip_round()
        counts = {}
        for dst, _v in sent:
            counts[dst] = counts.get(dst, 0) + 1
        for dst in ("b", "c", "d"):
            assert counts[dst] == pytest.approx(1000, rel=0.15)


class TestDigestPlane:
    def test_plain_payloads_until_first_digest(self):
        node, sent, clock = make_node()
        node.gossip_round()
        # No digests yet: the wire payload stays a plain counters dict
        # (backward compatible with pre-digest receivers).
        _, payload = sent[0]
        assert payload == {"a": 1, "b": 0, "c": 0}

    def test_publish_bumps_version_and_rides_on_rounds(self):
        node, sent, clock = make_node()
        v1 = node.publish_digest({"shard": "x"})
        v2 = node.publish_digest({"shard": "y"})
        assert v2 == v1 + 1
        node.gossip_round()
        _, payload = sent[-1]
        assert payload["counters"]["a"] == 1
        assert payload["digests"]["a"] == (v2, {"shard": "y"})

    def test_digest_source_refreshes_each_round(self):
        node, sent, clock = make_node()
        blobs = iter(["first", "second"])
        node.digest_source = lambda: next(blobs)
        node.gossip_round()
        node.gossip_round()
        version, blob = node.digest("a")
        assert blob == "second"
        assert version == 2

    def test_receive_merges_by_highest_version(self):
        node, _, clock = make_node()
        node.receive({"counters": {"b": 1}, "digests": {"b": (3, "new")}})
        node.receive({"counters": {"b": 2}, "digests": {"b": (2, "old")}})
        assert node.digest("b") == (3, "new")
        # Counters still merged entrywise-max from the composite form.
        assert node.vector["b"].counter == 2

    def test_on_digest_fires_only_for_strictly_newer(self):
        node, _, clock = make_node()
        seen = []
        node.on_digest = lambda origin, version, blob: seen.append(
            (origin, version, blob)
        )
        node.receive({"counters": {}, "digests": {"b": (1, "x")}})
        node.receive({"counters": {}, "digests": {"b": (1, "x")}})
        node.receive({"counters": {}, "digests": {"b": (2, "y")}})
        assert seen == [("b", 1, "x"), ("b", 2, "y")]

    def test_own_digest_never_overwritten_by_gossip(self):
        node, _, clock = make_node()
        node.publish_digest("mine")
        node.receive({"counters": {}, "digests": {"a": (99, "echo")}})
        version, blob = node.digest("a")
        assert blob == "mine"
        # ...but the version floor rises so the next publish dominates
        # any echo still circulating.
        assert node.publish_digest("mine2") > 99
