"""Tests for the shard-digest merge semantics (the join-semilattice)."""

from __future__ import annotations

import itertools

import pytest

from repro.hierarchy.digest import (
    DigestBook,
    SenderStatus,
    ShardDigest,
    dominates,
)


def st(trusted=True, incarnation=0, version=1, since=0.0, present=True):
    return SenderStatus(
        trusted=trusted,
        incarnation=incarnation,
        version=version,
        since=since,
        present=present,
    )


class TestMergeLattice:
    def test_incarnation_dominates_version(self):
        old = st(incarnation=0, version=100, trusted=False)
        new = st(incarnation=1, version=1, trusted=True)
        assert dominates(new, old)

    def test_version_orders_within_incarnation(self):
        v1 = st(version=1, trusted=True)
        v2 = st(version=2, trusted=False)
        assert dominates(v2, v1)
        assert not dominates(v1, v2)


class TestDigestBook:
    def _digest(self, origin, version, statuses, at=0.0):
        return ShardDigest(
            origin=origin,
            version=version,
            published_at=at,
            statuses=statuses,
        )

    def test_apply_reports_semantic_changes_only(self):
        book = DigestBook()
        d1 = self._digest("L0", 1, {"s0": st(trusted=True, version=1)})
        assert book.apply(d1) == ["s0"]
        # Same key re-applied: no change.
        assert book.apply(d1) == []
        # Higher version, same trust bit: the merge advances but the
        # sender's S/T view did not change.
        d2 = self._digest("L0", 2, {"s0": st(trusted=True, version=2)})
        assert book.apply(d2) == []
        # Trust flip does change.
        d3 = self._digest("L0", 3, {"s0": st(trusted=False, version=3)})
        assert book.apply(d3) == ["s0"]
        assert book.suspected_set() == frozenset({"s0"})

    def test_out_of_order_digests_cannot_regress(self):
        book = DigestBook()
        new = self._digest("L0", 5, {"s0": st(trusted=False, version=9)})
        old = self._digest("L0", 2, {"s0": st(trusted=True, version=3)})
        book.apply(new)
        assert book.apply(old) == []
        assert book.status("s0").version == 9

    def test_delivery_order_irrelevant(self):
        digests = [
            self._digest("L0", 1, {"s0": st(version=1), "s1": st(version=1)}),
            self._digest("L0", 2, {"s0": st(version=2, trusted=False)}),
            self._digest("L1", 1, {"s2": st(version=1, trusted=False)}),
            self._digest("L1", 2, {"s2": st(version=2, incarnation=1)}),
        ]
        views = set()
        for perm in itertools.permutations(digests):
            book = DigestBook()
            for i, d in enumerate(perm):
                book.apply(d)
            views.add(
                (
                    book.trusted_set(),
                    book.suspected_set(),
                    tuple(book.status(n) for n in book.senders()),
                )
            )
        assert len(views) == 1

    def test_tombstone_removes_from_both_sets(self):
        book = DigestBook()
        book.apply(self._digest("L0", 1, {"s0": st(version=1)}))
        changed = book.apply(
            self._digest("L0", 2, {"s0": st(version=2, present=False)})
        )
        assert changed == ["s0"]
        assert book.trusted_set() == frozenset()
        assert book.suspected_set() == frozenset()
        assert book.status("s0").present is False

    def test_ownership_tracks_advancing_origin(self):
        book = DigestBook()
        book.apply(self._digest("L0", 1, {"s0": st(version=1)}))
        assert book.owner("s0") == "L0"
        assert book.senders_owned_by("L0") == ("s0",)

    def test_republish_is_transparent_to_the_merge(self):
        # Two leaves -> mid-tier book -> republished digest -> root book
        # must equal merging the leaf digests at the root directly.
        leaf_digests = [
            self._digest(
                "L0", 3, {"s0": st(version=4, trusted=False), "s1": st(version=2)}
            ),
            self._digest(
                "L1", 2, {"s2": st(version=1, incarnation=2)}
            ),
        ]
        mid = DigestBook()
        for d in leaf_digests:
            mid.apply(d)
        # An aggregator tier re-publishes its merged book as its own
        # digest; per-sender statuses keep their (incarnation, version)
        # keys, so the upstream merge is the same lattice join.
        republished = ShardDigest(
            origin="M0",
            version=1,
            published_at=2.0,
            statuses={n: mid.status(n) for n in mid.senders()},
        )

        via_mid = DigestBook()
        via_mid.apply(republished)

        direct = DigestBook()
        for d in leaf_digests:
            direct.apply(d)

        assert via_mid.trusted_set() == direct.trusted_set()
        assert via_mid.suspected_set() == direct.suspected_set()
        for name in direct.senders():
            assert via_mid.status(name) == direct.status(name)


class TestPackedSize:
    def test_size_grows_linearly_and_stays_compact(self):
        def digest_of(n):
            return ShardDigest(
                origin="L0",
                version=1,
                published_at=0.0,
                statuses={f"s{i}": st(version=1) for i in range(n)},
            )

        empty = digest_of(0).packed_size_bytes()
        assert empty == 16
        d100 = digest_of(100).packed_size_bytes()
        # ~12.25 bytes/sender: two orders of magnitude below re-sending
        # the shard's heartbeat stream.
        assert d100 - empty == pytest.approx(100 * 12.25, rel=0.05)
