"""Shard-status digests and their versioned merge semantics.

The digest plane carries, per leaf monitor, a compact summary of the
shard it watches: one trust bit, one incarnation number, and one status
version per sender, plus a digest-level publish version acting as the
leaf's freshness signal.  Merging is a **join-semilattice**: per sender,
the status with the higher ``(incarnation, version)`` key wins, so
merges are commutative, associative and idempotent — exactly the
property an epidemic substrate needs for copies arriving out of order
along different gossip paths to converge to the same book.  That same
property is what makes the design N-level: an aggregator's merged book,
re-published as a digest of its statuses, merges upstream exactly as
the leaves' own digests would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple


__all__ = ["SenderStatus", "ShardDigest", "DigestBook", "dominates"]


@dataclass(frozen=True)
class SenderStatus:
    """One sender's state as summarized by its owning monitor.

    Attributes:
        trusted: the monitor's current output for the sender (the
            detector's T/S verdict, True = trusted).
        incarnation: the sender's incarnation (restarts bump it;
            footnote 2 of the paper — recovered processes are new
            identities).
        version: monotone per-sender update counter at the owning
            monitor; bumped on every published change *within* an
            incarnation.
        since: monitor-local time of the last status change (the
            freshness summary carried per sender).
        present: False is a tombstone — the sender was administratively
            removed from the shard and upper levels must close its
            trace rather than keep trusting a ghost.
    """

    trusted: bool
    incarnation: int
    version: int
    since: float
    present: bool = True

    @property
    def order_key(self) -> Tuple:
        """Total order used by the merge (higher wins).

        ``(incarnation, version)`` is the semantic key; the trailing
        fields only break ties between byte-different statuses carrying
        the same key (which a correct monitor never emits), keeping the
        merge deterministic and commutative even then.
        """
        return (
            self.incarnation,
            self.version,
            self.since,
            not self.present,
            not self.trusted,
        )


def dominates(a: SenderStatus, b: SenderStatus) -> bool:
    """Whether status ``a`` supersedes ``b`` under the merge order."""
    return a.order_key > b.order_key


@dataclass(frozen=True)
class ShardDigest:
    """One monitor's published summary of its shard.

    ``version`` is the publish sequence number of the *digest* (distinct
    from the per-sender status versions): receivers use it both to merge
    concurrent digest copies (highest wins, handled by the gossip node)
    and as the leaf's freshness heartbeat on the digest plane.
    """

    origin: str
    version: int
    published_at: float
    statuses: Mapping[str, SenderStatus] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.statuses)

    @property
    def suspected(self) -> frozenset:
        return frozenset(
            n
            for n, s in self.statuses.items()
            if s.present and not s.trusted
        )

    @property
    def trusted(self) -> frozenset:
        return frozenset(
            n for n, s in self.statuses.items() if s.present and s.trusted
        )

    def packed_size_bytes(self) -> int:
        """Wire size of the compact encoding, in bytes.

        Accounting model for the budget comparisons (no codec is pulled
        in): a 16-byte header (origin id, digest version, publish time),
        one trust/present bitmap at 2 bits per sender, and per sender a
        4-byte name id, 2-byte incarnation and 4-byte status version;
        ``since`` is delta-encoded against ``published_at`` in 2 bytes.
        """
        n = len(self.statuses)
        return 16 + math.ceil(n / 4) + 12 * n


class DigestBook:
    """An aggregator's merged view of every digest it has seen.

    The book is pure state — no clocks, no traces; the root aggregator
    layers the S/T output surface on top.  ``apply`` returns the names
    whose *merged* status changed, which is what event-driven trace
    recording needs.
    """

    def __init__(self) -> None:
        self._statuses: Dict[str, SenderStatus] = {}
        self._owners: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Merging
    # ------------------------------------------------------------------ #

    def apply(self, digest: ShardDigest) -> List[str]:
        """Merge one digest; returns senders whose merged status changed.

        Out-of-order and duplicate digests are safe: per-sender statuses
        only move up the merge order, so a stale digest carries no sender
        backwards.
        """
        changed: List[str] = []
        for name, status in digest.statuses.items():
            held = self._statuses.get(name)
            if held is None or dominates(status, held):
                self._statuses[name] = status
                self._owners[name] = digest.origin
                if (
                    held is None
                    or held.trusted != status.trusted
                    or held.present != status.present
                    or held.incarnation != status.incarnation
                ):
                    changed.append(name)
        return changed

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def status(self, name: str) -> Optional[SenderStatus]:
        return self._statuses.get(name)

    def owner(self, name: str) -> Optional[str]:
        """The origin whose digest last advanced this sender's status."""
        return self._owners.get(name)

    def senders(self) -> Tuple[str, ...]:
        return tuple(sorted(self._statuses))

    def senders_owned_by(self, origin: str) -> Tuple[str, ...]:
        return tuple(
            sorted(n for n, o in self._owners.items() if o == origin)
        )

    def trusted_set(self) -> frozenset:
        return frozenset(
            n
            for n, s in self._statuses.items()
            if s.present and s.trusted
        )

    def suspected_set(self) -> frozenset:
        return frozenset(
            n
            for n, s in self._statuses.items()
            if s.present and not s.trusted
        )
