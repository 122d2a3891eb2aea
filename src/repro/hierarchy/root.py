"""Root tier: merge digests and expose per-sender S/T output traces.

The root's output for a sender composes two verdicts:

* the **merged status** from the digest plane — the owning leaf's
  trust bit under the versioned lattice merge; and
* the **leaf liveness mask** — while the owning leaf is itself
  suspected on the gossip plane (its counters stale at the root), every
  sender it owns is suspected: a silent leaf can vouch for nobody.

Both inputs are event-driven (digest application, plane watch
transitions), so the root records exact transition times into the same
:class:`~repro.metrics.transitions.OutputTrace` surface the paper's QoS
metrics are defined on — T_D, T_MR and T_M *as seen at the root* come
out of the standard estimators unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import InvalidParameterError
from repro.hierarchy.digest import DigestBook, ShardDigest
from repro.metrics.transitions import SUSPECT, TRUST, OutputTrace

__all__ = ["RootAggregator"]


class RootAggregator:
    """The digest consumer at the top of a monitoring tree."""

    def __init__(
        self,
        root_id: str,
        now: Callable[[], float],
        shard_of: Optional[Dict[str, str]] = None,
    ) -> None:
        self.root_id = root_id
        self._now = now
        self.book = DigestBook()
        #: static shard assignment (sender -> leaf id); senders learned
        #: dynamically from digests fall back to the digest's origin.
        self._shard_of: Dict[str, str] = dict(shard_of or {})
        self._traces: Dict[str, OutputTrace] = {}
        self._state: Dict[str, str] = {}
        self._stale_leaves: set = set()
        self.digests_applied = 0
        self.status_changes = 0
        #: optional hook called as ``(sender, time, output)`` on every
        #: recorded root transition.
        self.on_transition: Optional[Callable[[str, float, str], None]] = None

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def expect(self, name: str) -> None:
        """Pre-register a sender so its trace starts now (output S).

        The paper's convention: a monitor suspects a process until the
        first evidence of life — here, the first digest reporting it
        trusted.
        """
        if name in self._traces:
            raise InvalidParameterError(f"sender {name!r} already expected")
        self._traces[name] = OutputTrace(
            start_time=self._now(), initial_output=SUSPECT
        )
        self._state[name] = SUSPECT

    def owner_of(self, name: str) -> Optional[str]:
        return self._shard_of.get(name) or self.book.owner(name)

    @property
    def sender_names(self) -> tuple:
        return tuple(sorted(self._traces))

    @property
    def stale_leaves(self) -> frozenset:
        return frozenset(self._stale_leaves)

    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #

    def apply_digest(self, digest: ShardDigest) -> List[str]:
        """Merge one digest and re-evaluate the senders it changed."""
        now = self._now()
        changed = self.book.apply(digest)
        self.digests_applied += 1
        self.status_changes += len(changed)
        for name in changed:
            self._reevaluate(name, now)
        return changed

    def set_leaf_state(self, leaf_id: str, output: str) -> None:
        """Feed a gossip-plane watch transition for a leaf.

        ``output`` follows the trace convention: ``"S"`` marks the leaf
        stale (all its senders become suspected at the root), ``"T"``
        lifts the mask and the merged book's verdicts show through
        again.
        """
        now = self._now()
        if output == SUSPECT:
            self._stale_leaves.add(leaf_id)
        else:
            self._stale_leaves.discard(leaf_id)
        for name in self._senders_of(leaf_id):
            self._reevaluate(name, now)

    def _senders_of(self, leaf_id: str) -> Iterable[str]:
        static = [n for n, l in self._shard_of.items() if l == leaf_id]
        if static:
            return static
        return self.book.senders_owned_by(leaf_id)

    # ------------------------------------------------------------------ #
    # Output surface
    # ------------------------------------------------------------------ #

    def _desired_output(self, name: str) -> str:
        status = self.book.status(name)
        if status is None or not status.present or not status.trusted:
            return SUSPECT
        owner = self.owner_of(name)
        if owner is not None and owner in self._stale_leaves:
            return SUSPECT
        return TRUST

    def _reevaluate(self, name: str, now: float) -> None:
        trace = self._traces.get(name)
        if trace is None:
            # First sighting of a dynamically learned sender: its trace
            # starts at discovery (initial S, per the paper).
            trace = OutputTrace(start_time=now, initial_output=SUSPECT)
            self._traces[name] = trace
            self._state[name] = SUSPECT
        desired = self._desired_output(name)
        if desired != self._state[name]:
            self._state[name] = desired
            trace.record(now, desired)
            if self.on_transition is not None:
                self.on_transition(name, now, desired)

    def output(self, name: str) -> str:
        try:
            return self._state[name]
        except KeyError:
            raise InvalidParameterError(
                f"unknown sender {name!r} at root {self.root_id!r}"
            ) from None

    def trusted_set(self) -> frozenset:
        return frozenset(n for n, s in self._state.items() if s == TRUST)

    def suspected_set(self) -> frozenset:
        return frozenset(n for n, s in self._state.items() if s == SUSPECT)

    def finish(self, end_time: Optional[float] = None) -> Dict[str, OutputTrace]:
        """Close and return every sender's root-level output trace."""
        end = self._now() if end_time is None else float(end_time)
        return {
            name: trace.close(end) for name, trace in self._traces.items()
        }
