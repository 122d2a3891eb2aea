"""Namespaced, collision-free RNG stream derivation.

Every random stream in the simulation layer is keyed by a three-word
entropy tuple ``(seed, STREAM_TAG, index)`` fed to
:class:`numpy.random.SeedSequence`:

* ``seed`` — the experiment's base seed (``SimulationConfig.seed``);
* ``STREAM_TAG`` — a constant identifying the *shape* of the stream
  (failure-free run, crash run, crash-time draw, ...);
* ``index`` — the run/point index within that shape.

Why the tag word is load-bearing: the previous scheme derived
failure-free run *j* from ``SeedSequence([seed, j])`` and crash run *i*
from ``SeedSequence([seed, i + 1])``, so crash run 0 and failure-free
run 1 consumed the *same* random stream — correlating the detection-time
and accuracy estimates that the paper treats as independent.  Similarly
the crash-time draw used ``[seed, 0xC4A54]``, which collides with crash
run ``i = 0xC4A53``.  With a distinct tag in the middle word, streams of
different shapes can never share a key, and streams of the same shape
differ in the index word — the key sets are disjoint by construction for
*all* indices, not just the ones any one experiment happens to use.

This is the same guarantee ``SeedSequence.spawn`` provides, but keyed by
the *absolute* run index rather than by spawn order, which is what makes
parallel execution (:mod:`repro.sim.parallel`) bit-identical to serial:
a run's stream depends only on ``(seed, tag, index)``, never on which
worker or chunk computed it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import InvalidParameterError

__all__ = [
    "STREAM_FAILURE_FREE",
    "STREAM_CRASH_RUN",
    "STREAM_CRASH_TIMES",
    "STREAM_FASTSIM",
    "STREAM_FAULTS",
    "STREAM_LIVE",
    "STREAM_WAN_CONGESTION",
    "stream_key",
    "seed_sequence",
    "derive_rng",
]

# Stream shape tags.  Values are arbitrary but pinned: changing any of
# them silently changes every derived stream, so they are asserted
# verbatim in tests/sim/test_parallel.py.
STREAM_FAILURE_FREE = 0xF1EE  # failure-free (accuracy) runs, by run index
STREAM_CRASH_RUN = 0xC0DE  # crash (detection-time) runs, by run index
STREAM_CRASH_TIMES = 0xC4A54  # the one-shot crash-time vector draw
STREAM_FASTSIM = 0xFA57  # vectorized simulators, by sweep-point index
STREAM_FAULTS = 0xFA17  # fault-injection draws (dup/reorder), by run index
STREAM_LIVE = 0x11FE  # live-runtime loopback links, by peer index
STREAM_WAN_CONGESTION = 0xC09E  # WAN latent congestion episodes, by run index


def stream_key(seed: int, stream: int, index: int = 0) -> Tuple[int, int, int]:
    """The entropy key for one stream; distinct for every (shape, index)."""
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    if stream < 0:
        raise InvalidParameterError(f"stream tag must be >= 0, got {stream}")
    if index < 0:
        raise InvalidParameterError(f"stream index must be >= 0, got {index}")
    return (int(seed), int(stream), int(index))


def seed_sequence(
    seed: int, stream: int, index: int = 0
) -> np.random.SeedSequence:
    """A :class:`~numpy.random.SeedSequence` for one namespaced stream."""
    return np.random.SeedSequence(stream_key(seed, stream, index))


def derive_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """An independent generator for one namespaced stream."""
    return np.random.default_rng(seed_sequence(seed, stream, index))
