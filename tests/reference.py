"""Reaching the reference hosts from a test.

The services host a detector in the shared vectorized engine exactly
when :func:`repro.service.soa.supports_detector` accepts it — the exact
types ``NFDS`` / ``NFDU`` / ``NFDE`` — and in the per-detector host
(:class:`~repro.sim.monitor.DetectorHost`,
:class:`~repro.live.runtime.LiveDetectorHost`) otherwise.  A trivial
subclass overrides nothing, so it runs the unmodified :mod:`repro.core`
algorithm there: the oracle every identity test compares the engine
against, reached through the product's own observable selection.
"""

from __future__ import annotations

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU

__all__ = ["RefNFDS", "RefNFDU", "RefNFDE", "HOSTINGS", "hosted"]


class RefNFDS(NFDS):
    pass


class RefNFDU(NFDU):
    pass


class RefNFDE(NFDE):
    pass


_REFERENCE = {NFDS: RefNFDS, NFDU: RefNFDU, NFDE: RefNFDE}

#: where a plain detector runs: ``"object"`` — one core detector object
#: in its own host, the reference — or ``"soa"`` — a row of the engine.
HOSTINGS = ("object", "soa")


def hosted(hosting: str, detector):
    """A fresh plain NFD-S/U/E, left alone for ``"soa"`` and re-classed
    as its trivial subclass for ``"object"``."""
    if hosting == "object":
        detector.__class__ = _REFERENCE[type(detector)]
    else:
        assert hosting == "soa", hosting
    return detector
