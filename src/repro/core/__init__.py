"""The failure-detector algorithms.

* :class:`NFDS` — the paper's new detector for synchronized clocks
  (Fig. 6): freshness points ``τ_i = σ_i + δ``.
* :class:`NFDU` — unsynchronized drift-free clocks with known expected
  arrival times (Fig. 9): ``τ_i = EA_i + α``.
* :class:`NFDE` — NFD-U with the eq. (6.3) estimate of ``EA_i``; the
  practical algorithm.
* :class:`SimpleFD` — the "common algorithm" baseline (fixed timeout
  restarted on each heartbeat), optionally with the Section 7.2 cutoff.
* :class:`PhiAccrualFD` — the φ-accrual descendant (extension).
* :class:`AdaptiveNFDE` / :class:`AdaptiveController` — Section 8.1
  adaptivity.
"""

from repro.core.adaptive import AdaptiveController, AdaptiveNFDE
from repro.core.jacobson import JacobsonFD
from repro.core.base import DetectorRuntime, Heartbeat, HeartbeatFailureDetector
from repro.core.nfd_e import NFDE, ArrivalTimeEstimator
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU
from repro.core.phi_accrual import PhiAccrualFD
from repro.core.simple import SimpleFD

__all__ = [
    "Heartbeat",
    "DetectorRuntime",
    "HeartbeatFailureDetector",
    "NFDS",
    "NFDU",
    "NFDE",
    "ArrivalTimeEstimator",
    "SimpleFD",
    "PhiAccrualFD",
    "JacobsonFD",
    "AdaptiveNFDE",
    "AdaptiveController",
]
