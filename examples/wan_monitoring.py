#!/usr/bin/env python3
"""WAN monitoring with unsynchronized clocks and unknown network behaviour.

The realistic deployment the paper builds toward in Sections 5-6:

* the monitor's clock is *not* synchronized with the monitored host's
  (constant skew, negligible drift);
* nothing is known about the delay distribution up front;
* so the monitor (1) estimates ``p_L`` and ``V(D)`` from the heartbeat
  stream itself (the variance of receive-minus-timestamp is skew-
  invariant!), (2) runs the Section 6 configurator, and (3) deploys
  NFD-E, which estimates expected arrival times from the last 32
  heartbeats (eq. 6.3).

Run:  python examples/wan_monitoring.py
"""

import numpy as np

from repro import NFDE, ExponentialDelay, LossyLink, SkewedClock, configure_nfdu
from repro.core.base import Heartbeat
from repro.estimation import HeartbeatObserver
from repro.metrics.qos import detection_time, estimate_accuracy
from repro.sim.engine import Simulator
from repro.sim.heartbeat import HeartbeatSender
from repro.sim.monitor import DetectorHost

# The (unknown to the monitor) ground truth.
TRUE_LOSS = 0.02
TRUE_DELAY = ExponentialDelay(0.05)  # 50 ms mean, WAN-ish
CLOCK_SKEW = 7_200.0  # q's clock is two hours ahead
PROBE_ETA = 1.0  # probing period during the estimation phase


def estimate_network(seed: int = 1, n_heartbeats: int = 2_000):
    """Phase 1 — probe the link and estimate (p_L, V(D))."""
    sim = Simulator()
    observer = HeartbeatObserver(eta=PROBE_ETA, stats_window=n_heartbeats)
    q_clock = SkewedClock(CLOCK_SKEW)

    def deliver(seq: int, send_local: float) -> None:
        observer.observe(
            Heartbeat(
                seq=seq,
                send_local_time=send_local,
                receive_local_time=q_clock.local_time(sim.now),
            )
        )

    link = LossyLink(TRUE_DELAY, TRUE_LOSS, np.random.default_rng(seed))
    sender = HeartbeatSender(sim, link, eta=PROBE_ETA, deliver=deliver)
    sender.start()
    sim.run_until(n_heartbeats * PROBE_ETA + 10.0)
    return observer.snapshot()


def main() -> None:
    print("Phase 1: estimating the network from 2,000 probe heartbeats")
    estimate = estimate_network()
    print(f"  estimated p_L              = {estimate.loss_probability:.4f} "
          f"(true {TRUE_LOSS})")
    print(f"  estimated E(D)+skew        = {estimate.mean_delay:,.3f} s "
          f"(skew dominates — and is never needed)")
    print(f"  estimated V(D)             = {estimate.var_delay:.5f} "
          f"(true {TRUE_DELAY.variance:.5f}; skew-invariant)")

    # ------------------------------------------------------------------
    # Phase 2: configure NFD-E.  Contract: detect within ~5 s *relative
    # to the average delay* (eq. 6.1 — no absolute bound is enforceable
    # without synchronized clocks), <= 1 mistake per day, corrected in
    # <= 30 s.
    # ------------------------------------------------------------------
    cfg = configure_nfdu(
        relative_detection_bound=5.0,
        mistake_recurrence_lower=24 * 3600.0,
        mistake_duration_upper=30.0,
        loss_probability=estimate.loss_probability,
        var_delay=estimate.var_delay,
    )
    print("\nPhase 2: Section 6 configurator (uses only p_L and V(D)):")
    print(f"  eta   = {cfg.eta:.4f} s")
    print(f"  alpha = {cfg.alpha:.4f} s")
    print(f"  guaranteed: T_D <= {cfg.eta + cfg.alpha:.2f} s + E(D)")

    # ------------------------------------------------------------------
    # Phase 3: deploy NFD-E under the skewed clock and validate.
    # ------------------------------------------------------------------
    print("\nPhase 3: running NFD-E for 200,000 s under a 2 h clock skew")
    sim = Simulator()
    detector = NFDE(eta=cfg.eta, alpha=cfg.alpha, window=32)
    host = DetectorHost(sim, detector, clock=SkewedClock(CLOCK_SKEW))
    link = LossyLink(TRUE_DELAY, TRUE_LOSS, np.random.default_rng(99))
    sender = HeartbeatSender(sim, link, eta=cfg.eta, deliver=host.deliver)
    host.start()
    sender.start()
    sim.run_until(200_000.0)
    trace = host.finish()
    acc = estimate_accuracy(trace, warmup=40 * cfg.eta)
    print(f"  mistakes observed    = {acc.n_mistakes} "
          f"(contract allows ~{200_000 / (24 * 3600):.1f})")
    print(f"  query accuracy       = {acc.query_accuracy:.9f}")

    # Crash detection under the same setup.
    sim2 = Simulator()
    det2 = NFDE(eta=cfg.eta, alpha=cfg.alpha, window=32)
    host2 = DetectorHost(sim2, det2, clock=SkewedClock(CLOCK_SKEW))
    link2 = LossyLink(TRUE_DELAY, TRUE_LOSS, np.random.default_rng(123))
    crash_at = 500.3
    sender2 = HeartbeatSender(
        sim2, link2, eta=cfg.eta, deliver=host2.deliver, crash_time=crash_at
    )
    host2.start()
    sender2.start()
    sim2.run_until(600.0)
    t_d = detection_time(host2.finish(), crash_at)
    print(f"\nCrash at t={crash_at}: permanently suspected at "
          f"t={crash_at + t_d:.2f}")
    print(f"  detection time       = {t_d:.2f} s "
          f"(bound {cfg.eta + cfg.alpha:.2f} + E(D))")


if __name__ == "__main__":
    main()
