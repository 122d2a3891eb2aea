"""One host seam: driver × host conformance (tier-1: sub-second).

A detector host is written once over a driver — ``now()`` plus
``call_at()`` — so what a host does may not depend on *which* driver
owns time (the simulator or an event loop) nor on *which* host runs the
detector (the reference :class:`DetectorHost` with an unmodified
:mod:`repro.core` object, reached as ``RefNFDS/U/E``, or a row of the
shared engine).  Every test here runs one script on all four
combinations and demands the same books, float for float.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU
from repro.errors import SimulationError
from repro.live.soa import LoopWheelScheduler
from repro.metrics.transitions import SUSPECT, TRUST
from repro.net.clocks import SkewedClock
from repro.service.soa import SoAMonitorHost, VectorMonitorEngine
from repro.sim.engine import Simulator, SimWheelScheduler
from repro.sim.monitor import DetectorHost
from tests.reference import HOSTINGS, SteppedLoop, hosted

ETA = 1.0
COMBOS = [(d, h) for d in ("sim", "loop") for h in HOSTINGS]

DETECTORS = {
    "nfds": lambda first_seq=1: NFDS(ETA, 0.4, first_seq=first_seq),
    "nfdu": lambda first_seq=1: NFDU(
        ETA, 0.3, expected_arrival=lambda i: i * ETA + 0.1, first_seq=first_seq
    ),
    "nfde": lambda first_seq=1: NFDE(ETA, 0.3, window=4, first_seq=first_seq),
}

#: (arrival time, seq): steady, a reordered pair, a lost run long enough
#: to be suspected, recovery, then silence.  No arrival ties a freshness
#: point, where the two hosts are allowed to differ (service/soa.py).
SCRIPT = [
    (1.07, 1), (2.11, 2), (3.31, 4), (3.33, 3), (4.05, 5),
    (8.13, 9), (9.09, 10), (9.12, 10), (10.21, 11),
]  # fmt: skip
HORIZON = 14.0


def make_driver(kind):
    """``(driver, run_until)`` on a clock that starts at zero."""
    if kind == "sim":
        sim = Simulator()
        return SimWheelScheduler(sim), sim.run_until
    loop = SteppedLoop()
    return LoopWheelScheduler(loop, 0.0), loop.run_until


def make_host(kind, driver, detector, engine=None, **kwargs):
    """A host of ``kind``; an engine row goes on ``engine`` if given."""
    if kind == "object":
        return DetectorHost(driver, hosted("object", detector), **kwargs)
    if engine is None:
        engine = VectorMonitorEngine(driver)
    return SoAMonitorHost(engine, detector, **kwargs)


class Feed:
    """Records what a host feeds its observer."""

    def __init__(self):
        self.arrivals = []

    def observe_arrival(self, seq, send_local_time, receive_local_time):
        self.arrivals.append((seq, send_local_time, receive_local_time))


def trace_tuple(trace):
    return (
        trace.start_time,
        trace.end_time,
        tuple((t.time, t.kind.name) for t in trace.transitions),
    )


def play(driver_kind, host_kind, detector, script=SCRIPT, **kwargs):
    """Run ``script`` to HORIZON; return the host's observable books."""
    driver, run_until = make_driver(driver_kind)
    transitions, feed = [], Feed()
    host = make_host(
        host_kind,
        driver,
        detector,
        warmup=0.0,
        observer=feed,
        on_transition=lambda t, out: transitions.append((t, out)),
        **kwargs,
    )
    host.start()
    for at, seq in script:
        driver.call_at(at, lambda seq=seq: host.deliver(seq, seq * ETA))
    run_until(HORIZON)
    trace = host.finish()
    return {
        "transitions": transitions,
        "trace": trace_tuple(trace),
        "feed": feed.arrivals,
        "delivered": host.delivered_count,
        "qos": host.estimator.metrics(),
        "output": host.detector.output,
    }


@pytest.mark.parametrize("name", sorted(DETECTORS))
class TestSameScriptSameBooks:
    def test_four_combinations_agree(self, name):
        books = {c: play(*c, DETECTORS[name]()) for c in COMBOS}
        want = books[("sim", "object")]
        # The script is not vacuous: trusted, suspected, trusted again,
        # and suspected for good once the stream stops.
        outputs = [out for _, out in want["transitions"]]
        assert outputs[:3] == [TRUST, SUSPECT, TRUST]
        assert want["output"] == SUSPECT
        assert want["delivered"] == len(SCRIPT) == len(want["feed"])
        for combo, got in books.items():
            assert got == want, combo

    def test_time_rule_under_skew(self, name):
        """Under a skewed clock the trace (and the estimator) stay in
        driver time, the hook and the observer read q's clock."""
        skew = 0.25
        books = {
            c: play(*c, DETECTORS[name](), clock=SkewedClock(skew))
            for c in COMBOS
        }
        want = books[("sim", "object")]
        assert want["transitions"]
        for (local, out), (real, kind) in zip(
            want["transitions"], want["trace"][2]
        ):
            assert local == pytest.approx(real + skew)
            assert kind.startswith(out)
        assert 0.0 == want["trace"][0] and HORIZON == want["trace"][1]
        for (at, _), (_, _, recv) in zip(SCRIPT, want["feed"]):
            assert recv == pytest.approx(at + skew)
        for combo, got in books.items():
            assert got == want, combo


@pytest.mark.parametrize("driver_kind,host_kind", COMBOS)
class TestLifecycle:
    def _trusting_host(self, driver_kind, host_kind, **kwargs):
        driver, run_until = make_driver(driver_kind)
        transitions = []
        host = make_host(
            host_kind,
            driver,
            DETECTORS["nfds"](),
            on_transition=lambda t, out: transitions.append((t, out)),
            **kwargs,
        )
        return driver, run_until, host, transitions

    def test_keep_trace_off(self, driver_kind, host_kind):
        driver, run_until, host, _ = self._trusting_host(
            driver_kind, host_kind, keep_trace=False, warmup=0.0
        )
        host.start()
        driver.call_at(1.1, lambda: host.deliver(1, 1.0))
        run_until(4.0)
        assert host.finish() is None
        assert host.estimator.closed
        assert host.estimator.n_mistakes == 1
        assert host.observer is None

    def test_trace_and_estimator_agree(self, driver_kind, host_kind):
        books = play(driver_kind, host_kind, DETECTORS["nfds"]())
        n_s = sum(1 for _, kind in books["trace"][2] if kind.startswith("S"))
        assert books["qos"]["n_mistakes"] == n_s > 0

    def test_finish_is_a_snapshot(self, driver_kind, host_kind):
        driver, run_until, host, transitions = self._trusting_host(
            driver_kind, host_kind
        )
        assert host.estimator is None  # no warmup given, none kept
        host.start()
        for seq in range(1, 7):
            driver.call_at(
                seq * ETA + 0.05, lambda seq=seq: host.deliver(seq, seq * ETA)
            )
        run_until(3.2)
        first = trace_tuple(host.finish())
        run_until(6.2)  # still fed: no transition falls after the snapshot
        second = trace_tuple(host.finish())
        assert host.delivered_count == 6
        assert first[1] == 3.2 and second[1] == 6.2
        assert first[0] == second[0] and first[2] == second[2]
        assert trace_tuple(host.finish(7.0))[1] == 7.0
        assert [out for _, out in transitions] == [TRUST]

    def test_stop_cancels_a_due_timer(self, driver_kind, host_kind):
        """The churn race: a freshness deadline is due at the very
        instant the host is stopped, and has not fired yet.  It must be
        cancelled — not merely muted — so the detector never moves."""
        driver, run_until, host, transitions = self._trusting_host(
            driver_kind, host_kind
        )
        tau_2 = 2 * ETA + 0.4
        # Armed before anything the host arms, so at tau_2 it runs first.
        driver.call_at(tau_2, host.stop)
        host.start()
        driver.call_at(1.1, lambda: host.deliver(1, 1.0))
        run_until(tau_2 - 0.01)
        assert transitions == [(1.1, TRUST)]
        run_until(tau_2 + 5 * ETA)
        assert transitions == [(1.1, TRUST)]
        assert host.detector.output == TRUST  # its timer chain is dead
        # Late arrivals are swallowed, not errors; the books stay shut.
        host.deliver(9, 9.0)
        assert host.delivered_count == 1
        assert trace_tuple(host.finish())[2] == ((1.1, "T_TRANSITION"),)
        host.stop()  # idempotent
        with pytest.raises(SimulationError):
            host.start()

    def test_stale_first_seq_catches_up(self, driver_kind, host_kind):
        """A timer in the past fires as soon as possible (the drivers'
        rule), so a detector started late with ``first_seq`` behind the
        clock walks its overdue freshness points without raising and
        then behaves like one started at the current window — also when
        it starts exactly on a freshness point (``τ_10 = 10·η + δ``),
        which is overdue too: the engine's catch-up walks it (``<=``).
        A companion started at zero keeps the row's cohort armed, so at
        τ_10 its slice has run and the late row must join at τ_11."""

        def late_join(first_seq, start):
            driver, run_until = make_driver(driver_kind)
            engine = VectorMonitorEngine(driver)
            make_host(host_kind, driver, DETECTORS["nfds"](), engine).start()
            run_until(start)
            transitions = []
            host = make_host(
                host_kind,
                driver,
                DETECTORS["nfds"](first_seq),
                engine,
                on_transition=lambda t, out: transitions.append((t, out)),
            )
            host.start()
            driver.call_at(11.05, lambda: host.deliver(11, 11.0))
            run_until(15.0)
            return transitions, trace_tuple(host.finish())

        for start in (10.3, 10 * ETA + 0.4):
            stale, current = late_join(1, start), late_join(11, start)
            assert stale == current, start
            assert stale[0] == [(11.05, TRUST), (12 * ETA + 0.4, SUSPECT)]
            assert stale[1][0] == start


@pytest.mark.parametrize("host_kind", HOSTINGS)
def test_runs_unmodified_on_a_real_loop(host_kind):
    """The same host on asyncio's own clock and timers: trusts while
    fed, suspects within δ+η of the stream stopping."""

    async def main():
        loop = asyncio.get_running_loop()
        eta, delta = 0.04, 0.02
        driver = LoopWheelScheduler(loop, loop.time())
        host = make_host(host_kind, driver, NFDS(eta, delta), warmup=0.0)
        host.start()
        assert host.detector.output == SUSPECT
        for seq in range(1, 5):
            await asyncio.sleep(max(0.0, seq * eta - host.local_now()))
            host.deliver(seq, seq * eta)
            assert host.detector.output == TRUST
        await asyncio.sleep(delta + eta + 0.15)
        assert host.detector.output == SUSPECT
        trace = host.finish()
        host.stop()
        driver.close()
        assert len(trace.transitions) >= 2
        assert trace.current_output == SUSPECT
        assert host.estimator.closed

    asyncio.run(main())
