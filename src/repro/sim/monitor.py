"""The monitoring process *q*: hosts a detector and records its output.

The paper's detectors ask two things of the process that runs them — its
local clock and a one-shot timer (:class:`~repro.core.base.DetectorRuntime`).
A host supplies them over a **driver**, the object that owns time:
``now()`` and ``call_at(time, callback) -> handle with cancel()``.  There
are two drivers — :class:`~repro.sim.engine.SimWheelScheduler` (virtual
time) and :class:`repro.live.soa.LoopWheelScheduler` (a loop's clock
minus an origin) — and two hosts written once over them:
:class:`DetectorHost` here runs one unmodified :mod:`repro.core` detector
object, the reference every identity test compares against;
:class:`repro.service.soa.SoAMonitorHost` is one row of the shared
vectorized engine.  Same arguments, same surface: a service picks by
:func:`~repro.service.soa.supports_detector` and nothing else.

One rule for time.  q's local time is ``clock.local_time(driver.now())``
(``clock=None``: a perfect clock).  The output trace and the online QoS
estimator are kept in *driver time* — real time in the simulator, so QoS
stays defined over real time however skewed q's clock is; the
origin-shifted loop clock on a live monitor.  The ``on_transition`` hook
receives q-local time, as the detector reports it.  ``finish()`` is a
snapshot: it closes the books at an end time, may be called again with a
later one, and does not stop the host; ``stop()`` does.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.base import Heartbeat, HeartbeatFailureDetector
from repro.errors import SimulationError
from repro.estimation.observer import HeartbeatObserver
from repro.metrics.transitions import OutputTrace
from repro.net.clocks import Clock
from repro.sim.engine import Simulator, SimWheelScheduler
from repro.telemetry.qos_online import OnlineQoSEstimator

__all__ = ["DetectorHost"]


class _InertTimer:
    """A timer handle for a stopped host: never fires, cancel is a no-op."""

    __slots__ = ()

    def cancel(self) -> None:
        pass


class _HostTimer:
    """The handle a running host gives its detector.  It stays on the
    host's books until it fires or is cancelled — by the detector or by
    :meth:`DetectorHost.stop` — so the books hold live timers only."""

    __slots__ = ("_timers", "_callback", "_handle")

    def __init__(self, timers: set, driver, time: float, callback) -> None:
        self._timers = timers
        self._callback = callback
        self._handle = driver.call_at(time, self)
        timers.add(self)

    def __call__(self) -> None:
        self._timers.discard(self)
        self._callback()

    def cancel(self) -> None:
        self._timers.discard(self)
        self._handle.cancel()


class DetectorHost:
    """Runs one failure-detector object over a driver.

    Args:
        driver: the scheduler that owns time (module docstring); a bare
            :class:`~repro.sim.engine.Simulator` is accepted and wrapped.
        detector: an unbound detector instance (it is bound here).
        clock: q's local clock (defaults to perfect).
        warmup: when given, the host also keeps a constant-memory
            :class:`~repro.telemetry.qos_online.OnlineQoSEstimator`
            that excludes this initial span (startup transients).
        keep_trace: retain the full :class:`OutputTrace` (O(mistakes)
            memory — leave off for long-lived services).
        observer: optional :class:`HeartbeatObserver` fed every receipt
            (the Section 5/6 loss/delay/EA estimation pipeline).
        on_transition: optional hook ``(local_time, output)`` called on
            every output transition (after the trace/estimator update).
    """

    def __init__(
        self,
        driver,
        detector: HeartbeatFailureDetector,
        clock: Optional[Clock] = None,
        *,
        warmup: Optional[float] = None,
        keep_trace: bool = True,
        observer: Optional[HeartbeatObserver] = None,
        on_transition: Optional[Callable[[float, str], None]] = None,
    ) -> None:
        if isinstance(driver, Simulator):
            driver = SimWheelScheduler(driver)
        self._driver = driver
        self._detector = detector
        self._clock = clock
        self._observer = observer
        self._on_transition_hook = on_transition
        self._delivered = 0
        self._stopped = False
        # Armed timers that have neither fired nor been cancelled.  The
        # detector's freshness-point callbacks re-arm each other, so
        # stop() must reach the whole chain — a handle that is *due but
        # not yet fired* included, or a removed incarnation could fire
        # one final transition.
        self._timers: set = set()
        start, output = driver.now(), detector.output
        self._trace = (
            OutputTrace(start_time=start, initial_output=output)
            if keep_trace
            else None
        )
        self._estimator = (
            OnlineQoSEstimator(
                start_time=start, initial_output=output, warmup=warmup
            )
            if warmup is not None
            else None
        )
        detector.bind(self, self._on_transition)

    # ------------------------------------------------------------------ #
    # DetectorRuntime protocol (local time)
    # ------------------------------------------------------------------ #

    def local_now(self) -> float:
        now = self._driver.now()
        return now if self._clock is None else self._clock.local_time(now)

    def call_at(self, local_time: float, callback):
        if self._stopped:
            # A stopped host arms nothing: handing the detector an inert
            # handle terminates its self-rescheduling timer chain.
            return _InertTimer()
        if self._clock is not None:
            local_time = self._clock.real_time(local_time)
        return _HostTimer(self._timers, self._driver, local_time, callback)

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    @property
    def detector(self) -> HeartbeatFailureDetector:
        return self._detector

    @property
    def observer(self) -> Optional[HeartbeatObserver]:
        return self._observer

    @property
    def estimator(self) -> Optional[OnlineQoSEstimator]:
        return self._estimator

    @property
    def delivered_count(self) -> int:
        return self._delivered

    def start(self) -> None:
        if self._stopped:
            raise SimulationError("host already stopped")
        self._detector.start()

    def stop(self) -> None:
        """Neutralize the host: cancel pending timers, ignore deliveries.

        Called when a service removes or restarts a process — without
        this, the removed incarnation's detector keeps re-arming its
        freshness-point timer chain forever, so churn-heavy runs would
        accumulate one inert event chain per departed incarnation.
        Idempotent; measurement state is closed by :meth:`finish`.
        """
        self._stopped = True
        for timer in self._timers:
            timer._handle.cancel()
        self._timers.clear()

    def deliver(self, seq: int, send_local_time: float) -> None:
        """Feed one heartbeat; its receipt time is q-local *now*."""
        if self._stopped:
            return  # late arrival to a removed incarnation
        self._delivered += 1
        recv = self.local_now()
        if self._observer is not None:
            self._observer.observe_arrival(seq, send_local_time, recv)
        self._detector.on_heartbeat(
            Heartbeat(
                seq=seq,
                send_local_time=send_local_time,
                receive_local_time=recv,
            )
        )

    def _on_transition(self, local_time: float, output: str) -> None:
        if self._stopped:
            return  # stray callback after stop()
        # The listener fires synchronously inside a driver callback or a
        # delivery, so the driver's current time is the transition's; on
        # a perfect clock that is the local time the detector just read.
        time = local_time if self._clock is None else self._driver.now()
        if self._trace is not None:
            self._trace.record(time, output)
        if self._estimator is not None:
            self._estimator.observe(time, output)
        if self._on_transition_hook is not None:
            self._on_transition_hook(local_time, output)

    def finish(self, end: Optional[float] = None) -> Optional[OutputTrace]:
        """Close the measurement state at driver time ``end`` (default:
        now) and return the trace (None when ``keep_trace`` was off).
        A snapshot, not a shutdown: the host keeps running, and a later
        call moves the trace's end time; the estimator closes once."""
        end = self._driver.now() if end is None else end
        if self._estimator is not None and not self._estimator.closed:
            self._estimator.close(end)
        if self._trace is not None:
            self._trace.close(end)
        return self._trace
