"""Monitoring many processes with per-process detectors and links.

:class:`MonitorService` owns, for each monitored process, the full
two-process pipeline of the paper — heartbeat sender, lossy link,
detector host — and fans every output transition out to service-level
listeners as :class:`~repro.service.events.MonitorEvent`.

Per-process isolation matters: each link has its own loss probability
and delay distribution (a LAN peer and a WAN peer should not share a
configuration), and each detector can be configured against a different
QoS contract via the Section 4-6 configurators.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import HeartbeatFailureDetector
from repro.errors import InvalidParameterError, SimulationError
from repro.metrics.transitions import OutputTrace
from repro.net.clocks import Clock
from repro.net.delays import DelayDistribution
from repro.net.link import LossyLink
from repro.service.events import MonitorEvent
from repro.service.soa import (
    SoAMonitorHost,
    VectorMonitorEngine,
    supports_detector,
)
from repro.sim.engine import Simulator, SimWheelScheduler
from repro.sim.heartbeat import HeartbeatSender
from repro.sim.monitor import DetectorHost
from repro.sim.seeds import STREAM_FAULTS

__all__ = ["MonitoredProcess", "MonitorService"]

Listener = Callable[[MonitorEvent], None]


@dataclass
class MonitoredProcess:
    """Everything the service keeps per monitored process."""

    name: str
    sender: HeartbeatSender
    #: a :class:`~repro.service.soa.SoAMonitorHost` (NFD-S/U/E rows of
    #: the shared engine) or a :class:`DetectorHost` (every other
    #: detector); both expose the same surface (detector, deliver, stop,
    #: finish, …).
    host: object
    link: LossyLink
    incarnation: int = 0
    #: the fault engine driving this pipeline, when the process was
    #: registered with a scenario (its ``timeline`` segments the
    #: incarnation's QoS by fault window).
    scenario_engine: Optional[object] = None
    #: real time at which this incarnation crashes (``inf`` = never).
    #: A *scheduled* crash sets this to the future crash instant — the
    #: process is still live (and a suspicion still a mistake) until
    #: then, which is what the membership layer's spurious-change
    #: accounting compares against.
    crash_time: float = field(default=math.inf, init=False)
    events: List[MonitorEvent] = field(default_factory=list, init=False)

    @property
    def detector(self) -> HeartbeatFailureDetector:
        return self.host.detector

    @property
    def output(self) -> str:
        return self.detector.output

    @property
    def trusted(self) -> bool:
        return self.detector.output == "T"

    @property
    def crashed(self) -> bool:
        """Whether a crash has been injected (now or scheduled).

        For "has it crashed *yet*" compare :attr:`crash_time` against
        the simulation clock: down iff ``sim.now >= proc.crash_time``.
        """
        return self.crash_time != math.inf


class MonitorService:
    """A registry of monitored processes sharing one simulator.

    Args:
        sim: the discrete-event simulator all pipelines run on.
        seed: base seed; each (process, incarnation) derives its own
            independent random stream.

    Plain NFD-S/U/E detectors are hosted as rows of one shared
    :class:`~repro.service.soa.VectorMonitorEngine` (NumPy tables and a
    single timer wheel, which is what lets one monitor track 10^5+
    senders); any other detector — a subclass included, see
    :func:`~repro.service.soa.supports_detector` — runs unmodified in
    its own :class:`~repro.sim.monitor.DetectorHost`.  Verdict streams
    are bit-identical either way.
    """

    def __init__(self, sim: Simulator, seed: int = 0) -> None:
        self._sim = sim
        self._scheduler = SimWheelScheduler(sim)
        self._seed = int(seed)
        self._soa: Optional[VectorMonitorEngine] = None
        #: engine row -> (name, incarnation) of the pipeline it hosts
        self._row_owner: List[Tuple[str, int]] = []
        self._processes: Dict[str, MonitoredProcess] = {}
        self._closed_traces: Dict[Tuple[str, int], OutputTrace] = {}
        self._closed_crash_times: Dict[Tuple[str, int], float] = {}
        self._listeners: List[Listener] = []
        self._started = False

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def soa_engine(self) -> Optional[VectorMonitorEngine]:
        """The shared SoA engine, if the service has built one."""
        return self._soa

    def _soa_engine(self) -> VectorMonitorEngine:
        if self._soa is None:
            self._soa = VectorMonitorEngine(self._scheduler)
            self._soa.listen(self._on_rows)
        return self._soa

    def _on_rows(self, _time: float, rows: np.ndarray, output: str) -> None:
        """The engine's batch listener: each row's transition, in order."""
        owner = self._row_owner
        for row in rows.tolist():
            self._note_transition(*owner[row], output)

    @property
    def process_names(self) -> tuple:
        return tuple(sorted(self._processes))

    def process(self, name: str) -> MonitoredProcess:
        try:
            return self._processes[name]
        except KeyError:
            raise InvalidParameterError(f"unknown process {name!r}") from None

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def add_process(
        self,
        name: str,
        detector: HeartbeatFailureDetector,
        eta: float,
        delay: Optional[DelayDistribution] = None,
        loss_probability: float = 0.0,
        sender_clock: Optional[Clock] = None,
        monitor_clock: Optional[Clock] = None,
        incarnation: int = 0,
        scenario=None,
        link=None,
    ) -> MonitoredProcess:
        """Register a process and build its monitoring pipeline.

        If the service has already been started, the new pipeline starts
        immediately (processes can join a running system).

        The transport is declared either by ``delay`` (+
        ``loss_probability``), building the paper's
        :class:`~repro.net.link.LossyLink` from the per-(process,
        incarnation) stream, or by passing a pre-built LossyLink-
        compatible ``link`` — e.g. a
        :class:`~repro.net.wan.RoutedWanLink` relaying heartbeats across
        a multi-site topology.  Exactly one of the two must be given; a
        caller-provided link owns its randomness, so it must be
        constructed from a seeded generator for reproducible runs.

        ``scenario`` (a :class:`repro.faults.FaultScenario`) scripts
        faults onto this process's pipeline only, through
        :meth:`~repro.faults.FaultScenario.attach` (as the simulated
        runner does): the link is wrapped in a
        :class:`repro.faults.FaultyLink` whose fault draws come from a
        per-(process, incarnation) ``STREAM_FAULTS`` stream, clocks are
        auto-upgraded to :class:`~repro.net.clocks.FaultableClock` where
        the scenario needs them, and the engine's timeline is available
        as ``proc.scenario_engine.timeline``.  Event times are absolute
        simulation times, so a process registered mid-run must use a
        scenario written for the current clock.
        """
        if name in self._processes:
            raise InvalidParameterError(
                f"process {name!r} already monitored; remove it first or "
                f"re-add under a new incarnation"
            )
        if (delay is None) == (link is None):
            raise InvalidParameterError(
                "pass exactly one of delay= (a LossyLink is built for "
                "the process) or link= (a pre-built transport)"
            )
        # zlib.crc32 is stable across processes (str hash() is salted by
        # PYTHONHASHSEED and would break run-to-run reproducibility).
        name_key = zlib.crc32(name.encode("utf-8"))
        if link is None:
            rng = np.random.default_rng(
                np.random.SeedSequence([self._seed, name_key, incarnation])
            )
            link = LossyLink(
                delay=delay, loss_probability=loss_probability, rng=rng
            )
        send_gate = engine = None
        if scenario is not None:
            fault_rng = np.random.default_rng(
                np.random.SeedSequence(
                    [self._seed, name_key, incarnation, STREAM_FAULTS]
                )
            )
            link, sender_clock, monitor_clock, send_gate, engine = (
                scenario.attach(
                    self._sim, link, fault_rng, sender_clock, monitor_clock,
                    f"{name}#{incarnation}",
                )
            )
        # The incarnation travels with a transition so it can be
        # attributed to (or muted for) exactly the pipeline that made it.
        if supports_detector(detector):
            host = SoAMonitorHost(
                self._soa_engine(),
                detector,
                clock=monitor_clock,
                incarnation=incarnation,
            )
            assert host.row == len(self._row_owner)
            self._row_owner.append((name, incarnation))
        else:

            def hook(_local_time: float, output: str) -> None:
                self._note_transition(name, incarnation, output)

            host = DetectorHost(
                self._scheduler,
                detector,
                clock=monitor_clock,
                on_transition=hook,
            )
        # A process joining mid-run keeps the paper's global schedule
        # σ_i = i·η but starts at the first index still in the future.
        first_seq = max(1, int(self._sim.now // eta) + 1)
        sender = HeartbeatSender(
            self._sim,
            link,
            eta=eta,
            deliver=host.deliver,
            clock=sender_clock,
            first_seq=first_seq,
            origin=first_seq * eta,
            send_gate=send_gate,
        )
        proc = MonitoredProcess(
            name=name, sender=sender, host=host, link=link,
            incarnation=incarnation, scenario_engine=engine,
        )
        self._processes[name] = proc
        if self._started:
            host.start()
            sender.start()
        return proc

    def _note_transition(
        self, name: str, incarnation: int, output: str
    ) -> None:
        """Publish a host's transition as a named event (the host has
        already recorded it in its trace)."""
        proc = self._processes.get(name)
        if proc is None or proc.incarnation != incarnation:
            # A removed/replaced incarnation's transitions must not be
            # attributed to the current one.
            return
        event = MonitorEvent(
            time=self._sim.now,
            process=name,
            output=output,
            incarnation=incarnation,
        )
        proc.events.append(event)
        for callback in self._listeners:
            callback(event)

    def restart_process(
        self,
        name: str,
        detector: HeartbeatFailureDetector,
        eta: float,
        delay: DelayDistribution,
        loss_probability: float = 0.0,
    ) -> MonitoredProcess:
        """Re-admit a (crashed) process under a new incarnation.

        Footnote 2 of the paper: crashes are permanent — "a process that
        recovers from a crash assumes a new identity."  The service
        models that by replacing the old pipeline with a fresh one whose
        incarnation counter is bumped; higher layers see a leave (if the
        old incarnation was still trusted) followed by a join.
        """
        old = self.process(name)
        incarnation = old.incarnation + 1
        self.remove_process(name)
        return self.add_process(
            name,
            detector,
            eta=eta,
            delay=delay,
            loss_probability=loss_probability,
            incarnation=incarnation,
        )

    def remove_process(self, name: str) -> None:
        """Stop tracking a process.  **Idempotent**: removing a process
        that is not (or no longer) monitored is a no-op, so listeners
        reacting to the same transition cannot double-remove under
        churn.

        A final synthetic S event is published so higher layers (e.g.
        group membership) see the departure.  The incarnation's output
        trace is closed *and retained* (see :meth:`finish`) — mistakes
        made by departed incarnations stay in the QoS accounting — and
        the host's pending timer chain is cancelled (or its engine row
        retired), so a removed sender can never fire a final
        post-removal transition and churn-heavy runs do not accumulate
        inert simulator events.
        """
        proc = self._processes.get(name)
        if proc is None:
            return
        proc.sender.stop()  # no further heartbeats from this incarnation
        event = MonitorEvent(
            time=self._sim.now,
            process=name,
            output="S",
            administrative=True,
            incarnation=proc.incarnation,
        )
        proc.events.append(event)
        for callback in self._listeners:
            callback(event)
        self._closed_traces[(name, proc.incarnation)] = proc.host.finish()
        self._closed_crash_times[(name, proc.incarnation)] = proc.crash_time
        proc.host.stop()  # cancel the detector's timer chain
        del self._processes[name]

    # ------------------------------------------------------------------ #
    # Operation
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start all registered pipelines."""
        if self._started:
            raise SimulationError("service already started")
        self._started = True
        for proc in self._processes.values():
            proc.host.start()
            proc.sender.start()

    def subscribe(self, listener: Listener) -> None:
        """Register a callback for every detector transition."""
        self._listeners.append(listener)

    def crash(self, name: str, at_time: Optional[float] = None) -> None:
        """Crash a monitored process now (or at a future real time).

        The crash *time* — not a boolean — is recorded on the process:
        a suspicion raised before a scheduled crash takes effect is
        still a detector mistake, and the membership layer counts it as
        spurious by comparing the event time against ``crash_time``.
        """
        proc = self.process(name)
        when = self._sim.now if at_time is None else float(at_time)
        proc.sender.crash_at(when)
        proc.crash_time = min(proc.crash_time, when)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def output(self, name: str) -> str:
        """Current detector output for one process."""
        return self.process(name).output

    def trusted_set(self) -> frozenset:
        """Names of all currently trusted processes."""
        return frozenset(
            name for name, p in self._processes.items() if p.trusted
        )

    def suspected_set(self) -> frozenset:
        """Names of all currently suspected processes."""
        return frozenset(
            name for name, p in self._processes.items() if not p.trusted
        )

    def finish(self) -> Dict[Tuple[str, int], OutputTrace]:
        """Close and return the output traces of *every* incarnation.

        Keys are ``(name, incarnation)``: live pipelines are closed at
        the current time, and incarnations departed via
        :meth:`remove_process`/:meth:`restart_process` are included with
        the trace closed at their departure — so mistakes made by old
        incarnations do not vanish from the QoS accounting.
        """
        out = dict(self._closed_traces)
        for name, proc in self._processes.items():
            out[(name, proc.incarnation)] = proc.host.finish()
        return out

    def crash_times(self) -> Dict[Tuple[str, int], float]:
        """Real crash instants for every incarnation ever monitored,
        keyed like :meth:`finish` (``inf`` = never crashed)."""
        out = dict(self._closed_crash_times)
        for name, proc in self._processes.items():
            out[(name, proc.incarnation)] = proc.crash_time
        return out

    def recovery_traces(self):
        """Stitch every incarnation into per-identity recovery traces.

        Returns ``{name: RecoveryTrace}`` combining the closed traces of
        departed incarnations with the live ones (closed at the current
        time, like :meth:`finish`) and the real crash instants recorded
        by :meth:`crash`.  This is the input to the crash-recovery QoS
        estimators in :mod:`repro.metrics.recovery` — suspicion while an
        identity was genuinely down is not charged as a mistake.

        Like :meth:`finish`, this is a final snapshot: live traces are
        closed at ``sim.now``.
        """
        from repro.metrics.recovery import stitch_recovery_traces

        return stitch_recovery_traces(self.finish(), self.crash_times())
