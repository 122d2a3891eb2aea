"""E16 (extension) — hierarchical vs. flat monitoring at matched budget.

The ROADMAP's scale item: flat monitoring funnels every heartbeat
through one monitor; a two-level federation lets leaves absorb the
heartbeat load and sends the root only compact shard digests over the
gossip plane.  This experiment prices that architecture in the paper's
own currency: the root-level output traces are scored with T_D, T_MR,
T_M and P_A — no hierarchy-specific metrics — against a flat
deployment given the **same total message budget**.

Budget accounting: flat spends everything on heartbeats (``N/η_flat``
messages per unit time).  The federation spends ``N/η_leaf`` on
heartbeats plus ``(L+1)/t_digest`` on the digest plane; the driver
solves ``η_leaf`` so the totals match.  What the budget buys differs:
the flat root *receives* all ``N/η`` heartbeats itself, while the
federated root receives only its share of plane gossip — the root-load
column is the scalability argument, the QoS columns are its price.

Scenarios, in the style of large-scale membership evaluations
(mass-failure and churn sweeps): steady-state accuracy, single-crash
detection, a simultaneous crash of ≥25% of the population
(detection-completeness over time), and a churn schedule of
crash/restart/remove operations applied identically to both systems.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.nfd_s import NFDS
from repro.errors import InvalidParameterError
from repro.experiments.common import ExperimentTable
from repro.hierarchy import HierarchicalMonitor, HierarchyConfig
from repro.metrics.qos import detection_time, estimate_accuracy, pool_accuracy
from repro.metrics.transitions import SUSPECT, OutputTrace
from repro.net.delays import DelayDistribution, ExponentialDelay
from repro.service.monitor_service import MonitorService
from repro.sim.engine import Simulator

__all__ = ["HierarchySettings", "run_hierarchy_comparison"]


@dataclass
class HierarchySettings:
    """Shared workload parameters for E16.

    The regime is deliberately lossier than Fig. 12 (5% loss, mean
    delay 0.1, δ only 5× the mean delay) so both systems make
    *measurable* mistakes within a seconds-bounded run — T_MR/T_M
    columns with actual numbers in them, not NaN.
    """

    n_senders: int = 48
    n_leaves: int = 4
    t_digest: float = 1.0
    eta_flat = 1.0
    delta = 0.5
    mean_delay = 0.1
    loss_probability = 0.05
    plane_t_fail = 8.0
    seed = 1616

    @property
    def delay(self) -> DelayDistribution:
        return ExponentialDelay(self.mean_delay)

    @property
    def flat_budget(self) -> float:
        """Total messages per unit time of the flat deployment."""
        return self.n_senders / self.eta_flat

    @property
    def eta_leaf(self) -> float:
        """Leaf heartbeat period matching the federation's total budget.

        Solves ``N/η_leaf + (L+1)/t_digest = N/η_flat``: the digest
        plane's spend is taken out of the heartbeat budget.
        """
        plane_rate = (self.n_leaves + 1) / self.t_digest
        remaining = self.flat_budget - plane_rate
        if remaining <= 0:
            raise InvalidParameterError(
                "digest plane alone exceeds the flat message budget; "
                "increase n_senders or t_digest"
            )
        return self.n_senders / remaining

    def hierarchy_config(self, seed_offset: int = 0) -> HierarchyConfig:
        return HierarchyConfig(
            n_senders=self.n_senders,
            n_leaves=self.n_leaves,
            eta=self.eta_leaf,
            delta=self.delta,
            sender_delay=self.delay,
            sender_loss=self.loss_probability,
            t_digest=self.t_digest,
            plane_t_fail=self.plane_t_fail,
            plane_delay=self.delay,
            plane_loss=self.loss_probability,
            seed=self.seed + seed_offset,
        )


# ---------------------------------------------------------------------- #
# Flat baseline
# ---------------------------------------------------------------------- #


class _FlatRun:
    """One flat MonitorService deployment on its own simulator."""

    def __init__(self, settings: HierarchySettings, seed_offset: int) -> None:
        s = settings
        self.sim = Simulator()
        self.service = MonitorService(self.sim, seed=s.seed + seed_offset)
        width = max(4, len(str(s.n_senders - 1)))
        self.names = [f"s{i:0{width}d}" for i in range(s.n_senders)]
        for name in self.names:
            self.service.add_process(
                name,
                NFDS(eta=s.eta_flat, delta=s.delta),
                eta=s.eta_flat,
                delay=s.delay,
                loss_probability=s.loss_probability,
            )
        self.service.start()
        self.crash_times: Dict[str, float] = {}

    def crash(self, name: str, at_time: Optional[float] = None) -> None:
        self.service.crash(name, at_time=at_time)
        when = self.sim.now if at_time is None else at_time
        prev = self.crash_times.get(name)
        self.crash_times[name] = when if prev is None else min(prev, when)

    def finish(self) -> Dict[str, OutputTrace]:
        # Latest incarnation per name carries the current view; earlier
        # incarnations' mistakes are pooled by the accuracy runs only.
        traces: Dict[str, OutputTrace] = {}
        best: Dict[str, int] = {}
        for (name, inc), trace in self.service.finish().items():
            if name not in best or inc > best[name]:
                best[name] = inc
                traces[name] = trace
        return traces


def _completeness(
    traces: Dict[str, OutputTrace], crashed: Sequence[str], at_time: float
) -> float:
    if not crashed:
        return math.nan
    hits = sum(
        1
        for name in crashed
        if name in traces and traces[name].output_at(at_time) == SUSPECT
    )
    return hits / len(crashed)


# ---------------------------------------------------------------------- #
# Scenario runs
# ---------------------------------------------------------------------- #


def _accuracy_run(
    settings: HierarchySettings, horizon: float, warmup: float
) -> Tuple[dict, dict]:
    """Failure-free steady state for both systems; returns row dicts."""
    s = settings

    flat = _FlatRun(s, seed_offset=1)
    flat.sim.run_until(horizon)
    flat_traces = flat.finish()
    flat_acc = pool_accuracy(
        [
            estimate_accuracy(t, warmup=warmup)
            for t in flat_traces.values()
        ]
    )
    flat_hb = sum(
        flat.service.process(n).link.stats.offered for n in flat.names
    )

    hm = HierarchicalMonitor(s.hierarchy_config(seed_offset=2))
    hm.start()
    hm.run_until(horizon)
    hier = hm.finish()
    hier_acc = pool_accuracy(
        [
            estimate_accuracy(t, warmup=warmup)
            for t in hier.root_traces.values()
        ]
    )

    flat_row = {
        "acc": flat_acc,
        "msgs_per_s": flat_hb / horizon,
        # The flat root IS the monitor: it receives every delivered
        # heartbeat itself.
        "root_rx": sum(
            flat.service.process(n).link.stats.delivered for n in flat.names
        )
        / horizon,
        "n_processes": s.n_senders + 1,
    }
    hier_row = {
        "acc": hier_acc,
        "msgs_per_s": (hier.heartbeat_messages + hier.plane_messages)
        / horizon,
        # The federated root receives its share of plane gossip only.
        "root_rx": hier.plane_messages / (s.n_leaves + 1) / horizon,
        "n_processes": s.n_senders + s.n_leaves + 1,
    }
    return flat_row, hier_row


def _detection_runs(
    settings: HierarchySettings, n_runs: int, settle: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Single-crash detection times at the root, for both systems."""
    s = settings
    flat_td: List[float] = []
    hier_td: List[float] = []
    for i in range(n_runs):
        # Vary the crash phase across the heartbeat/digest period.
        crash_at = settle + (i % 7) * s.eta_flat / 7.0
        horizon = crash_at + 30.0 * s.eta_flat
        victim_idx = i % s.n_senders

        flat = _FlatRun(s, seed_offset=100 + i)
        victim = flat.names[victim_idx]
        flat.crash(victim, at_time=crash_at)
        flat.sim.run_until(horizon)
        flat_td.append(
            detection_time(flat.finish()[victim], crash_at)
        )

        hm = HierarchicalMonitor(s.hierarchy_config(seed_offset=200 + i))
        victim = hm.sender_names[victim_idx]
        hm.start()
        hm.crash_sender(victim, at_time=crash_at)
        hm.run_until(horizon)
        hier_td.append(hm.finish().detection_times()[victim])
    return np.asarray(flat_td), np.asarray(hier_td)


def _mass_failure_run(
    settings: HierarchySettings,
    crash_fraction: float,
    crash_at: float,
    offsets: Sequence[float],
) -> List[Tuple[float, float, float]]:
    """Crash a fraction of the population at one instant; track
    root-level detection completeness at ``crash_at + offset``."""
    s = settings
    n_crash = max(1, int(round(crash_fraction * s.n_senders)))
    horizon = crash_at + max(offsets) + 1.0

    rng = np.random.default_rng(
        np.random.SeedSequence([s.seed, zlib.crc32(b"mass-failure")])
    )
    victims_idx = sorted(
        int(i) for i in rng.choice(s.n_senders, size=n_crash, replace=False)
    )

    flat = _FlatRun(s, seed_offset=11)
    flat_victims = [flat.names[i] for i in victims_idx]
    for name in flat_victims:
        flat.crash(name, at_time=crash_at)
    flat.sim.run_until(horizon)
    flat_traces = flat.finish()

    hm = HierarchicalMonitor(s.hierarchy_config(seed_offset=12))
    hier_victims = [hm.sender_names[i] for i in victims_idx]
    hm.start()
    hm.crash_senders(hier_victims, at_time=crash_at)
    hm.run_until(horizon)
    hier = hm.finish()

    rows = []
    for offset in offsets:
        at = crash_at + offset
        rows.append(
            (
                offset,
                _completeness(flat_traces, flat_victims, at),
                hier.detection_completeness(at),
            )
        )
    return rows


def _churn_run(
    settings: HierarchySettings, n_ops: int, horizon: float
) -> Tuple[dict, dict]:
    """Apply one crash/restart/remove schedule to both systems."""
    s = settings
    rng = np.random.default_rng(
        np.random.SeedSequence([s.seed, zlib.crc32(b"churn")])
    )
    start, end = 40.0, horizon - 40.0
    times = np.sort(rng.uniform(start, end, size=n_ops))

    flat = _FlatRun(s, seed_offset=21)
    hm = HierarchicalMonitor(s.hierarchy_config(seed_offset=22))
    hm.start()

    # The same op schedule is *scheduled* against both simulators, so
    # both systems live through an identical membership history.
    dead: set = set()
    removed: set = set()
    alive = set(range(s.n_senders))
    ops = {"crash": 0, "restart": 0, "remove": 0}
    for t in times:
        t = float(t)
        choice = rng.random()
        if choice < 0.5 and alive:
            idx = int(rng.choice(sorted(alive)))
            alive.discard(idx)
            dead.add(idx)
            ops["crash"] += 1
            # Resolve the victim at fire time: a restart scheduled
            # between now and t swaps the incarnation, and the crash
            # must hit whichever one is live when it lands.
            flat.sim.schedule_at(
                t, lambda i=idx: flat.crash(flat.names[i])
            )
            hm.crash_sender(hm.sender_names[idx], at_time=t)
        elif choice < 0.8 and dead:
            idx = int(rng.choice(sorted(dead)))
            dead.discard(idx)
            alive.add(idx)
            ops["restart"] += 1

            def do_restart(i=idx):
                flat.service.restart_process(
                    flat.names[i],
                    NFDS(eta=s.eta_flat, delta=s.delta),
                    eta=s.eta_flat,
                    delay=s.delay,
                    loss_probability=s.loss_probability,
                )
                flat.crash_times.pop(flat.names[i], None)

            flat.sim.schedule_at(t, do_restart)
            hm.restart_sender(hm.sender_names[idx], at_time=t)
        elif alive and len(alive) > s.n_leaves:
            idx = int(rng.choice(sorted(alive)))
            alive.discard(idx)
            removed.add(idx)
            ops["remove"] += 1
            flat.sim.schedule_at(
                t,
                lambda i=idx: flat.service.remove_process(flat.names[i]),
            )
            hm.remove_sender(hm.sender_names[idx], at_time=t)

    flat.sim.run_until(horizon)
    hm.run_until(horizon)
    flat_traces = flat.finish()
    hier = hm.finish()

    def summarize(suspected, trusted) -> dict:
        dead_names_f = {i for i in dead}
        return {
            "undetected_dead": sum(
                1 for i in dead_names_f if _name(s, i) in trusted
            ),
            "false_suspects": sum(
                1 for i in alive if _name(s, i) in suspected
            ),
        }

    flat_suspected = {
        n
        for n in flat.service.process_names
        if flat.service.output(n) == "S"
    }
    flat_trusted = set(flat.service.trusted_set())
    hier_suspected = set(hm.root.suspected_set())
    hier_trusted = set(hm.root.trusted_set())

    flat_row = dict(ops=ops, **summarize(flat_suspected, flat_trusted))
    hier_row = dict(ops=ops, **summarize(hier_suspected, hier_trusted))
    # Detection completeness over the still-dead population at the end.
    dead_names = [_name(s, i) for i in dead]
    flat_row["completeness"] = _completeness(
        flat_traces, [n for n in dead_names if n in flat_traces], horizon
    )
    hier_row["completeness"] = _completeness(
        hier.root_traces, dead_names, horizon
    )
    return flat_row, hier_row


def _name(settings: HierarchySettings, idx: int) -> str:
    width = max(4, len(str(settings.n_senders - 1)))
    return f"s{idx:0{width}d}"


# ---------------------------------------------------------------------- #
# Driver
# ---------------------------------------------------------------------- #


def run_hierarchy_comparison(
    settings: Optional[HierarchySettings] = None,
    horizon: float = 1_500.0,
    n_crash_runs: int = 8,
    crash_fraction: float = 0.25,
    churn_ops: int = 24,
) -> List[ExperimentTable]:
    """Run E16 and return its three tables."""
    s = settings if settings is not None else HierarchySettings()
    if not 0.0 < crash_fraction <= 1.0:
        raise InvalidParameterError(
            f"crash_fraction must be in (0, 1], got {crash_fraction}"
        )
    warmup = 10.0 * max(s.eta_flat, s.t_digest) + s.plane_t_fail

    # ----- table 1: QoS at matched budget ----------------------------- #
    flat_acc, hier_acc = _accuracy_run(s, horizon=horizon, warmup=warmup)
    flat_td, hier_td = _detection_runs(
        s, n_runs=n_crash_runs, settle=warmup
    )
    qos = ExperimentTable(
        title=(
            f"E16 - two-level federation (L={s.n_leaves} leaves, digest "
            f"plane every {s.t_digest:g}) vs flat monitoring, "
            f"N={s.n_senders} senders, matched total message budget "
            f"({s.flat_budget:g} msgs/s: eta_flat={s.eta_flat:g}, "
            f"eta_leaf={s.eta_leaf:.3f})"
        ),
        columns=[
            "architecture",
            "msgs/s total",
            "root rx msgs/s",
            "mean T_D",
            "max T_D",
            "E(T_MR)",
            "E(T_M)",
            "P_A",
        ],
    )
    qos.add_row(
        "flat",
        flat_acc["msgs_per_s"],
        flat_acc["root_rx"],
        float(flat_td.mean()),
        float(flat_td.max()),
        flat_acc["acc"].e_tmr,
        flat_acc["acc"].e_tm,
        flat_acc["acc"].query_accuracy,
    )
    qos.add_row(
        "two-level",
        hier_acc["msgs_per_s"],
        hier_acc["root_rx"],
        float(hier_td.mean()),
        float(hier_td.max()),
        hier_acc["acc"].e_tmr,
        hier_acc["acc"].e_tm,
        hier_acc["acc"].query_accuracy,
    )
    qos.add_note(
        "T_D/T_MR/T_M/P_A are measured on the ROOT's per-sender output "
        "traces for both systems (the paper's metrics, unchanged)"
    )
    qos.add_note(
        "root rx msgs/s is the scalability axis: the flat root absorbs "
        "every heartbeat, the federated root only its share of digest "
        "gossip - the QoS deltas are what that relief costs"
    )
    qos.add_note(
        "hierarchy detection = leaf NFD-S detection + digest publish "
        "(<= t_digest) + epidemic spread to the root"
    )

    # ----- table 2: mass failure -------------------------------------- #
    offsets = [
        0.5 * s.delta,
        s.delta + s.eta_flat,
        s.delta + s.eta_leaf + s.t_digest,
        s.delta + s.eta_leaf + 3 * s.t_digest,
        s.delta + s.eta_leaf + 6 * s.t_digest,
        s.delta + s.eta_leaf + 10 * s.t_digest,
    ]
    mass = ExperimentTable(
        title=(
            f"E16 mass failure - {crash_fraction:.0%} of {s.n_senders} "
            f"senders crash simultaneously; root-level detection "
            f"completeness over time"
        ),
        columns=[
            "dt after crash",
            "flat completeness",
            "two-level completeness",
        ],
    )
    for offset, flat_c, hier_c in _mass_failure_run(
        s, crash_fraction, crash_at=warmup + 20.0, offsets=offsets
    ):
        mass.add_row(offset, flat_c, hier_c)
    mass.add_note(
        "completeness = fraction of crashed senders suspected at the "
        "root by crash+dt; flat completes within eta+delta, the "
        "federation pays the digest plane's dissemination tail"
    )

    # ----- table 3: churn --------------------------------------------- #
    churn_horizon = max(400.0, horizon / 3.0)
    flat_churn, hier_churn = _churn_run(
        s, n_ops=churn_ops, horizon=churn_horizon
    )
    churn = ExperimentTable(
        title=(
            f"E16 churn - {churn_ops} crash/restart/remove ops over "
            f"{churn_horizon:g} time units, identical schedule for both "
            f"architectures"
        ),
        columns=[
            "architecture",
            "crashes",
            "restarts",
            "removes",
            "final completeness",
            "undetected dead",
            "false suspects",
        ],
    )
    for label, row in (("flat", flat_churn), ("two-level", hier_churn)):
        churn.add_row(
            label,
            row["ops"]["crash"],
            row["ops"]["restart"],
            row["ops"]["remove"],
            row["completeness"],
            row["undetected_dead"],
            row["false_suspects"],
        )
    churn.add_note(
        "final completeness over senders still crashed at the horizon; "
        "undetected dead / false suspects are end-state disagreements "
        "with ground truth"
    )
    return [qos, mass, churn]
