"""E18 — WAN relay routes vs. the Theorem 5 single-link abstraction.

The paper models the monitored connection as one end-to-end link
(§3.1).  This experiment relays heartbeats hop by hop across a
four-site WAN (``nyc — lon — fra — sgp`` with a slow ``nyc — fra``
detour) via :class:`repro.net.wan.RoutedWanLink` and asks two
questions:

1. **Does the reduction hold?**  Fault-free, a multi-hop route composes
   to a single ``(delay, loss)`` pair by exact moment additivity and
   multiplicative loss; Theorem 5 on that composite must match the
   relayed simulation.  Table 1 gates pooled ``E(T_MR)``/``E(T_M)``/
   ``P_A`` against the closed-form prediction (the E14 t-interval
   check) and every crash detection against the sure bound ``δ + η``
   — per route, at one, two and three hops.
2. **How far does WAN reality drift?**  Table 2 layers the faults no
   single-link model expresses — correlated congestion shocks, bursty
   backbone loss, scripted partition/heal cycles with mid-flight
   re-routing, and full site isolation — and quantifies the *relay
   distortion*: signed relative error of the observed QoS against the
   fault-free composite prediction, alongside the route-flip/re-route/
   no-route counters.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.experiments.common import ExperimentTable, steady_state_warmup
from repro.core.nfd_s import NFDS
from repro.metrics.qos import pool_accuracy
from repro.net.delays import ExponentialDelay
from repro.net.wan import (
    RoutedWanLink,
    WanNetwork,
    WanSchedule,
    WanTopology,
    detection_within_bound,
    periodic_partitions,
    predict_route,
    prediction_errors,
    within_theorem5_band,
)
from repro.sim.runner import (
    SimulationConfig,
    run_crash_runs,
    run_failure_free,
    run_failure_free_parallel,
)

__all__ = ["WanSettings", "build_topology", "route_config", "run_wan"]


class WanSettings:
    """Shared parameters of both E18 tables.

    ``delta = 1.0`` keeps the timeout an order of magnitude above the
    three-hop mean delay (~0.13), so fault-free mistakes are dominated
    by message loss — the regime where the composite prediction is
    sharpest — while the ×8 congestion shock pushes delays across the
    deadline and the distortion becomes visible.
    """

    eta = 1.0
    delta = 1.0
    ci_level = 0.99
    seed = 0xE18
    warmup = steady_state_warmup(eta, delta=delta)

    def __init__(
        self,
        horizon: float = 3000.0,
        n_ff_runs: int = 5,
        n_crash_runs: int = 40,
    ) -> None:
        self.horizon = horizon
        self.n_ff_runs = n_ff_runs
        self.n_crash_runs = n_crash_runs

    @property
    def detection_bound(self) -> float:
        return self.delta + self.eta

    def detector_factory(self):
        return lambda: NFDS(eta=self.eta, delta=self.delta)


def build_topology(
    bursty: bool = False, congestion: bool = False
) -> WanTopology:
    """The E18 four-site WAN.

    ``bursty`` turns the ``lon—fra`` backbone into a Gilbert–Elliott
    channel at the *same average* loss (burst length 8); ``congestion``
    declares a shared ×8 latent delay shock over the two transatlantic
    hops.  Both default off so the base topology satisfies the i.i.d.
    assumptions Theorem 5 composes under.
    """
    t = WanTopology("e18")
    for site in ("nyc", "lon", "fra", "sgp"):
        t.add_site(site)
    t.add_link("nyc", "lon", ExponentialDelay(0.03), loss=0.04)
    t.add_link(
        "lon",
        "fra",
        ExponentialDelay(0.01),
        loss=0.02,
        burst_length=8.0 if bursty else None,
    )
    t.add_link("nyc", "fra", ExponentialDelay(0.08), loss=0.01)
    t.add_link("fra", "sgp", ExponentialDelay(0.09), loss=0.03)
    if congestion:
        t.add_congestion(
            [("nyc", "lon"), ("lon", "fra")],
            rate=1.0 / 200.0,
            mean_duration=30.0,
            factor=8.0,
        )
    return t


def route_config(
    s: WanSettings,
    topology: WanTopology,
    target: str,
    schedule: Optional[WanSchedule] = None,
    links_out: Optional[list] = None,
) -> SimulationConfig:
    """A runner config whose link is a relayed WAN route from ``nyc``.

    The network horizon leaves headroom past the run horizon so crash
    runs (which simulate past the crash window) never outrun the
    pre-sampled congestion field.
    """
    composite, loss, _ = topology.compose_route("nyc", target)
    link_horizon = 2.0 * s.horizon + 100.0

    def link_factory(rng: np.random.Generator) -> RoutedWanLink:
        net = WanNetwork(topology, rng, horizon=link_horizon, schedule=schedule)
        link = RoutedWanLink(net, "nyc", target)
        if links_out is not None:
            links_out.append(link)
        return link

    return SimulationConfig(
        eta=s.eta,
        delay=composite,
        loss_probability=loss,
        horizon=s.horizon,
        warmup=s.warmup,
        seed=s.seed,
        link_factory=link_factory,
    )


def _fmt_pct(x: float) -> str:
    return f"{100.0 * x:+.1f}%"


def theorem5_table(
    s: Optional[WanSettings] = None, jobs: int = 1
) -> ExperimentTable:
    """Table 1: the composite prediction vs. the relayed simulation,
    fault-free, per route length."""
    s = s if s is not None else WanSettings()
    table = ExperimentTable(
        title=(
            f"E18a: Theorem 5 over relayed WAN routes, fault-free "
            f"(NFD-S eta={s.eta:g}, delta={s.delta:g}, "
            f"{s.n_ff_runs} runs x {s.horizon:g}s, "
            f"{int(100 * s.ci_level)}% CIs)"
        ),
        columns=[
            "route",
            "hops",
            "p_L",
            "E(Tmr) thm5",
            "E(Tmr) sim",
            "E(Tm) thm5",
            "E(Tm) sim",
            "P_A thm5",
            "P_A sim",
            "in band",
            "max T_D",
            "T_D<=bound",
        ],
    )
    topology = build_topology()
    for target in ("lon", "fra", "sgp"):
        pred = predict_route(
            topology, "nyc", target, eta=s.eta, delta=s.delta
        )
        config = route_config(s, topology, target, schedule=None)
        results = run_failure_free_parallel(
            s.detector_factory(), config, s.n_ff_runs, jobs=jobs
        )
        pooled = pool_accuracy([r.accuracy for r in results])
        crashes = run_crash_runs(
            s.detector_factory(),
            config,
            s.n_crash_runs,
            settle_time=10.0 * s.detection_bound,
            jobs=jobs,
        )
        in_band = within_theorem5_band(
            pred, pooled.tmr_samples, pooled.tm_samples, level=s.ci_level
        )
        bound_ok = detection_within_bound(
            pred, crashes.detection_times
        )
        p = pred.prediction
        obs_tmr = float(np.mean(pooled.tmr_samples))
        obs_tm = float(np.mean(pooled.tm_samples))
        table.add_row(
            "->".join(pred.path),
            len(pred.path) - 1,
            f"{pred.loss:.4f}",
            f"{p.e_tmr:.1f}",
            f"{obs_tmr:.1f}",
            f"{p.e_tm:.3f}",
            f"{obs_tm:.3f}",
            f"{p.query_accuracy:.5f}",
            f"{1.0 - obs_tm / obs_tmr:.5f}",
            "yes" if in_band else "NO",
            f"{crashes.max_detection_time:.3f}",
            "yes" if bound_ok else "NO",
        )
    table.add_note(
        "Composition: exact additive moments, loss = 1 - prod(1-p_i); "
        "the relay walked each hop, the prediction never saw the hops."
    )
    table.add_note(
        f"'in band': {int(100 * s.ci_level)}% t-intervals on pooled "
        f"T_MR/T_M contain the closed-form means and P_A lies in the "
        f"combined interval; 'T_D<=bound': every crash detected within "
        f"delta+eta = {s.detection_bound:g}."
    )
    return table


def _scenarios(
    s: WanSettings,
) -> List[Tuple[str, WanTopology, Optional[WanSchedule]]]:
    base = build_topology()
    congested = build_topology(congestion=True)
    bursty = build_topology(bursty=True)

    def schedule_on(topology, pairs, duration):
        first = s.warmup + 150.0
        period = 400.0
        count = max(1, int((s.horizon - first) / period))
        return WanSchedule(
            topology,
            {
                pair: periodic_partitions(first, period, duration, count)
                for pair in pairs
            },
            name="e18-partitions",
        )

    partitioned = build_topology()
    isolated = build_topology()
    return [
        ("fault-free", base, None),
        ("congestion x8", congested, None),
        ("bursty backbone", bursty, None),
        (
            "partitions",
            partitioned,
            schedule_on(partitioned, [("nyc", "lon")], 25.0),
        ),
        (
            "site isolated",
            isolated,
            schedule_on(
                isolated, [("nyc", "lon"), ("nyc", "fra")], 10.0
            ),
        ),
    ]


def distortion_table(
    s: Optional[WanSettings] = None, jobs: int = 1
) -> ExperimentTable:
    """Table 2: relay distortion of the monitored ``nyc -> sgp`` route
    under WAN faults, against the fault-free composite prediction."""
    s = s if s is not None else WanSettings()
    pred = predict_route(
        build_topology(), "nyc", "sgp", eta=s.eta, delta=s.delta
    )
    table = ExperimentTable(
        title=(
            f"E18b: relay distortion on nyc->sgp under WAN faults "
            f"(vs. fault-free composite prediction; NFD-S "
            f"eta={s.eta:g}, delta={s.delta:g})"
        ),
        columns=[
            "scenario",
            "E(Tmr) sim",
            "dE(Tmr)",
            "E(Tm) sim",
            "dE(Tm)",
            "dP_A",
            "loss rate",
            "flips/run",
            "reroutes/run",
            "no-route/run",
        ],
    )
    for name, topology, schedule in _scenarios(s):
        config = route_config(s, topology, "sgp", schedule)
        results = run_failure_free_parallel(
            s.detector_factory(), config, s.n_ff_runs, jobs=jobs
        )
        pooled = pool_accuracy([r.accuracy for r in results])
        errors = prediction_errors(
            pred, pooled.tmr_samples, pooled.tm_samples
        )
        # Counters cannot cross the fork boundary, so one dedicated
        # serial run (the next unused index — its own stream, same law)
        # reports the per-run relay counters.
        links: list = []
        counter_config = route_config(s, topology, "sgp", schedule, links_out=links)
        run_failure_free(
            s.detector_factory(), counter_config, run_index=s.n_ff_runs
        )
        (probe,) = links
        loss_rate = float(
            np.mean([r.empirical_loss_rate for r in results])
        )
        table.add_row(
            name,
            f"{float(np.mean(pooled.tmr_samples)):.1f}",
            _fmt_pct(errors["e_tmr"]),
            f"{float(np.mean(pooled.tm_samples)):.3f}",
            _fmt_pct(errors["e_tm"]),
            f"{errors['query_accuracy']:+.5f}",
            f"{loss_rate:.4f}",
            f"{probe.route_flips}",
            f"{probe.reroutes}",
            f"{probe.no_route_drops}",
        )
    table.add_note(
        "dX = (observed - predicted)/predicted against the fault-free "
        "composite; dP_A is an absolute difference.  Counters are from "
        "one dedicated serial run of the same horizon."
    )
    table.add_note(
        "'site isolated' cuts both nyc uplinks at once: no-route drops "
        "appear and the detector's mistake durations stretch to the "
        "isolation windows."
    )
    return table


def run_wan(
    full: bool = False, jobs: int = 1
) -> List[ExperimentTable]:
    """E18 driver: both tables, quick scale by default."""
    s = (
        WanSettings(horizon=8000.0, n_ff_runs=8, n_crash_runs=150)
        if full
        else WanSettings()
    )
    return [theorem5_table(s, jobs=jobs), distortion_table(s, jobs=jobs)]
