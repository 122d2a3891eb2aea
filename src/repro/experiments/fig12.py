"""E1/E2 — the paper's Fig. 12 and its ``E(T_M)`` companion.

For each detection bound ``T_D^U``, all algorithms are configured to send
heartbeats at the same rate (η = 1) and satisfy ``T_D ≤ T_D^U``:

* NFD-S with ``δ = T_D^U − η`` (Theorem 5.1);
* NFD-E with ``α = T_D^U − E(D) − η`` and a 32-message window;
* SFD-L: cutoff ``c = 0.16`` (8·E(D)), ``TO = T_D^U − c``;
* SFD-S: cutoff ``c = 0.08`` (4·E(D)), ``TO = T_D^U − c``;

and the accuracy — ``E(T_MR)``, ``E(T_M)``, ``P_A`` — is measured over a
failure-free run of at least ``target_mistakes`` mistake-recurrence
intervals (the paper uses 500), or of ``max_heartbeats`` heartbeats if
that comes first.  The kernels test the count only between draws of
4·10⁶ heartbeats, so a point whose mistakes are frequent overshoots
the target: at ``T_D^U = 1.25`` NFD-S asks for 200 and tallies 39 899.
The analytic ``E(T_MR)`` of Theorem 5 is plotted alongside.

Expected shape (paper's findings, all reproduced):

* NFD-S simulation ≈ analytic curve;
* NFD-E ≈ NFD-S;
* both beat SFD-L/SFD-S by up to an order of magnitude at larger
  ``T_D^U``, because the cutoff forces SFD into a bad trade-off;
* every algorithm's ``E(T_M)`` stays below ≈ η = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence

from repro.analysis.nfds_theory import NFDSAnalysis
from repro.experiments.common import (
    FIG12_SETTINGS,
    ExperimentTable,
    Fig12Settings,
    steady_state_warmup,
)
from repro.sim.fastsim import (
    FastAccuracyResult,
    simulate_nfde_fast,
    simulate_nfds_fast,
    simulate_sfd_fast,
)
from repro.sim.parallel import parallel_map

__all__ = [
    "Fig12Point",
    "run_fig12",
    "fig12_tmr_table",
    "fig12_tm_table",
    "fig12_ascii_plot",
]


@dataclass
class Fig12Point:
    """All measurements for one ``T_D^U`` value."""

    tdu: float
    analytic_tmr: float
    analytic_tm: float
    nfds: FastAccuracyResult
    nfde: FastAccuracyResult
    sfd_l: FastAccuracyResult
    sfd_s: FastAccuracyResult


def _fig12_tasks(
    idx: int,
    tdu: float,
    settings: Fig12Settings,
    target_mistakes: int,
    max_heartbeats: int,
    seed: int,
) -> List[Callable[[], FastAccuracyResult]]:
    """The four kernel calls (nfds, nfde, sfd_l, sfd_s) of one point.

    Seeds are a pure function of ``(seed, idx)``, so the calls can be
    evaluated in any order, on any worker, with identical results.
    """
    eta = settings.eta
    delta = tdu - eta
    if delta < 0:
        raise ValueError(f"T_D^U={tdu} smaller than eta={eta}")
    alpha = tdu - settings.mean_delay - eta
    common = dict(
        eta=eta,
        loss_probability=settings.loss_probability,
        delay=settings.delay,
        target_mistakes=target_mistakes,
        max_heartbeats=max_heartbeats,
    )

    def sfd(cutoff: float, offset: int) -> Callable[[], FastAccuracyResult]:
        return partial(
            simulate_sfd_fast,
            timeout=tdu - cutoff,
            cutoff=cutoff,
            seed=seed + 7 * idx + offset,
            warmup=steady_state_warmup(
                eta, timeout=tdu - cutoff, cutoff=cutoff
            ),
            **common,
        )

    return [
        partial(
            simulate_nfds_fast,
            delta=delta,
            seed=seed + 7 * idx,
            warmup=steady_state_warmup(eta, delta=delta),
            **common,
        ),
        partial(
            simulate_nfde_fast,
            alpha=alpha,
            window=settings.nfde_window,
            seed=seed + 7 * idx + 1,
            warmup=steady_state_warmup(
                eta,
                alpha=alpha,
                mean_delay=settings.mean_delay,
                window=settings.nfde_window,
            ),
            **common,
        ),
        sfd(settings.cutoff_large, 2),
        sfd(settings.cutoff_small, 3),
    ]


def run_fig12(
    tdu_values: Optional[Sequence[float]] = None,
    settings: Fig12Settings = FIG12_SETTINGS,
    target_mistakes: int = 500,
    max_heartbeats: int = 50_000_000,
    seed: int = 2000,
    jobs: Optional[int] = 1,
) -> List[Fig12Point]:
    """Run the Fig. 12 sweep; one :class:`Fig12Point` per ``T_D^U``.

    ``max_heartbeats`` caps the per-point work; at the paper's full scale
    (T_D^U = 3.5 needs ≈ 5·10⁸ heartbeats for 500 mistakes) pass a larger
    cap, e.g. via ``python -m repro.experiments fig12 --full``.

    ``jobs`` fans the kernel calls (four per grid point) out over worker
    processes (:mod:`repro.sim.parallel`); results are bit-identical to
    ``jobs=1`` for the same seed.  ``0``/``None`` uses all cores.
    """
    if tdu_values is None:
        tdu_values = settings.tdu_grid()
    tasks = [
        task
        for idx, tdu in enumerate(tdu_values)
        for task in _fig12_tasks(
            idx, tdu, settings, target_mistakes, max_heartbeats, seed
        )
    ]
    results = parallel_map(lambda task: task(), tasks, jobs=jobs)
    points = []
    for idx, tdu in enumerate(tdu_values):
        nfds, nfde, sfd_l, sfd_s = results[4 * idx : 4 * idx + 4]
        analysis = NFDSAnalysis(
            settings.eta,
            tdu - settings.eta,
            settings.loss_probability,
            settings.delay,
        )
        points.append(
            Fig12Point(
                tdu=tdu,
                analytic_tmr=analysis.e_tmr(),
                analytic_tm=analysis.e_tm(),
                nfds=nfds,
                nfde=nfde,
                sfd_l=sfd_l,
                sfd_s=sfd_s,
            )
        )
    return points


def fig12_tmr_table(points: Sequence[Fig12Point]) -> ExperimentTable:
    """E1: average mistake recurrence time ``E(T_MR)`` vs ``T_D^U``."""
    table = ExperimentTable(
        title=(
            "Fig. 12 — E(T_MR) vs detection bound T_D^U "
            "(eta=1, p_L=0.01, D~Exp(0.02))"
        ),
        columns=[
            "T_D^U",
            "analytic",
            "NFD-S",
            "NFD-E",
            "SFD-L",
            "SFD-S",
            "NFD/SFD-L",
        ],
    )
    for p in points:
        advantage = (
            p.nfds.e_tmr / p.sfd_l.e_tmr
            if not math.isnan(p.nfds.e_tmr) and not math.isnan(p.sfd_l.e_tmr)
            else math.nan
        )
        table.add_row(
            p.tdu,
            p.analytic_tmr,
            p.nfds.e_tmr,
            p.nfde.e_tmr,
            p.sfd_l.e_tmr,
            p.sfd_s.e_tmr,
            advantage,
        )
    truncated = [p.tdu for p in points if p.nfds.truncated]
    if truncated:
        table.add_note(
            f"NFD points capped by max_heartbeats at T_D^U={truncated} "
            "(fewer than the target mistake count observed; at full scale "
            "run with --full)"
        )
    table.add_note(
        "paper: NFD-S/NFD-E track the analytic curve and beat SFD by up "
        "to an order of magnitude at larger T_D^U"
    )
    return table


def fig12_ascii_plot(points: Sequence[Fig12Point]) -> str:
    """Log-scale ASCII rendering of the Fig. 12 series."""
    from repro.experiments.ascii_plot import render_series

    xs = [p.tdu for p in points]
    return render_series(
        xs,
        [
            ("-", "analytic", [p.analytic_tmr for p in points]),
            ("+", "NFD-S", [p.nfds.e_tmr for p in points]),
            ("x", "NFD-E", [p.nfde.e_tmr for p in points]),
            ("o", "SFD-L", [p.sfd_l.e_tmr for p in points]),
            ("*", "SFD-S", [p.sfd_s.e_tmr for p in points]),
        ],
        title="Fig. 12 (ASCII): E(T_MR) vs T_D^U, log scale",
    )


def fig12_tm_table(points: Sequence[Fig12Point]) -> ExperimentTable:
    """E2: average mistake duration ``E(T_M)`` (companion to Fig. 12).

    The paper omits the plot because every algorithm's ``E(T_M)`` is
    similar and bounded above by ≈ η = 1; this table shows exactly that.
    """
    table = ExperimentTable(
        title="E(T_M) companion table (paper: all ≈ bounded above by eta=1)",
        columns=["T_D^U", "analytic", "NFD-S", "NFD-E", "SFD-L", "SFD-S"],
    )
    for p in points:
        table.add_row(
            p.tdu,
            p.analytic_tm,
            p.nfds.e_tm,
            p.nfde.e_tm,
            p.sfd_l.e_tm,
            p.sfd_s.e_tm,
        )
    return table
