"""E8 — the SFD cutoff trade-off (Section 7.2's discussion).

Given a fixed detection bound ``T_D^U = c + TO``, the cutoff c trades two
evils: a larger c keeps more heartbeats but shortens the timeout
(premature timeouts), a smaller c keeps a generous timeout but discards
more heartbeats (acts like extra message loss).  The paper argues this
trade-off is *inherently* bad — no c value lets SFD match NFD.  This
ablation sweeps c and places NFD-S's accuracy (same rate, same bound)
alongside as the reference.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.analysis.sfd_theory import SFDAnalysis
from repro.experiments.common import (
    FIG12_SETTINGS,
    ExperimentTable,
    steady_state_warmup,
)
from repro.sim.fastsim import simulate_nfds_fast, simulate_sfd_fast
from repro.sim.parallel import parallel_map

__all__ = ["run_cutoff_ablation"]

#: the base seed of the committed table
SEED = 808


def run_cutoff_ablation(
    tdu: float = 2.5,
    cutoffs: Optional[Sequence[float]] = None,
    target_mistakes: int = 1000,
    max_heartbeats: int = 20_000_000,
    jobs: Optional[int] = 1,
) -> ExperimentTable:
    """Sweep the SFD cutoff at a fixed detection bound.

    ``jobs`` fans the cutoff points (plus the NFD-S reference) out over
    worker processes with identical results.
    """
    if cutoffs is None:
        cutoffs = [0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28]
    eta = FIG12_SETTINGS.eta
    p_l = FIG12_SETTINGS.loss_probability
    delay = FIG12_SETTINGS.delay

    table = ExperimentTable(
        title=(
            f"SFD cutoff ablation at T_D^U={tdu} "
            f"(TO = T_D^U − c; discard rate = P(D > c))"
        ),
        columns=[
            "cutoff c",
            "timeout TO",
            "discard P(D>c)",
            "E(T_MR)",
            "E(T_MR) model",
            "E(T_M)",
            "P_A",
        ],
    )
    sweep = [c for c in cutoffs if c < tdu]

    common = dict(
        eta=eta,
        loss_probability=p_l,
        delay=delay,
        target_mistakes=target_mistakes,
        max_heartbeats=max_heartbeats,
    )
    tasks = [
        partial(
            simulate_sfd_fast,
            timeout=tdu - c,
            cutoff=c,
            seed=SEED,
            warmup=steady_state_warmup(eta, timeout=tdu - c, cutoff=c),
            **common,
        )
        for c in sweep
    ]
    # The NFD-S reference at equal rate and bound.
    tasks.append(
        partial(
            simulate_nfds_fast,
            delta=tdu - eta,
            seed=SEED + 1,
            warmup=steady_state_warmup(eta, delta=tdu - eta),
            **common,
        )
    )
    results = parallel_map(lambda task: task(), tasks, jobs=jobs)
    for c, r in zip(sweep, results):
        model = (
            SFDAnalysis(eta, tdu - c, p_l, delay, cutoff=c).e_tmr()
            if c < eta
            else None
        )
        table.add_row(
            c,
            tdu - c,
            float(delay.sf(c)),
            r.e_tmr,
            model,
            r.e_tm,
            r.query_accuracy,
        )

    ref = results[-1]
    table.add_row(
        "NFD-S (ref)", None, None, ref.e_tmr, None, ref.e_tm,
        ref.query_accuracy,
    )
    table.add_note(
        "paper's claim: every cutoff choice leaves SFD behind NFD-S at "
        "equal bandwidth and detection bound"
    )
    table.add_note(
        "'E(T_MR) model' is this repo's analytic SFD model (extension; "
        "requires c < eta), validating the simulated column"
    )
    return table
