"""E6 — Theorem 6 empirically: NFD-S has the best query accuracy.

Among all detectors that (a) send heartbeats every η and (b) guarantee
``T_D ≤ T_D^U``, NFD-S with ``δ = T_D^U − η`` maximizes ``P_A``.  We
check the claim against every competitor in this library that satisfies
(a) and (b): the cutoff SFDs at several cutoffs, and NFD-S itself with a
*sub-optimal* (smaller) δ — all measured on the same workload.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.analysis.nfds_theory import NFDSAnalysis
from repro.experiments.common import (
    FIG12_SETTINGS,
    ExperimentTable,
    steady_state_warmup,
)
from repro.sim.fastsim import (
    FastAccuracyResult,
    simulate_nfds_fast,
    simulate_sfd_fast,
)
from repro.sim.parallel import parallel_map

__all__ = ["run_optimality"]

#: the base seed of the committed table
SEED = 606


def run_optimality(
    tdu: float = 2.0,
    target_mistakes: int = 2000,
    max_heartbeats: int = 20_000_000,
    jobs: Optional[int] = 1,
) -> ExperimentTable:
    """Compare ``P_A`` across same-rate, same-detection-bound detectors.

    ``jobs`` fans the table rows out over worker processes; the rows
    (and their seeds) are identical to serial evaluation.
    """
    cutoffs = [0.04, 0.08, 0.16, 0.32, 0.64]
    eta = FIG12_SETTINGS.eta
    p_l = FIG12_SETTINGS.loss_probability
    delay = FIG12_SETTINGS.delay
    delta_star = tdu - eta

    table = ExperimentTable(
        title=(
            f"Theorem 6 (optimality): P_A at equal rate eta={eta} and "
            f"equal detection bound T_D^U={tdu}"
        ),
        columns=["detector", "P_A (sim)", "1-P_A (sim)", "E(T_MR)", "E(T_M)"],
    )

    common = dict(
        eta=eta,
        loss_probability=p_l,
        delay=delay,
        target_mistakes=target_mistakes,
        max_heartbeats=max_heartbeats,
    )

    def nfds(delta: float, seed: int) -> Callable[[], FastAccuracyResult]:
        return partial(
            simulate_nfds_fast,
            delta=delta,
            seed=seed,
            warmup=steady_state_warmup(eta, delta=delta),
            **common,
        )

    # One (label, kernel call) per table row, so the fan-out reproduces
    # exactly the serial seeds and ordering.  The sub-optimal NFD-S rows
    # show delta = T_D^U - eta is the right choice within the NFD family
    # too.
    rows = [(f"NFD-S* (delta={delta_star:g})", nfds(delta_star, SEED))]
    for frac in (0.5, 0.75):
        delta = delta_star * frac
        rows.append((f"NFD-S (delta={delta:g})", nfds(delta, SEED + 1)))
    for c in cutoffs:
        if c >= tdu:
            continue
        sfd = partial(
            simulate_sfd_fast,
            timeout=tdu - c,
            cutoff=c,
            seed=SEED + 2,
            warmup=steady_state_warmup(eta, timeout=tdu - c, cutoff=c),
            **common,
        )
        rows.append((f"SFD (c={c:g})", sfd))

    results = parallel_map(lambda row: row[1](), rows, jobs=jobs)
    for (label, _task), r in zip(rows, results):
        table.add_row(
            label,
            r.query_accuracy,
            1.0 - r.query_accuracy,
            r.e_tmr,
            r.e_tm,
        )

    analytic = NFDSAnalysis(eta, delta_star, p_l, delay)
    table.add_note(
        f"analytic P_A of NFD-S*: {analytic.query_accuracy():.8f}"
    )
    table.add_note(
        "Theorem 6 predicts the first row has the highest P_A of all rows"
    )
    return table
