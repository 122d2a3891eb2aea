"""E5 — NFD-E vs NFD-U as a function of the estimation window n.

Section 6.3: "Our simulations show that NFD-E and NFD-U are practically
indistinguishable for values of n as low as 30."  We sweep n and compare
NFD-E's accuracy to NFD-U's (known expected arrival times) at the same
``(η, α)``: small windows pay an accuracy penalty (a noisy ``EA``
estimate effectively jitters the freshness points), which vanishes as n
grows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.nfde_theory import nfde_approximation
from repro.experiments.common import (
    FIG12_SETTINGS,
    ExperimentTable,
    steady_state_warmup,
)
from repro.sim.fastsim import simulate_nfde_fast, simulate_nfdu_fast
from repro.sim.parallel import parallel_map

__all__ = ["run_nfde_window"]

#: the base seed of the committed table
SEED = 505


def run_nfde_window(
    windows: Optional[Sequence[int]] = None,
    target_mistakes: int = 2000,
    max_heartbeats: int = 20_000_000,
    jobs: Optional[int] = 1,
) -> ExperimentTable:
    """Sweep the EA-estimation window and compare against NFD-U.

    ``jobs`` fans the sweep points (the NFD-U reference plus one point
    per window) out over worker processes with identical results.
    """
    if windows is None:
        windows = [2, 4, 8, 16, 32, 64]
    tdu = 2.0
    eta = FIG12_SETTINGS.eta
    p_l = FIG12_SETTINGS.loss_probability
    delay = FIG12_SETTINGS.delay
    alpha = tdu - FIG12_SETTINGS.mean_delay - eta

    def evaluate(n: Optional[int]):
        if n is None:  # the NFD-U (known EA) reference
            return simulate_nfdu_fast(
                eta,
                alpha,
                p_l,
                delay,
                seed=SEED,
                target_mistakes=target_mistakes,
                max_heartbeats=max_heartbeats,
                warmup=steady_state_warmup(
                    eta, alpha=alpha, mean_delay=FIG12_SETTINGS.mean_delay, window=1
                ),
            )
        return simulate_nfde_fast(
            eta,
            alpha,
            p_l,
            delay,
            window=int(n),
            seed=SEED + 13 + n,
            target_mistakes=target_mistakes,
            max_heartbeats=max_heartbeats,
            warmup=steady_state_warmup(
                eta, alpha=alpha, mean_delay=FIG12_SETTINGS.mean_delay, window=int(n)
            ),
        )

    results = parallel_map(evaluate, [None] + list(windows), jobs=jobs)
    ref = results[0]

    table = ExperimentTable(
        title=(
            f"NFD-E vs NFD-U (T_D^u+E(D)={tdu}): accuracy vs estimation "
            f"window n (paper: indistinguishable from n ≈ 30)"
        ),
        columns=[
            "window n",
            "E(T_MR)",
            "E(T_MR) model",
            "E(T_M)",
            "P_A",
            "E(T_MR)/NFD-U",
        ],
    )
    table.add_row(
        "NFD-U (exact)",
        ref.e_tmr,
        None,
        ref.e_tm,
        ref.query_accuracy,
        1.0,
    )
    for n, r in zip(windows, results[1:]):
        model = nfde_approximation(eta, alpha, p_l, delay, window=int(n))
        table.add_row(
            n,
            r.e_tmr,
            model["e_tmr"],
            r.e_tm,
            r.query_accuracy,
            r.e_tmr / ref.e_tmr,
        )
    table.add_note(
        "'E(T_MR) model' is this repo's Gauss-Hermite approximation of "
        "the EA-estimation noise (extension; exact NFD-U value as n->inf)"
    )
    return table
