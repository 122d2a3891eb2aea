"""E11 — the φ-accrual descendant vs NFD-E on the Section 7 workload."""

from __future__ import annotations

import pytest

from repro.experiments.phi_comparison import run_phi_comparison


@pytest.mark.benchmark(group="extension")
def test_phi_accrual_comparison(benchmark, emit):
    table = benchmark.pedantic(
        run_phi_comparison,
        kwargs=dict(
            tdu=2.0,
            thresholds=[1.0, 2.0, 4.0, 8.0],
            horizon=20_000.0,
            n_crash_runs=80,
        ),
        rounds=1,
        iterations=1,
    )
    emit(table, "phi_accrual")

    max_td = table.column("max T_D")
    mean_td = table.column("mean T_D")
    # NFD-E's T_D is at most alpha + eta (= 1.98) plus its window's
    # mean delay: near E(D) = 0.02, not bounded by it.
    assert max_td[0] <= 2.0 + 0.02
    # φ-accrual trades detection speed for accuracy with the threshold.
    assert mean_td[1] < mean_td[-1]
