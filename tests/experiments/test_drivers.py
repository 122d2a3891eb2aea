"""Smoke + shape tests for every experiment driver (E1-E11).

Each driver runs at a reduced scale here; the *shape* assertions encode
the paper's qualitative findings, which must hold at any scale.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.adaptive_exp import AdaptiveScenario, run_adaptive
from repro.experiments.cli import main
from repro.experiments.config_examples import run_config_examples
from repro.experiments.cutoff_ablation import run_cutoff_ablation
from repro.experiments.detection_time import run_detection_time
from repro.experiments.distributions import run_distributions
from repro.experiments.fig12 import fig12_tm_table, fig12_tmr_table, run_fig12
from repro.experiments.nfde_window import run_nfde_window
from repro.experiments.optimality import run_optimality
from repro.experiments.phi_comparison import run_phi_comparison

QUICK = dict(target_mistakes=150, max_heartbeats=3_000_000)
RESULTS = Path(__file__).resolve().parents[2] / "results"


@pytest.mark.slow
class TestFig12:
    def test_shape_of_the_headline_figure(self):
        points = run_fig12(
            tdu_values=[1.5, 2.5], seed=1, **QUICK
        )
        tmr = fig12_tmr_table(points)
        tm = fig12_tm_table(points)
        assert len(tmr.rows) == 2
        for p in points:
            # NFD-S tracks the analytic curve.
            assert p.nfds.e_tmr == pytest.approx(p.analytic_tmr, rel=0.25)
            # NFD-E is close to NFD-S (paper: "very similar").
            assert p.nfde.e_tmr == pytest.approx(p.nfds.e_tmr, rel=0.35)
            # SFD-S is far worse at equal bound and bandwidth.
            assert p.nfds.e_tmr > 2.0 * p.sfd_s.e_tmr
            # E(T_M) bounded by ~eta for every algorithm (E2).
            for r in (p.nfds, p.nfde, p.sfd_l, p.sfd_s):
                assert r.e_tm <= 1.0 + 1e-6
        assert "T_D^U" in tmr.columns
        assert len(tm.rows) == 2


class TestConfigExamples:
    def test_paper_numbers_in_table(self):
        table = run_config_examples()
        assert len(table.rows) == 3
        sec4 = table.rows[0]
        assert sec4[1] == pytest.approx(9.97, abs=0.05)  # eta
        assert sec4[2] == pytest.approx(20.03, abs=0.05)  # delta
        sec5 = table.rows[1]
        assert sec5[1] == pytest.approx(9.71, abs=0.05)
        assert sec5[2] == pytest.approx(20.29, abs=0.05)
        # Both configurations must meet the contract.
        for row in table.rows[:2]:
            assert row[5] >= 2_592_000 * (1 - 1e-9)  # E(T_MR)
            assert row[6] <= 60.0  # E(T_M)


@pytest.mark.slow
class TestOptimality:
    def test_nfds_star_has_best_query_accuracy(self):
        table = run_optimality(
            tdu=2.0, target_mistakes=400, max_heartbeats=3_000_000
        )
        pa = table.column("P_A (sim)")
        assert pa[0] == max(pa)


@pytest.mark.slow
class TestNfdeWindow:
    def test_accuracy_approaches_nfdu(self):
        table = run_nfde_window(
            windows=[2, 32], target_mistakes=400,
            max_heartbeats=3_000_000,
        )
        ratios = table.column("E(T_MR)/NFD-U")
        # n=32 closer to 1 than n=2 (paper: indistinguishable by n≈30).
        assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0)
        assert abs(ratios[2] - 1.0) < 0.15


class TestDetectionTime:
    def test_bounds_hold(self):
        table = run_detection_time(tdu=2.0, n_runs=60)
        held = table.column("bound held")
        # NFD-S and cutoff-SFD rows must hold their bounds.
        assert held[0] == "yes"
        assert held[2] == "yes"
        bounds = table.column("bound")
        maxes = table.column("max T_D")
        assert maxes[0] <= bounds[0] + 1e-9
        # The NFD-S bound is tight: the worst crash phase comes close.
        assert maxes[0] > bounds[0] - 0.15


@pytest.mark.slow
class TestCutoffAblation:
    def test_tradeoff_shape(self):
        table = run_cutoff_ablation(
            tdu=2.5,
            cutoffs=[0.02, 0.16, 1.28],
            target_mistakes=300,
            max_heartbeats=3_000_000,
        )
        tmr = table.column("E(T_MR)")
        # Tiny cutoff discards too much; huge cutoff starves the timer;
        # the middle is best — and still at most ~NFD-S (last row).
        assert tmr[1] > tmr[0]
        assert tmr[1] > tmr[2]
        assert tmr[-1] >= tmr[1] * 0.8  # NFD reference at least competitive


@pytest.mark.slow
class TestDistributions:
    def test_families_separate_and_respect_bound(self):
        table = run_distributions(
            target_mistakes=300, max_heartbeats=3_000_000
        )
        exact = [v for v in table.column("E(T_MR) exact")]
        assert max(exact) / min(exact) > 5.0  # shape matters
        # All exact values respect the distribution-free Theorem 9 bound
        # stated in the note.
        note = table.notes[0]
        bound = float(note.split(">=")[1].split(",")[0])
        assert all(v >= bound * (1 - 1e-9) for v in exact)
        # Simulation agrees with the exact value in every family.
        for e, s in zip(exact, table.column("E(T_MR) sim")):
            assert s == pytest.approx(e, rel=0.35)


@pytest.mark.slow
class TestAdaptive:
    def test_adaptive_beats_fixed_in_peak_phase(self):
        table = run_adaptive(
            AdaptiveScenario(
                t1=5_000.0, t2=10_000.0, horizon=15_000.0,
                mistake_recurrence_lower=20_000.0,
            )
        )
        regimes = table.column("regime")
        fixed = table.column("fixed rate")
        adaptive = table.column("adaptive rate")
        etas = table.column("adaptive eta")
        peak = regimes.index("peak")
        assert adaptive[peak] < fixed[peak] / 5.0
        # The adaptive detector bought accuracy with bandwidth.
        assert etas[peak] < etas[0]


@pytest.mark.slow
class TestGossipComparison:
    def test_matched_budgets_and_finite_detection(self):
        from repro.experiments.gossip_comparison import run_gossip_comparison

        table = run_gossip_comparison(horizon=4_000.0, n_crash_runs=20)
        budgets = table.column("msgs/s/process")
        assert budgets[0] == pytest.approx(budgets[1], rel=0.05)
        assert all(v < 1e6 for v in table.column("max T_D"))
        # Speeds were equalised by construction, up to estimation noise.
        mean_td = table.column("mean T_D")
        assert mean_td[1] == pytest.approx(mean_td[0], rel=0.5)


@pytest.mark.slow
class TestPhiComparison:
    def test_nfde_bounded_phi_tradeoff(self):
        table = run_phi_comparison(
            tdu=2.0,
            thresholds=[1.0, 8.0],
            horizon=5_000.0,
            n_crash_runs=30,
        )
        max_td = table.column("max T_D")
        # NFD-E's T_D is at most alpha + eta (= 1.98) plus its
        # window's mean delay: near E(D) = 0.02, not bounded by it.
        assert max_td[0] <= 2.0 + 0.02
        # φ-accrual's detection time grows with the threshold.
        mean_td = table.column("mean T_D")
        assert mean_td[1] < mean_td[2]

    def test_committed_table_is_current(self, tmp_path):
        """``results/phi-accrual.txt`` is what the CLI regenerates, byte
        for byte: a stale table fails here, not in a later review."""
        main(["phi-accrual", "--out", str(tmp_path)])
        committed = RESULTS / "phi-accrual.txt"
        assert (tmp_path / "phi-accrual.txt").read_bytes() == (
            committed.read_bytes()
        )
