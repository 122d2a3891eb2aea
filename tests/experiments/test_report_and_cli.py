"""Tests for the CLI plumbing."""

from __future__ import annotations

import pytest

from repro.experiments.cli import _EXPERIMENTS, main


class TestCLI:
    def test_experiment_registry_covers_design_index(self):
        for name in (
            "fig12",
            "config-examples",
            "nfde-window",
            "optimality",
            "detection-time",
            "cutoff-ablation",
            "distributions",
            "adaptive",
            "phi-accrual",
            "profile-costs",
        ):
            assert name in _EXPERIMENTS

    def test_cli_runs_one_experiment(self, capsys, tmp_path):
        rc = main(["config-examples", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Configuration procedures" in out
        assert (tmp_path / "config-examples.txt").exists()

    def test_full_run_never_overwrites_the_reduced_tables(self, tmp_path):
        reduced = tmp_path / "config-examples.txt"
        reduced.write_text("reduced\n")
        assert main(["config-examples", "--full", "--out", str(tmp_path)]) == 0
        assert reduced.read_text() == "reduced\n"
        assert (tmp_path / "config-examples-full.txt").exists()

    def test_cli_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["no-such-thing"])


class TestTelemetryOut:
    def test_cli_writes_schema_valid_snapshots(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        from repro import telemetry
        from repro.net.delays import ExponentialDelay
        from repro.sim.fastsim import simulate_nfds_fast
        from repro.telemetry.export import validate_record

        # config-examples is purely analytic and records nothing; wrap
        # it so the run drives a fastsim kernel under the CLI-enabled
        # registry, proving the whole chain end to end.
        def with_kernel(full, jobs):
            simulate_nfds_fast(
                eta=1.0,
                delta=1.0,
                loss_probability=0.05,
                delay=ExponentialDelay(0.1),
                seed=3,
                target_mistakes=10**9,
                max_heartbeats=500,
                chunk_size=500,
            )
            return _EXPERIMENTS["config-examples"](full, jobs)

        monkeypatch.setattr(
            "repro.experiments.cli._EXPERIMENTS",
            {"config-examples": with_kernel},
        )
        out = tmp_path / "telemetry.jsonl"
        rc = main(["config-examples", "--telemetry-out", str(out)])
        assert rc == 0
        # The global switch is restored after the run.
        assert telemetry.active() is None
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        validate_record(record)
        assert record["label"] == "config-examples"
        counters = record["metrics"]["counters"]
        assert any(k.startswith("fastsim_runs_total") for k in counters)
        prom = tmp_path / "telemetry.prom"
        assert prom.exists()
        assert "# TYPE fastsim_runs_total counter" in prom.read_text()
