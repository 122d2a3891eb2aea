"""The live CLI's fast-path flags and the gated uvloop selection."""

from __future__ import annotations

import pytest

from repro.experiments.live_cli import _build_parser, live_main
from repro.live.loops import install_uvloop, uvloop_available


class TestFastPathFlags:
    def test_soak_flags_reach_the_config(self, monkeypatch):
        captured = {}

        def fake_run_soak(config):
            captured["config"] = config
            raise SystemExit(0)

        import repro.live.soak as soak_mod

        monkeypatch.setattr(soak_mod, "run_soak", fake_run_soak)
        with pytest.raises(SystemExit):
            live_main(
                [
                    "soak",
                    "--drain-batch",
                    "64",
                    "--fanout",
                    "--duration",
                    "5",
                ]
            )
        config = captured["config"]
        assert config.drain_batch == 64
        assert config.fanout is True

    def test_monitor_flags_parse_with_defaults(self):
        args = _build_parser().parse_args(
            ["monitor", "--port", "9999"]
        )
        assert args.drain_batch == 256
        assert not hasattr(args, "no_batched_socket")
        assert args.uvloop is False


class TestUvloopGate:
    def test_flag_fails_loudly_when_uvloop_missing(self, capsys):
        if uvloop_available():  # pragma: no cover - env dependent
            pytest.skip("uvloop installed in this environment")
        code = live_main(["soak", "--uvloop", "--duration", "5"])
        assert code == 2
        assert "uvloop" in capsys.readouterr().err

    def test_install_returns_false_without_package(self):
        if uvloop_available():  # pragma: no cover - env dependent
            pytest.skip("uvloop installed in this environment")
        assert install_uvloop() is False
