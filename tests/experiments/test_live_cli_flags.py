"""The live CLI's flags: what reaches the run, and no fork left to set."""

from __future__ import annotations

import pytest

from repro.experiments.live_cli import _build_parser, live_main


class TestFastPathFlags:
    def test_soak_flags_reach_the_config(self, monkeypatch):
        captured = {}

        def fake_run_soak(config):
            captured["config"] = config
            raise SystemExit(0)

        import repro.live.soak as soak_mod

        monkeypatch.setattr(soak_mod, "run_soak", fake_run_soak)
        with pytest.raises(SystemExit):
            live_main(["soak", "--peers", "3", "--duration", "5"])
        config = captured["config"]
        assert (config.peers, config.duration) == (3, 5.0)

    def test_monitor_flags_parse_with_defaults(self):
        args = _build_parser().parse_args(["monitor", "--port", "9999"])
        assert (args.eta, args.delta, args.detector) == (1.0, 0.5, "nfd-s")
        roles = (
            ["soak"],
            ["monitor", "--port", "1"],
            ["send", "--name", "p", "--port", "1"],
        )
        for argv in roles:
            _build_parser().parse_args(argv)
            for fork in (["--drain-batch", "64"], ["--fanout"], ["--uvloop"]):
                with pytest.raises(SystemExit):
                    _build_parser().parse_args(argv + fork)
