"""Tests for task supervision (tier-1: sub-second event loops)."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import InvalidParameterError
from repro.live.supervisor import TaskSupervisor


def run(coro):
    return asyncio.run(coro)


class TestCrashRecording:
    def test_crash_recorded_without_restart(self):
        async def main():
            sup = TaskSupervisor()

            async def boom():
                raise ValueError("sender exploded")

            sup.spawn("s", boom)
            await asyncio.sleep(0.02)
            assert len(sup.crashes) == 1
            assert sup.crashes[0].name == "s"
            assert isinstance(sup.crashes[0].error, ValueError)
            assert sup.crashes[0].attempt == 0  # never restarted
            assert not sup.alive("s")
            await sup.shutdown()

        run(main())

    def test_restart_until_budget(self):
        async def main():
            sup = TaskSupervisor(max_restarts=2, backoff=0.0)
            attempts = []

            async def flaky():
                attempts.append(1)
                raise RuntimeError("flaky")

            sup.spawn("f", flaky, restart=True)
            await asyncio.sleep(0.05)
            # first run + 2 restarts, then the budget is exhausted
            assert len(attempts) == 3
            assert [c.attempt for c in sup.crashes] == [0, 1, 2]
            await sup.shutdown()

        run(main())

    def test_restart_recovers(self):
        async def main():
            sup = TaskSupervisor(max_restarts=3, backoff=0.0)
            state = {"runs": 0}
            done = asyncio.Event()

            async def crashes_once():
                state["runs"] += 1
                if state["runs"] == 1:
                    raise RuntimeError("first run dies")
                done.set()

            sup.spawn("c", crashes_once, restart=True)
            await asyncio.wait_for(done.wait(), timeout=1.0)
            assert state["runs"] == 2
            assert [c.attempt for c in sup.crashes] == [0]  # one restart
            await sup.shutdown()

        run(main())


class TestCancellation:
    def test_cancel_is_not_a_crash(self):
        async def main():
            sup = TaskSupervisor()

            async def forever():
                await asyncio.sleep(3600)

            sup.spawn("f", forever, restart=True)
            await asyncio.sleep(0)
            await sup.cancel("f")
            assert sup.crashes == []
            assert not sup.alive("f")
            await sup.shutdown()

        run(main())

    def test_shutdown_cancels_everything(self):
        async def main():
            sup = TaskSupervisor()
            for i in range(5):

                async def forever():
                    await asyncio.sleep(3600)

                sup.spawn(f"t{i}", forever)
            await asyncio.sleep(0)
            await sup.shutdown()
            assert not any(sup.alive(f"t{i}") for i in range(5))

        run(main())


class TestValidation:
    def test_duplicate_name_rejected(self):
        async def main():
            sup = TaskSupervisor()

            async def noop():
                pass

            sup.spawn("x", noop)
            with pytest.raises(InvalidParameterError):
                sup.spawn("x", noop)
            await sup.shutdown()

        run(main())

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            TaskSupervisor(max_restarts=-1)
        with pytest.raises(InvalidParameterError):
            TaskSupervisor(backoff=-0.1)
