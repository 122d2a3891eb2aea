"""Per-peer task supervision for the live runtime.

A long-running monitor is only as reliable as its weakest coroutine: a
sender loop or the monitor's inbox consumer dying on an unexpected
exception must not silently stop the heartbeat stream (which a failure
detector would then *correctly* report as a crash — of the wrong
component).  :class:`TaskSupervisor` wraps every spawned coroutine in a
runner that records crashes and, for tasks marked restartable, restarts
them with linear backoff up to a restart budget.

Deliberate cancellation (kill schedules, shutdown) is not a crash:
``CancelledError`` propagates and is never restarted.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional

from repro.errors import InvalidParameterError, SimulationError

__all__ = ["TaskCrash", "TaskSupervisor"]

CoroFactory = Callable[[], Awaitable[None]]


@dataclass(frozen=True)
class TaskCrash:
    """One unexpected task failure, as seen by the supervisor."""

    name: str
    error: BaseException
    loop_time: float
    attempt: int  # 0 for the first run, n for the n-th restart


@dataclass
class _Supervised:
    name: str
    factory: Optional[CoroFactory]  # None once shut down
    restart: bool
    task: Optional[asyncio.Task] = None
    crashes: List[TaskCrash] = field(default_factory=list)


class TaskSupervisor:
    """Spawns, tracks, restarts, and tears down a set of named tasks.

    Args:
        max_restarts: restart budget *per task* (crashes beyond it leave
            the task dead and recorded).
        backoff: base delay before a restart; the n-th restart of a task
            waits ``n * backoff`` seconds.
    """

    def __init__(self, max_restarts: int = 3, backoff: float = 0.05) -> None:
        if max_restarts < 0:
            raise InvalidParameterError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        if backoff < 0:
            raise InvalidParameterError(f"backoff must be >= 0, got {backoff}")
        self._max_restarts = int(max_restarts)
        self._backoff = float(backoff)
        self._tasks: Dict[str, _Supervised] = {}
        self._closed = False

    # ------------------------------------------------------------------ #

    def spawn(
        self, name: str, factory: CoroFactory, restart: bool = False
    ) -> asyncio.Task:
        """Start ``factory()`` as a supervised task.

        Args:
            name: unique task name (reused names are an error).
            factory: zero-argument callable producing a fresh coroutine;
                called again on every restart.
            restart: restart on unexpected exceptions (within budget).
        """
        if self._closed:
            raise SimulationError("supervisor already shut down")
        if name in self._tasks:
            raise InvalidParameterError(f"task {name!r} already supervised")
        entry = _Supervised(name=name, factory=factory, restart=restart)
        entry.task = asyncio.get_running_loop().create_task(
            self._run(entry), name=f"supervised:{name}"
        )
        self._tasks[name] = entry
        return entry.task

    async def _run(self, entry: _Supervised) -> None:
        attempt = 0
        while True:
            try:
                await entry.factory()
                return
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                entry.crashes.append(
                    TaskCrash(
                        name=entry.name,
                        error=exc,
                        loop_time=asyncio.get_running_loop().time(),
                        attempt=attempt,
                    )
                )
                if not entry.restart or attempt >= self._max_restarts:
                    return
                attempt += 1
                await asyncio.sleep(self._backoff * attempt)

    # ------------------------------------------------------------------ #

    async def cancel(self, name: str) -> None:
        """Cancel one task and wait for it to finish. Idempotent."""
        entry = self._tasks.get(name)
        if entry is None or entry.task is None:
            return
        entry.task.cancel()
        try:
            await entry.task
        except asyncio.CancelledError:
            pass

    async def shutdown(self) -> None:
        """Cancel every task and wait for all of them."""
        self._closed = True
        for entry in self._tasks.values():
            if entry.task is not None:
                entry.task.cancel()
        for entry in self._tasks.values():
            if entry.task is not None:
                try:
                    await entry.task
                except asyncio.CancelledError:
                    pass
            # no restart can follow: let go of what the factory holds
            entry.factory = None

    # ------------------------------------------------------------------ #

    @property
    def crashes(self) -> List[TaskCrash]:
        """All recorded crashes, across all tasks."""
        out: List[TaskCrash] = []
        for entry in self._tasks.values():
            out.extend(entry.crashes)
        return out

    def alive(self, name: str) -> bool:
        entry = self._tasks.get(name)
        return (
            entry is not None
            and entry.task is not None
            and not entry.task.done()
        )
