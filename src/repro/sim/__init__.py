"""Simulation substrate.

* :mod:`repro.sim.engine` — a deterministic discrete-event simulator;
* :mod:`repro.sim.heartbeat` — the monitored process *p* (periodic
  heartbeats, optional crash);
* :mod:`repro.sim.monitor` — the monitoring process *q* hosting a failure
  detector and recording its output trace;
* :mod:`repro.sim.runner` — the one simulated pipeline (failure-free
  accuracy runs and crash detection-time runs, serial or fanned out,
  with an optional fault scenario on the config);
* :mod:`repro.sim.fastsim` — vectorized NumPy simulators for
  benchmark-scale statistics (hundreds of millions of heartbeats);
* :mod:`repro.sim.seeds` — namespaced, collision-free RNG stream
  derivation shared by the serial and parallel paths;
* :mod:`repro.sim.parallel` — the generic deterministic multiprocessing
  executor, bit-identical to serial for any job count;
* :mod:`repro.sim.batch` — the batched crash-run kernel, bit-identical
  to the serial runner for any batch size, and the accuracy-task unit of
  work.
"""

from repro.sim.batch import (
    AccuracyTask,
    run_accuracy_task,
    run_crash_runs_batched,
)
from repro.sim.engine import EventHandle, Simulator
from repro.sim.fastsim import (
    FastAccuracyResult,
    simulate_nfde_fast,
    simulate_nfds_fast,
    simulate_nfdu_fast,
    simulate_sfd_fast,
)
from repro.sim.heartbeat import HeartbeatSender
from repro.sim.monitor import DetectorHost
from repro.sim.parallel import parallel_map
from repro.sim.runner import (
    CrashRunResult,
    FailureFreeResult,
    SimulationConfig,
    run_crash_runs,
    run_failure_free,
    run_failure_free_parallel,
)

__all__ = [
    "Simulator",
    "EventHandle",
    "FastAccuracyResult",
    "simulate_nfds_fast",
    "simulate_nfdu_fast",
    "simulate_nfde_fast",
    "simulate_sfd_fast",
    "HeartbeatSender",
    "DetectorHost",
    "SimulationConfig",
    "FailureFreeResult",
    "CrashRunResult",
    "run_failure_free",
    "run_crash_runs",
    "parallel_map",
    "run_failure_free_parallel",
    "AccuracyTask",
    "run_accuracy_task",
    "run_crash_runs_batched",
]
