"""Live asyncio runtime: the paper's detectors on wall-clock time.

The simulator (:mod:`repro.sim`) answers "what QoS *should* this
configuration have"; this package answers "what QoS does it have when
the timers, message pacing, and deliveries run on a real event loop".
The detectors themselves are the unmodified :mod:`repro.core` classes,
in the same two hosts the simulator uses (:mod:`repro.sim.monitor`):
only the driver differs — :class:`~repro.live.soa.LoopWheelScheduler`
puts ``loop.call_at`` where the simulator has an event queue.

Layers:

* :mod:`repro.live.wire` — the heartbeat datagram format;
* :mod:`repro.live.transport` — UDP endpoints and the seedable
  loopback transport driven by the simulation's link models;
* :mod:`repro.live.soa` — the loop as the hosts' clock-and-timer driver;
* :mod:`repro.live.fanout` — η-paced heartbeat sending: one stream (a
  real process p) or thousands (a soak, a benchmark) off one armed timer;
* :mod:`repro.live.monitor` — the monitoring service (bounded inbox,
  incarnation dispatch, supervised consumer);
* :mod:`repro.live.supervisor` — crash/restart task supervision;
* :mod:`repro.live.soak` — soak runs gated against Theorem 5;
* :mod:`repro.live.roles` — two-terminal UDP sender/monitor roles.
"""

from repro.live.fanout import FanoutStream, HeartbeatFanout
from repro.live.monitor import LiveMonitorService, LivePeerResult
from repro.live.soa import LoopWheelScheduler, SoALiveHost
from repro.live.soak import KillReport, SoakConfig, SoakGate, SoakResult, run_soak
from repro.live.supervisor import TaskCrash, TaskSupervisor
from repro.live.transport import (
    BatchedUdpMonitorTransport,
    LoopbackNetwork,
    MonitorTransport,
    SenderTransport,
    UdpMonitorTransport,
    UdpSenderTransport,
)
from repro.live.wire import (
    HeartbeatBatchDecoder,
    HeartbeatEncoder,
    LiveHeartbeat,
    WireError,
    decode_heartbeat,
    encode_heartbeat,
)

__all__ = [
    "LiveMonitorService",
    "LivePeerResult",
    "FanoutStream",
    "HeartbeatFanout",
    "SoALiveHost",
    "LoopWheelScheduler",
    "SoakConfig",
    "SoakGate",
    "SoakResult",
    "KillReport",
    "run_soak",
    "TaskCrash",
    "TaskSupervisor",
    "BatchedUdpMonitorTransport",
    "LoopbackNetwork",
    "MonitorTransport",
    "SenderTransport",
    "UdpMonitorTransport",
    "UdpSenderTransport",
    "LiveHeartbeat",
    "WireError",
    "HeartbeatEncoder",
    "HeartbeatBatchDecoder",
    "encode_heartbeat",
    "decode_heartbeat",
]
