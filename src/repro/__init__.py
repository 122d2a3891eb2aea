"""repro — Quality of Service of Failure Detectors.

A faithful, production-quality reproduction of

    Wei Chen, Sam Toueg, Marcos Kawazoe Aguilera:
    *On the Quality of Service of Failure Detectors*,
    DSN 2000 / IEEE Transactions on Computers 51(5), 2002.

The library provides:

* the paper's **QoS metric framework** (:mod:`repro.metrics`): detection
  time, mistake recurrence time, mistake duration, and the derived
  metrics related by Theorem 1;
* the **NFD family of detectors** (:mod:`repro.core`): NFD-S
  (synchronized clocks), NFD-U (known expected arrival times), NFD-E
  (estimated arrival times), plus the common-algorithm baseline, the
  φ-accrual extension, and Section 8's adaptive variant;
* the **exact analysis** (:mod:`repro.analysis`): Theorem 5's closed-form
  QoS, the distribution-free bounds of Theorems 9/11, and the three
  configuration procedures of Sections 4-6;
* **estimators** (:mod:`repro.estimation`) of the network behaviour from
  the heartbeat stream itself;
* a **simulation substrate** (:mod:`repro.sim`): probabilistic links,
  clock models, a discrete-event engine, and vectorized simulators for
  benchmark-scale statistics;
* a **monitoring service and group membership layer**
  (:mod:`repro.service`) scaling the two-process core to many processes;
* a **fault-injection layer** (:mod:`repro.faults`): scripted bursty
  loss, partitions, duplication/reordering, clock faults, and sender
  stalls for measuring QoS when the §3.1 assumptions are violated;
* **experiment drivers** (:mod:`repro.experiments`) regenerating every
  table and figure of the paper's evaluation.

Quickstart::

    from repro import (
        QoSRequirements, configure_nfds, ExponentialDelay, NFDS,
    )

    req = QoSRequirements(
        detection_time_upper=30.0,           # detect crashes within 30 s
        mistake_recurrence_lower=30 * 86400, # <= one mistake per month
        mistake_duration_upper=60.0,         # corrected within a minute
    )
    cfg = configure_nfds(req, loss_probability=0.01,
                         delay=ExponentialDelay(0.02))
    detector = NFDS(eta=cfg.eta, delta=cfg.delta)
"""

from repro.analysis import (
    NFDSAnalysis,
    NFDSConfig,
    NFDUConfig,
    QoSPrediction,
    configure_nfds,
    configure_nfds_unknown,
    configure_nfdu,
    eta_upper_bound,
    nfdu_analysis,
)
from repro.core import (
    NFDE,
    NFDS,
    NFDU,
    AdaptiveController,
    AdaptiveNFDE,
    Heartbeat,
    HeartbeatFailureDetector,
    PhiAccrualFD,
    SimpleFD,
)
from repro.errors import (
    ConfigurationError,
    EstimationError,
    InvalidParameterError,
    QoSUnachievableError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.faults import (
    FaultScenario,
    FaultyLink,
    GilbertElliottLink,
)
from repro.metrics import (
    OutputTrace,
    QoSRequirements,
    estimate_accuracy,
)
from repro.net import (
    ConstantDelay,
    DelayDistribution,
    ExponentialDelay,
    GammaDelay,
    LogNormalDelay,
    LossyLink,
    MixtureDelay,
    ParetoDelay,
    PerfectClock,
    SkewedClock,
    UniformDelay,
)
from repro.service import GroupMembership, MonitorService
from repro.sim import (
    SimulationConfig,
    Simulator,
    run_crash_runs,
    run_failure_free,
    simulate_nfde_fast,
    simulate_nfds_fast,
    simulate_nfdu_fast,
    simulate_sfd_fast,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "QoSUnachievableError",
    "InvalidParameterError",
    "TraceError",
    "SimulationError",
    "EstimationError",
    # metrics
    "OutputTrace",
    "QoSRequirements",
    "estimate_accuracy",
    # detectors
    "Heartbeat",
    "HeartbeatFailureDetector",
    "NFDS",
    "NFDU",
    "NFDE",
    "SimpleFD",
    "PhiAccrualFD",
    "AdaptiveNFDE",
    "AdaptiveController",
    # analysis
    "NFDSAnalysis",
    "QoSPrediction",
    "nfdu_analysis",
    "NFDSConfig",
    "NFDUConfig",
    "configure_nfds",
    "configure_nfds_unknown",
    "configure_nfdu",
    "eta_upper_bound",
    # network models
    "DelayDistribution",
    "ExponentialDelay",
    "UniformDelay",
    "ConstantDelay",
    "GammaDelay",
    "LogNormalDelay",
    "ParetoDelay",
    "MixtureDelay",
    "LossyLink",
    "PerfectClock",
    "SkewedClock",
    # fault injection
    "GilbertElliottLink",
    "FaultyLink",
    "FaultScenario",
    # simulation
    "Simulator",
    "SimulationConfig",
    "run_failure_free",
    "run_crash_runs",
    "simulate_nfds_fast",
    "simulate_nfdu_fast",
    "simulate_nfde_fast",
    "simulate_sfd_fast",
    # service
    "MonitorService",
    "GroupMembership",
]
