"""QoS metrics for failure detectors (Section 2 of the paper).

The paper specifies failure detectors by three *primary* metrics —
detection time ``T_D``, mistake recurrence time ``T_MR`` and mistake
duration ``T_M`` — and four metrics *derived* from them via Theorem 1:
average mistake rate ``λ_M``, query accuracy probability ``P_A``, good
period duration ``T_G`` and forward good period duration ``T_FG``.

* :mod:`repro.metrics.transitions` — the S/T output trace model;
* :mod:`repro.metrics.qos` — estimating all seven metrics from traces
  (one ``T_D`` rule, one window walk for the accuracy metrics);
* :mod:`repro.metrics.recovery` — crash-recovery extension: stitching
  per-incarnation traces into per-identity recovery traces with
  recovery-aware mistake accounting;
* :mod:`repro.metrics.relations` — the Theorem 1 identities;
* :mod:`repro.metrics.confidence` — confidence intervals on estimates.
"""

from repro.metrics.confidence import ConfidenceInterval, mean_ci
from repro.metrics.qos import (
    AccuracyEstimate,
    QoSRequirements,
    detection_time,
    detection_times,
    estimate_accuracy,
    pool_accuracy,
    window_samples,
)
from repro.metrics.recovery import (
    IncarnationSpan,
    RecoveryTrace,
    estimate_recovery_accuracy,
    recovery_detection_times,
    span_accuracy,
    stitch_recovery_traces,
)
from repro.metrics.relations import (
    derived_metrics,
    forward_good_period_cdf,
    forward_good_period_mean,
    forward_good_period_moment,
    mistake_rate,
    query_accuracy,
)
from repro.metrics.transitions import (
    SUSPECT,
    TRUST,
    OutputTrace,
    Transition,
    TransitionKind,
)

__all__ = [
    "SUSPECT",
    "TRUST",
    "Transition",
    "TransitionKind",
    "OutputTrace",
    "AccuracyEstimate",
    "QoSRequirements",
    "estimate_accuracy",
    "pool_accuracy",
    "window_samples",
    "detection_time",
    "detection_times",
    "IncarnationSpan",
    "RecoveryTrace",
    "span_accuracy",
    "estimate_recovery_accuracy",
    "recovery_detection_times",
    "stitch_recovery_traces",
    "derived_metrics",
    "mistake_rate",
    "query_accuracy",
    "forward_good_period_mean",
    "forward_good_period_moment",
    "forward_good_period_cdf",
    "ConfidenceInterval",
    "mean_ci",
]
