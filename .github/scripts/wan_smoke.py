"""WAN smoke (E18): a relayed route against the Theorem 5 band.

One fault-free route at reduced scale: the relayed simulation must sit
inside the analytic Theorem 5 band and every crash must be detected
within delta + eta.  The committed full tables stay in
``results/wan-*.txt``.

Run from the repository root: ``PYTHONPATH=src python
.github/scripts/wan_smoke.py``.
"""

from repro.experiments.wan_exp import (
    WanSettings, build_topology, route_config,
)
from repro.metrics.qos import pool_accuracy
from repro.net.wan import (
    detection_within_bound, predict_route, within_theorem5_band,
)
from repro.sim.runner import run_crash_runs, run_failure_free

s = WanSettings(horizon=1500.0, n_ff_runs=3, n_crash_runs=10)
topology = build_topology()
pred = predict_route(topology, "nyc", "sgp", eta=s.eta, delta=s.delta)
config = route_config(s, topology, "sgp")
pooled = pool_accuracy(
    [run_failure_free(s.detector_factory(), config, run_index=i).accuracy
     for i in range(s.n_ff_runs)]
)
assert within_theorem5_band(
    pred, pooled.tmr_samples, pooled.tm_samples, level=s.ci_level
), "relayed route fell outside the Theorem 5 band"
crashes = run_crash_runs(
    s.detector_factory(), config, s.n_crash_runs,
    settle_time=10.0 * s.detection_bound, jobs=0,
)
assert detection_within_bound(pred, crashes.detection_times), \
    crashes.max_detection_time
print("wan smoke ok: max T_D", crashes.max_detection_time,
      "bound", pred.detection_time_bound)
