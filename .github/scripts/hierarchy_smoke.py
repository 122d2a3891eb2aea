"""Hierarchy smoke: a two-level federation under a mass failure.

Builds a small two-level federation (16 senders, 2 leaves) on the
gossip digest plane, crashes 25% of the population at once, and asserts
full root-level detection completeness plus the budget split
(heartbeats + plane messages).

Run from the repository root: ``PYTHONPATH=src python
.github/scripts/hierarchy_smoke.py``.
"""

from repro.hierarchy import HierarchicalMonitor, HierarchyConfig
from repro.net.delays import ConstantDelay

hm = HierarchicalMonitor(HierarchyConfig(
    n_senders=16, n_leaves=2, eta=1.0, delta=1.0,
    sender_delay=ConstantDelay(0.05), t_digest=1.0,
    plane_t_fail=8.0, seed=3))
hm.start()
victims = hm.sender_names[::4]  # 25%, across both shards
hm.crash_senders(victims, at_time=30.0)
hm.run_until(70.0)
result = hm.finish()
assert result.detection_completeness(69.0) == 1.0, \
    result.detection_times()
assert result.heartbeat_messages > 0 and result.plane_messages > 0
print("hierarchy smoke ok:", result.detection_times())
