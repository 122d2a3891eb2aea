"""Registration at 10^5 peers: a peer costs its columns.

Count-based: 10^5 NFD-S peers leave at most three objects a peer for
the cyclic collector to walk, one engine row each and one wheel entry
for the whole cohort.  Then 10^4 of them leave and 10^4 new names
join: the peer index reuses the freed indices, so it does not grow,
and the peers still cost at most three objects each.  (The removed
peers' closed results, eleven objects each, stay in
``service.results`` whatever ``keep_traces`` says; they are counted
apart.)  Engine rows are not reused yet: ``n_rows`` grows with the
churn.  The seconds are printed for the log, not gated.

Run from the repository root: ``PYTHONPATH=src python
.github/scripts/register_fleet.py``.
"""

import asyncio
import gc
import time

from repro import NFDS
from repro.live import LiveMonitorService


async def main():
    n = 10**5
    service = LiveMonitorService(keep_traces=False)
    factory = lambda first_seq: NFDS(1.0, 0.5, first_seq=first_seq)
    gc.collect()
    before = len(gc.get_objects())
    t0 = time.perf_counter()
    for i in range(n):
        service.add_peer(f"p{i}", factory, eta=1.0)
    took = time.perf_counter() - t0
    gc.collect()
    per_peer = (len(gc.get_objects()) - before) / n
    engine = service.soa_engine
    print(f"registered {n} peers in {took:.2f} s "
          f"({1e6 * took / n:.1f} us a peer), "
          f"{per_peer:.3f} tracked objects a peer, "
          f"{engine.pending_deadlines} wheel entries")
    assert per_peer <= 3.0, per_peer
    assert engine.n_rows == n, engine.n_rows
    assert engine.pending_deadlines == 1, engine.pending_deadlines
    index = service._index
    capacity = index.columns.capacity
    churn = n // 10
    for i in range(churn):
        service.remove_peer(f"p{i}")
    for i in range(churn):
        service.add_peer(f"q{i}", factory, eta=1.0)
    gc.collect()
    with_results = len(gc.get_objects())
    service._results.clear()
    gc.collect()
    per_result = (with_results - len(gc.get_objects())) / churn
    per_peer = (len(gc.get_objects()) - before) / n
    print(f"after {churn} removals and {churn} new names: "
          f"{per_peer:.3f} tracked objects a peer, "
          f"{per_result:.1f} a closed result, "
          f"peer index capacity {index.columns.capacity}")
    assert index.columns.capacity == capacity, index.columns.capacity
    assert len(index.peers) == n, len(index.peers)
    assert per_peer <= 3.0, per_peer
    await service.aclose()


asyncio.run(main())
