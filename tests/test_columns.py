"""A freed row equals a fresh one, in every column store.

Each case drives a row of one table through its public entry points,
checks that the row no longer looks fresh, frees or releases it, and
compares every column its store declares, linked stores included, with
a new table's (:func:`tests.reference.assert_row_fresh`).  The
declarations are iterated, so a column added later is covered without
editing this file.  ``ObserverTable``'s case, both rings included, is
``test_released_slot_is_reused_clean_and_the_old_view_raises`` in
``tests/estimation/test_table_identity.py``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.nfd_e import NFDE
from repro.live.monitor import LiveMonitorService, _PeerIndex
from repro.live.wire import encode_heartbeat
from repro.metrics.transitions import SUSPECT, TRUST
from repro.service.soa import ManualScheduler, VectorMonitorEngine
from repro.telemetry.qos_online import QoSTable
from tests.reference import SteppedLoop, assert_row_fresh


def dirty(store, row, fresh):
    with pytest.raises(AssertionError):
        assert_row_fresh(store, row, fresh)


def nfde_row(eng):
    """An NFD-E row with an incarnation, a QoS row and a full window."""
    row = eng.register(NFDE(0.1, 0.05, window=4, first_seq=3), incarnation=2)
    eng.qos.open(row, 0.0, SUSPECT, 0.2)
    eng.start_row(row)
    seqs = np.arange(3, 13)
    eng.ingest(seqs * 0.1 + 0.01, np.full(len(seqs), row), seqs)
    eng.qos.close(row, eng.now)
    return row


def engine_row():
    eng = VectorMonitorEngine(ManualScheduler())
    row = nfde_row(eng)
    fresh = VectorMonitorEngine(ManualScheduler())._rows
    eng.remove(row)
    dirty(eng._rows, row, fresh)
    eng._rows.free(row)
    return eng._rows, row, fresh


def window_slot():
    eng = VectorMonitorEngine(ManualScheduler())
    row = nfde_row(eng)
    slot = eng._win_slot.item(row)
    fresh = VectorMonitorEngine(ManualScheduler())._windows
    dirty(eng._windows, slot, fresh)
    eng.remove(row)
    return eng._windows, slot, fresh


def qos_row():
    table = QoSTable(4)
    table.open(2, 0.0, TRUST, 0.5)
    for k, output in enumerate((SUSPECT, TRUST, SUSPECT, TRUST)):
        table.update(1.0 + k, np.array([2]), output)
    table.close(2, 9.0)
    fresh = QoSTable(4).columns
    dirty(table.columns, 2, fresh)
    table.columns.free(2)
    return table.columns, 2, fresh


def peer_index():
    """``add_peer``, a restart (a heartbeat of a higher incarnation),
    then ``remove_peer``."""

    async def main():
        loop = SteppedLoop()
        service = LiveMonitorService(loop=loop, origin=0.0, keep_traces=False)
        for name in ("p0", "p1"):
            service.add_peer(
                name,
                lambda first_seq: NFDE(0.05, 0.03, window=4, first_seq=first_seq),
                eta=0.05,
            )
        service.start()
        loop.run_until(0.06)
        service.on_datagram(encode_heartbeat("p0", 1, 2, 0.1))
        for _ in range(3):
            await asyncio.sleep(0)
        index = service._index
        at = index.get("p0").index
        assert index.incarnation[at] == 1
        dirty(index.columns, at, _PeerIndex().columns)
        service.remove_peer("p0")
        await service.aclose()
        return index.columns, at, _PeerIndex().columns

    return asyncio.run(main())


@pytest.mark.parametrize(
    "drive", [engine_row, window_slot, qos_row, peer_index]
)
def test_a_freed_row_equals_a_fresh_one(drive):
    store, row, fresh = drive()
    assert_row_fresh(store, row, fresh)
