"""``QoSTable`` ≡ ``OnlineQoSEstimator``, slot for slot.

The table keeps the online estimator's accumulators as columns and
applies a transition batch ``(time, rows, output)`` with masked vector
operations (or, for a short batch, row by row through the estimator
itself).  Whatever the rows' transition streams and however they are
cut into batches, :meth:`QoSTable.export` must equal an estimator fed
the same streams one transition at a time — every slot and the ``T_G``
accumulator, ``==`` on floats.  Times lie on a dyadic grid, so a warmup
horizon can fall *exactly* on a transition instant.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError, TraceError
from repro.metrics.transitions import SUSPECT, TRUST
from repro.telemetry.qos_online import _VECTOR_FROM, OnlineQoSEstimator, QoSTable

GRID = 0.25
FIRST = 1.0  # no transition before this instant; rows start at or before it


def state(est):
    """Every slot of an estimator, with its type (None is not 0.0)."""
    if est is None:
        return None
    slots = [s for s in OnlineQoSEstimator.__slots__ if s != "_tg"]
    tg = est._tg
    values = [getattr(est, s) for s in slots] + [tg.n, tg.mean, tg.m2, tg.min, tg.max]
    return [(type(v), v) for v in values]


@st.composite
def scenarios(draw):
    """Rows, their transition batches, a close and a batching."""
    n = draw(st.integers(1, 24))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # grid ticks since the previous batch
                st.sampled_from((TRUST, SUSPECT)),
                st.lists(st.integers(0, n - 1), min_size=1, unique=True),
            ),
            min_size=1,
            max_size=40,
        )
    )
    times, t = [], FIRST
    for ticks, _, _ in steps:
        t += ticks * GRID
        times.append(t)
    rows = []
    for _ in range(n):
        start = draw(st.sampled_from((0.0, 0.25, 0.5, FIRST)))
        kind = draw(st.sampled_from(("none", "zero", "grid", "exact")))
        warmup = {
            "none": None,
            "zero": 0.0,
            "grid": draw(st.integers(0, 16)) * GRID,
            # a horizon exactly on one of the batch instants
            "exact": draw(st.sampled_from(times)) - start,
        }[kind]
        rows.append((start, draw(st.sampled_from((TRUST, SUSPECT))), warmup))
    close_at = draw(st.integers(0, len(steps)))
    closing = draw(st.lists(st.integers(0, n - 1), unique=True))
    # a batch is applied whole, or cut in pieces of these lengths
    cuts = draw(st.lists(st.integers(1, 12), max_size=4))
    return rows, list(zip(times, steps)), close_at, closing, cuts


def pieces(rows, cuts):
    if not cuts:
        yield rows
        return
    k = 0
    while rows:
        size = cuts[k % len(cuts)]
        yield rows[:size]
        rows, k = rows[size:], k + 1


def play(scenario):
    specs, batches, close_at, closing, cuts = scenario
    table = QoSTable(4)  # grown by the rows it opens ...
    table.columns.grow(len(specs))  # ... and to every row a batch may name
    oracle = {}
    for row, (start, initial, warmup) in enumerate(specs):
        if warmup is not None:
            table.open(row, start, initial, warmup)
            oracle[row] = OnlineQoSEstimator(start, initial, warmup)
    closed = set()

    def close(time):
        for row in closing:
            if row in oracle and row not in closed:
                assert state(table.export(row)) == state(oracle[row]), row
                table.close(row, time)
                oracle[row].close(time)
                closed.add(row)
                assert state(table.export(row)) == state(oracle[row]), row

    last = FIRST
    for k, (time, (_, output, rows)) in enumerate(batches):
        if k == close_at:
            close(last)
        for piece in pieces(rows, cuts):
            table.update(time, np.array(piece, dtype=np.int64), output)
            for row in piece:
                if row in oracle and row not in closed:
                    oracle[row].observe(time, output)
        last = time
    if close_at == len(batches):
        close(last)
    for row in range(len(specs)):
        assert state(table.export(row)) == state(oracle.get(row)), row
        if row in oracle:
            assert table.is_open(row) == (row not in closed)
    return table, oracle


@settings(max_examples=150)
@given(scenario=scenarios())
def test_table_equals_estimator(scenario):
    play(scenario)


def test_a_storm_takes_the_vector_path_and_stays_equal():
    """64 rows, every batch naming all of them: the columns, not the
    row-by-row path; T_G, T_MR, T_M and P_A all accumulate."""
    n = 64
    rows = list(range(n))
    batches = [
        (FIRST + k * GRID, (1, (TRUST, SUSPECT)[k % 2], rows)) for k in range(12)
    ]
    specs = [(0.0, SUSPECT, (row % 4) * GRID * 3) for row in rows]
    assert n >= _VECTOR_FROM
    table, oracle = play((specs, batches, 12, [], []))
    est = table.export(5)
    assert est._tg.n > 0 and est._n_tmr > 0 and est._n_tm > 0 and est._trusted > 0
    assert state(est) == state(oracle[5])


@pytest.mark.parametrize("size", [1, _VECTOR_FROM])
def test_transition_exactly_at_the_horizon_counts(size):
    """``t >= horizon`` is inclusive on both paths: an S at the horizon
    is a retained mistake, a good period starting there is a sample."""
    specs = [(0.0, TRUST, 2.0)] * size
    rows = list(range(size))
    batches = [
        (2.0, (0, SUSPECT, rows)),
        (2.0, (0, TRUST, rows)),
        (3.0, (0, SUSPECT, rows)),
    ]
    table, oracle = play((specs, batches, 3, rows, []))
    est = table.export(0)
    assert est.n_mistakes == 2 and est._n_tmr == 1 and est._tg.n == 1
    assert est.closed and est._trusted == 1.0
    assert state(est) == state(oracle[0])


def test_unopened_and_closed_rows_take_no_batch():
    table = QoSTable()
    table.open(3, 0.0, SUSPECT, 0.0)
    table.open(5, 0.0, SUSPECT, 0.0)
    table.update(1.0, np.arange(8), TRUST)
    table.close(5, 1.5)
    table.update(2.0, np.arange(8), SUSPECT)
    assert table.export(0) is None and table.export(100) is None
    assert table.export(3).n_mistakes == 1
    closed = table.export(5)
    assert closed.closed and closed.n_mistakes == 0 and closed.observation_time == 1.5
    with pytest.raises(TraceError):
        table.close(5, 3.0)
    with pytest.raises(InvalidParameterError):
        table.open(3, 0.0)
    with pytest.raises(InvalidParameterError):
        table.open(6, 0.0, warmup=-1.0)


def test_non_monotone_batch_is_refused_like_the_estimator():
    table = QoSTable()
    for row in range(_VECTOR_FROM):
        table.open(row)
    table.update(2.0, np.arange(_VECTOR_FROM), TRUST)
    with pytest.raises(TraceError):
        table.update(1.0, np.arange(_VECTOR_FROM), SUSPECT)
    with pytest.raises(TraceError):
        table.update(1.0, np.arange(1), SUSPECT)
