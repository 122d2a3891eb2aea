"""``ObserverTable`` is ``HeartbeatObserver``, float for float.

One differential harness: seeded streams are fed to a table in chunks
and, receipt by receipt, to one oracle ``HeartbeatObserver`` per row.
At checkpoints and at the end every exported row must equal its oracle
field for field — integers, both sets, both deques in order, the
``float.hex`` of every sum, the evictions-since-resync counter — the
live view must read what the oracle reads, and the rejected mask must
mark exactly the receipts on which the oracle raised.  The harness also
counts what went down the table's vector lane, so it cannot pass on the
scalar lane alone.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import EstimationError, InvalidParameterError
from repro.estimation import HeartbeatObserver, ObserverTable
from repro.estimation.table import _VECTOR_FROM
from tests.reference import assert_row_fresh
from tests.reference import observer_state as state

FIRST_SEQS = (0, 1, 1000)
STATS_WINDOWS = (2, 3, 7, 1000)
ARRIVAL_WINDOWS = (1, 2, 32)
HORIZONS = (None, 1, 4, 1024)
SKEWS = (0.0, 1.0e9, -3.0e7, 1.0e15)
N_ROWS = 24
ROUNDS = 100


def pick(rng: np.random.Generator, values):
    return values[int(rng.integers(len(values)))]


def reads(observer) -> dict:
    """The read surface hosts and their callers use, on an oracle or on
    a live row alike."""
    loss, stats = observer.loss, observer.delay_stats
    out = {
        "highest_seq": loss.highest_seq,
        "received_count": loss.received_count,
        "missing_count": loss.missing_count,
        "compacted_count": loss.compacted_count,
        "pending_missing": loss.pending_missing,
        "n_observed": loss.n_observed,
        "reorder_horizon": loss.reorder_horizon,
        "p_loss": loss.estimate().hex(),
        "window": stats.window,
        "n_samples": stats.n_samples,
        "full": stats.full,
        "arrival_window": observer.arrival.window,
        "arrival_n": observer.arrival.n_samples,
        "ready": observer.ready,
    }
    if stats.n_samples:
        out["mean"] = stats.mean().hex()
        out["ea"] = observer.expected_arrival(loss.highest_seq + 1).hex()
        out["var0"] = stats.variance(ddof=0).hex()
    if observer.ready:
        snap = observer.snapshot()
        out["snapshot"] = (
            snap.loss_probability.hex(),
            snap.mean_delay.hex(),
            snap.var_delay.hex(),
            snap.n_samples,
        )
    return out


class Lanes:
    """Counts what the table's vector lane did."""

    def __init__(self, table: ObserverTable) -> None:
        self.vector = self.evictions = self.mixed = self.resyncs = 0
        self.gaps = self.sweeps = 0
        in_vector = [False]
        rings = table._delays
        apply, push_many, resync = table._apply, rings.push_many, rings._resync
        open_gap, sweep = table._open_gap, table._sweep

        def counted_apply(slots, *rest):
            self.vector += len(slots)
            in_vector[0] = True
            apply(slots, *rest)
            in_vector[0] = False

        def counted_push_many(slots, xs):
            full = rings.count[slots] == rings.window[slots]
            self.evictions += int(full.sum())
            self.mixed += bool(full.any() and not full.all())
            push_many(slots, xs)

        def counted_resync(slot):
            self.resyncs += in_vector[0]
            resync(slot)

        def counted_open_gap(*args):
            self.gaps += in_vector[0]
            open_gap(*args)

        def counted_sweep(*args):
            self.sweeps += in_vector[0]
            sweep(*args)

        table._apply = counted_apply
        rings.push_many = counted_push_many
        rings._resync = counted_resync
        table._open_gap = counted_open_gap
        table._sweep = counted_sweep


class Differential:
    """A table and its per-row oracles, fed the same things."""

    def __init__(self, rng: np.random.Generator, n_rows: int) -> None:
        self.rng = rng
        self.table = ObserverTable()
        self.lanes = Lanes(self.table)
        self.rows, self.oracles, self.params = [], [], []
        for k in range(n_rows):
            params = dict(
                eta=pick(rng, (0.05, 1.0, 2.5)),
                first_seq=pick(rng, FIRST_SEQS),
                stats_window=pick(rng, STATS_WINDOWS),
                arrival_window=pick(rng, ARRIVAL_WINDOWS),
                loss_reorder_horizon=pick(rng, HORIZONS),
            )
            self.params.append(params)
            self.rows.append(self.table.add(**params))
            self.oracles.append(HeartbeatObserver(**params))
        self.pending = []  # (row index, seq, sigma, recv)

    def offer(self, k: int, seq: int, sigma: float, recv: float) -> None:
        self.pending.append((k, seq, sigma, recv))

    def flush(self) -> None:
        """Apply the pending receipts: in one chunk to the table, one by
        one to the oracles; the rejected mask must match the raises."""
        if not self.pending:
            return
        ks, seqs, sigmas, recvs = zip(*self.pending)
        raised = []
        for k, seq, sigma, recv in self.pending:
            try:
                self.oracles[k].observe_arrival(seq, sigma, recv)
                raised.append(False)
            except EstimationError:
                raised.append(True)
        rejected = self.table.observe_batch(
            np.array([self.rows[k].slot for k in ks], dtype=np.int64),
            np.array(seqs, dtype=np.int64),
            np.array(sigmas, dtype=np.float64),
            np.array(recvs, dtype=np.float64),
        )
        assert rejected.tolist() == raised
        self.pending.clear()

    def note_local_drop(self, k: int, seq: int) -> None:
        self.flush()
        self.rows[k].note_local_drop(seq)
        self.oracles[k].note_local_drop(seq)

    def check(self) -> None:
        self.flush()
        for row, oracle in zip(self.rows, self.oracles):
            assert state(self.table.export(row.slot)) == state(oracle)
            assert reads(row) == reads(oracle)


def run_stream(seed: int, n_rows: int = N_ROWS, rounds: int = ROUNDS) -> Differential:
    rng = np.random.default_rng([seed, 0x7AB1E])
    diff = Differential(rng, n_rows)
    cursor = [p["first_seq"] + int(rng.integers(0, 3)) for p in diff.params]
    skew = [pick(rng, SKEWS) for _ in range(n_rows)]
    now = 0.0
    chunk = int(rng.integers(1, 3 * n_rows + 1))
    for round_no in range(rounds):
        for k in rng.permutation(n_rows).tolist():
            params = diff.params[k]
            horizon = params["loss_reorder_horizon"] or 1024
            now += float(rng.exponential(0.01))
            seq = cursor[k]
            sigma = seq * params["eta"] - skew[k]
            roll = rng.random()
            if roll < 0.08:
                continue  # silent this round
            if roll < 0.16:  # gap narrower than the horizon
                seq += int(rng.integers(1, 4))
            elif roll < 0.20:  # gap wider than the horizon
                seq += horizon + int(rng.integers(1, 40))
            elif roll < 0.24:  # shed by the monitor, then the gap opens
                for shed in range(seq, seq + int(rng.integers(1, 4))):
                    diff.note_local_drop(k, shed)
                    seq = shed + 1
            cursor[k] = seq + 1
            diff.offer(k, seq, sigma, now)
            extra = rng.random()
            if extra < 0.06:  # duplicate, possibly in the same chunk
                diff.offer(k, seq, sigma, now)
            elif extra < 0.14:  # late arrival, inside or beyond the horizon
                diff.offer(k, seq - int(rng.integers(1, 2 * horizon + 2)), sigma, now)
            elif extra < 0.17:  # shed number whose gap already opened
                diff.note_local_drop(k, seq - int(rng.integers(1, 6)))
            elif extra < 0.20:  # before the observation window
                early = params["first_seq"] - 1 - int(rng.integers(3))
                diff.offer(k, early, sigma, now)
            elif extra < 0.24:  # a sample that is not finite
                bad = pick(rng, (math.nan, math.inf, -math.inf))
                diff.offer(k, cursor[k], bad, now)
                cursor[k] += int(rng.integers(0, 2))
            elif extra < 0.25:  # finite, but its square is not
                diff.offer(k, cursor[k], 1.0e200, now)
                cursor[k] += 1
            while len(diff.pending) >= chunk:
                diff.flush()
                chunk = int(rng.integers(1, 3 * n_rows + 1))
        if round_no % 16 == 15:
            diff.check()
    diff.check()
    return diff


@pytest.mark.parametrize("seed", range(25))
def test_table_equals_oracle(seed):
    lanes = run_stream(seed).lanes
    # the vector lane did real work of every kind
    assert lanes.vector > 500
    assert lanes.evictions > 0
    assert lanes.resyncs > 0
    assert lanes.mixed > 0
    assert lanes.gaps > 0
    assert lanes.sweeps > 0


def test_table_equals_oracle_past_its_first_capacity():
    """More rows than the columns start with: widening keeps state."""
    assert run_stream(99, n_rows=150, rounds=30).lanes.vector > 1000


def test_one_chunk_per_round_is_all_vector():
    """Steady state: every row once per chunk, in order, nothing odd —
    no heartbeat touches the scalar lane, the first receipts included."""
    table = ObserverTable()
    n = 50
    params = dict(eta=1.0, stats_window=4, arrival_window=3)
    rows = [table.add(**params) for _ in range(n)]
    oracles = [HeartbeatObserver(**params) for _ in range(n)]
    lanes = Lanes(table)
    slots = np.array([row.slot for row in rows], dtype=np.int64)
    for seq in range(1, 20):
        sigma, recv = float(seq), seq + 0.25
        rejected = table.observe_batch(
            slots, np.full(n, seq), np.full(n, sigma), np.full(n, recv)
        )
        assert not rejected.any()
        for oracle in oracles:
            oracle.observe_arrival(seq, sigma, recv)
    assert lanes.vector == 19 * n
    for row, oracle in zip(rows, oracles):
        assert state(table.export(row.slot)) == state(oracle)


@pytest.mark.parametrize(
    "bad",
    [
        dict(eta=0.0),
        dict(eta=-1.0),
        dict(eta=1.0, first_seq=-1),
        dict(eta=1.0, stats_window=1),
        dict(eta=1.0, arrival_window=0),
        dict(eta=1.0, loss_reorder_horizon=0),
        dict(eta=0.0, first_seq=-1, stats_window=1),  # first error wins
    ],
)
def test_add_raises_what_the_observer_raises(bad):
    with pytest.raises(InvalidParameterError) as oracle:
        HeartbeatObserver(**bad)
    table = ObserverTable()
    with pytest.raises(InvalidParameterError) as ours:
        table.add(**bad)
    assert str(ours.value) == str(oracle.value)
    assert len(table) == 0


def test_released_slot_is_reused_clean_and_the_old_view_raises():
    table = ObserverTable()
    old = table.add(eta=1.0, stats_window=2, arrival_window=1, loss_reorder_horizon=4)
    loss = old.loss
    for seq in (1, 5, 3, 20):
        old.observe_arrival(seq, seq * 1.0, seq + 0.5)
    old.note_local_drop(30)
    seqs = np.arange(21, 21 + _VECTOR_FROM)
    table.observe_batch(np.full(len(seqs), old.slot), seqs, seqs * 1.0, seqs + 0.25)
    slot = old.slot
    fresh = ObserverTable()._rows
    with pytest.raises(AssertionError):
        assert_row_fresh(table._rows, slot, fresh)
    table.release(old)
    assert len(table) == 0
    # every declared column, both rings' included, is back at its fill
    assert_row_fresh(table._rows, slot, fresh)
    for read in (lambda: old.slot, lambda: loss.highest_seq, lambda: old.snapshot()):
        with pytest.raises(EstimationError):
            read()
    params = dict(
        eta=0.5,
        first_seq=7,
        stats_window=3,
        arrival_window=2,
        loss_reorder_horizon=None,
    )
    new = table.add(**params)
    assert new.slot == slot
    oracle = HeartbeatObserver(**params)
    assert state(table.export(slot)) == state(oracle)
    for seq in (9, 8, 12, 13, 14):
        new.observe_arrival(seq, seq * 0.5, seq * 0.5 + 0.1)
        oracle.observe_arrival(seq, seq * 0.5, seq * 0.5 + 0.1)
    assert state(table.export(slot)) == state(oracle)


def test_exported_observer_keeps_going_like_the_oracle():
    """An export is a real observer: fed further receipts it stays
    equal to the oracle (window evictions use the exported entries)."""
    table = ObserverTable()
    params = dict(eta=0.25, stats_window=3, arrival_window=2)
    row, oracle = table.add(**params), HeartbeatObserver(**params)
    for seq in range(1, 6):
        row.observe_arrival(seq, seq * 0.25, seq * 0.25 + 0.01 * seq)
        oracle.observe_arrival(seq, seq * 0.25, seq * 0.25 + 0.01 * seq)
    exported = table.export(row.slot)
    for seq in range(6, 12):
        exported.observe_arrival(seq, seq * 0.25, seq * 0.25 + 0.02)
        oracle.observe_arrival(seq, seq * 0.25, seq * 0.25 + 0.02)
    assert state(exported) == state(oracle)
    assert exported.expected_arrival(12).hex() == oracle.expected_arrival(12).hex()


@pytest.mark.parametrize("horizon", [None, 1, 4, 1024])
def test_first_receipts_take_the_vector_lane(horizon):
    """A row's first receipt is a new highest over ``first_seq − 1``:
    at ``first_seq``, above it (a gap opens), and at or past the reorder
    horizon (compacted at once past it) — mixed with started rows in
    chunks the vector lane takes whole, equal to the oracle after every
    chunk, every first receipt counted on the vector lane."""
    eta = 0.5
    table = ObserverTable()
    lanes = Lanes(table)
    firsts = []  # slots the vector lane started
    apply = table._apply

    def watched(slots, *rest):
        firsts.extend(slots[~table._started[slots]].tolist())
        apply(slots, *rest)

    table._apply = watched
    reach = horizon or 1024
    rows, oracles, first_seqs, offsets = [], [], [], []
    for k in range(4 * _VECTOR_FROM):
        params = dict(
            eta=eta,
            first_seq=(0, 1, 7)[k % 3],
            stats_window=3,
            arrival_window=2,
            loss_reorder_horizon=horizon,
        )
        rows.append(table.add(**params))
        oracles.append(HeartbeatObserver(**params))
        first_seqs.append(params["first_seq"])
        # how far past first_seq the first receipt lands
        offsets.append((0, 1, 3, reach - 1, reach, reach + 5)[k % 6])
    slots = np.array([row.slot for row in rows], dtype=np.int64)
    # a drop noted before the first receipt, inside the gap it opens
    rows[2].note_local_drop(first_seqs[2] + 1)
    oracles[2].note_local_drop(first_seqs[2] + 1)
    half = len(rows) // 2
    fresh = [range(half), range(half, len(rows)), range(0)]
    started, sent = [], 0
    for new in fresh:
        # the rows started so far, then a fresh half (if any)
        chunk = started + list(new)
        assert len(chunk) >= _VECTOR_FROM
        seqs = [
            oracles[k].loss.highest_seq + 1
            if k in started
            else first_seqs[k] + offsets[k]
            for k in chunk
        ]
        recvs = [seq * eta + 0.01 * k for k, seq in zip(chunk, seqs)]
        rejected = table.observe_batch(
            slots[chunk],
            np.array(seqs, dtype=np.int64),
            np.array(seqs, dtype=np.float64) * eta,
            np.array(recvs, dtype=np.float64),
        )
        assert not rejected.any()
        for k, seq, recv in zip(chunk, seqs, recvs):
            oracles[k].observe_arrival(seq, seq * eta, recv)
        started, sent = chunk, sent + len(chunk)
        for row, oracle in zip(rows, oracles):
            assert state(table.export(row.slot)) == state(oracle)
            assert reads(row) == reads(oracle)
    assert sorted(firsts) == sorted(slots.tolist())
    assert lanes.vector == sent
    assert lanes.gaps > 0
