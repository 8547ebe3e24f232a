"""Property test: the indexed WriteLog agrees with a naive reference model.

The write log was re-indexed for the anti-entropy hot path (per-origin
contiguous arrays + bisect instead of scan-and-sort). This test replays
random interleavings of in-order adds, ahead-of-prefix adds, duplicate
adds, batched adds and purges against both the real :class:`WriteLog`
and a deliberately naive model with the pre-index semantics, and asserts
that every observable (``has`` / ``updates_since`` / ``ahead_ids`` /
``all_updates`` / ``summary`` / purge results) stays identical.

``updates_since`` only visits the origins a peer lags on, so the peer
vector is drawn afresh at every step: the log's own copy-on-write
``summary.copy()``, a stale copy taken earlier, a vector ahead of the
log on some origins, and vectors naming origins the log never saw.
``add_all``'s batched fold is checked against sequential ``add``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replica.log import (
    AckedTruncation,
    MaxEntries,
    Update,
    UpdateId,
    WriteLog,
)
from repro.replica.timestamps import Timestamp
from repro.replica.versions import SummaryVector


def make_update(origin: int, seq: int) -> Update:
    return Update(
        origin=origin,
        seq=seq,
        timestamp=Timestamp(seq * 3 + origin, origin),
        key=f"k{origin}",
        value=(origin, seq),
    )


class NaiveLog:
    """The pre-index semantics: a flat uid map, scan-and-sort queries."""

    def __init__(self) -> None:
        self.entries: Dict[UpdateId, Update] = {}
        self.summary: Dict[int, int] = {}
        self.purged_floor: Dict[int, int] = {}

    def has(self, uid: UpdateId) -> bool:
        origin, seq = uid
        return seq <= self.purged_floor.get(origin, 0) or uid in self.entries

    def add(self, update: Update) -> bool:
        if self.has(update.uid):
            return False
        self.entries[update.uid] = update
        origin = update.origin
        next_seq = self.summary.get(origin, 0) + 1
        while (origin, next_seq) in self.entries:
            self.summary[origin] = next_seq
            next_seq += 1
        return True

    def updates_since(self, peer: SummaryVector) -> List[Update]:
        missing = [
            u for u in self.entries.values() if u.seq > peer.get(u.origin)
        ]
        missing.sort(key=lambda u: (u.origin, u.seq))
        return missing

    def ahead_ids(self) -> List[UpdateId]:
        return sorted(
            uid
            for uid in self.entries
            if uid[1] > self.summary.get(uid[0], 0)
        )

    def all_updates(self) -> List[Update]:
        return sorted(self.entries.values(), key=lambda u: (u.origin, u.seq))

    def purge(self, purgeable: List[UpdateId]) -> int:
        removed = 0
        for uid in purgeable:
            origin, seq = uid
            if uid not in self.entries:
                continue
            if seq > self.summary.get(origin, 0):
                continue
            del self.entries[uid]
            if seq > self.purged_floor.get(origin, 0):
                self.purged_floor[origin] = seq
            removed += 1
        return removed

    def acked_purgeable(self, ack: SummaryVector) -> List[UpdateId]:
        return [
            u.uid for u in self.all_updates() if u.seq <= ack.get(u.origin)
        ]

    def max_entries_purgeable(self, limit: int) -> List[UpdateId]:
        excess = len(self.entries) - limit
        if excess <= 0:
            return []
        ordered = sorted(self.all_updates(), key=lambda u: u.timestamp)
        return [u.uid for u in ordered[:excess]]


summary_entries = st.dictionaries(
    keys=st.integers(min_value=0, max_value=3),
    values=st.integers(min_value=0, max_value=12),
    max_size=4,
)

#: Origins 0-3 write into the logs; 4 and 5 never do, so peer vectors
#: drawn over 0-5 name origins the log has never seen.
LOG_ORIGINS = 4
PEER_ORIGINS = 6

write_ids = st.tuples(
    st.integers(min_value=0, max_value=LOG_ORIGINS - 1),
    st.integers(min_value=1, max_value=12),
)

#: An in-order run of one origin's writes, e.g. a session batch slice.
write_runs = st.tuples(
    st.integers(min_value=0, max_value=LOG_ORIGINS - 1),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=6),
).map(lambda run: [(run[0], run[1] + i) for i in range(run[2])])

#: A received batch: in-order runs interleaved with stray writes, so
#: duplicates, ahead-of-prefix arrivals, purged seqs and first writes
#: from an origin all occur.
batches = st.lists(
    st.one_of(write_runs, write_ids.map(lambda uid: [uid])), max_size=6
).map(lambda parts: [uid for part in parts for uid in part])

#: One step of the interleaving: an add (any origin/seq combination, so
#: in-order, ahead-of-prefix and duplicates all occur), a batched add,
#: an acked purge, a max-entries purge, or a snapshot of the summary
#: (a copy-on-write view later steps may diff against).
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(min_value=0, max_value=LOG_ORIGINS - 1),
            st.integers(min_value=1, max_value=12),
        ),
        st.tuples(st.just("add-all"), batches),
        st.tuples(st.just("purge-acked"), summary_entries),
        st.tuples(st.just("purge-max"), st.integers(min_value=0, max_value=10)),
        st.tuples(st.just("snapshot")),
    ),
    max_size=60,
)

#: How each step picks the peer vector ``updates_since`` diffs against.
peer_choices = st.one_of(
    st.just(("own-copy",)),
    st.just(("snapshot",)),
    st.tuples(
        st.just("ahead"),
        st.dictionaries(
            keys=st.integers(min_value=0, max_value=PEER_ORIGINS - 1),
            values=st.integers(min_value=-3, max_value=4),
            max_size=PEER_ORIGINS,
        ),
    ),
    st.tuples(
        st.just("fixed"),
        st.dictionaries(
            keys=st.integers(min_value=0, max_value=PEER_ORIGINS - 1),
            values=st.integers(min_value=0, max_value=14),
            max_size=PEER_ORIGINS,
        ),
    ),
)


def pick_peer(choice, log: WriteLog, snapshot: SummaryVector) -> SummaryVector:
    kind = choice[0]
    if kind == "own-copy":
        return log.summary.copy()  # shares the log's dict
    if kind == "snapshot":
        return snapshot
    if kind == "ahead":
        # Offsets from the log's own prefix: positive entries put the
        # peer ahead of the log, negative ones behind it.
        return SummaryVector(
            {o: max(0, log.summary.get(o) + d) for o, d in choice[1].items()}
        )
    return SummaryVector(choice[1])


def assert_equivalent(log: WriteLog, model: NaiveLog, peer: SummaryVector) -> None:
    assert log.summary.as_dict() == {
        o: s for o, s in model.summary.items() if s > 0
    }
    assert [u.uid for u in log.all_updates()] == [
        u.uid for u in model.all_updates()
    ]
    assert log.ahead_ids() == model.ahead_ids()
    assert [u.uid for u in log.updates_since(peer)] == [
        u.uid for u in model.updates_since(peer)
    ]
    for origin in range(PEER_ORIGINS):
        for seq in range(1, 14):
            assert log.has((origin, seq)) == model.has((origin, seq)), (
                f"has(({origin}, {seq})) diverged"
            )


class TestIndexedLogAgreesWithNaiveModel:
    @given(operations, st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_interleavings(self, ops, data):
        log = WriteLog()
        model = NaiveLog()
        snapshot = log.summary.copy()
        snapshot_entries = snapshot.as_dict()
        for op in ops:
            if op[0] == "add":
                update = make_update(op[1], op[2])
                assert log.add(update) == model.add(update)
            elif op[0] == "add-all":
                batch = [make_update(o, q) for o, q in op[1]]
                added = log.add_all(batch)
                assert added == [u for u in batch if model.add(u)]
            elif op[0] == "snapshot":
                snapshot = log.summary.copy()
                snapshot_entries = snapshot.as_dict()
            elif op[0] == "purge-acked":
                ack = SummaryVector(op[1])
                log.policy = AckedTruncation(ack_vector=ack)
                # The policies must propose identical ids...
                assert log.policy.purgeable(log) == model.acked_purgeable(ack)
                # ...and the purge must remove identical entries.
                assert log.purge() == model.purge(model.acked_purgeable(ack))
            else:
                limit = op[1]
                log.policy = MaxEntries(limit=limit)
                assert log.policy.purgeable(log) == model.max_entries_purgeable(limit)
                assert log.purge() == model.purge(model.max_entries_purgeable(limit))
            # A copy-on-write snapshot never moves with the log.
            assert snapshot.as_dict() == snapshot_entries
            peer = pick_peer(data.draw(peer_choices), log, snapshot)
            assert_equivalent(log, model, peer)

    @given(operations)
    @settings(max_examples=60, deadline=None)
    def test_covered_ids_matches_naive_filter(self, ops):
        log = WriteLog()
        model = NaiveLog()
        for op in ops:
            if op[0] == "add":
                update = make_update(op[1], op[2])
                log.add(update)
                model.add(update)
        for floor in (0, 1, 5, 12):
            vector = SummaryVector({o: floor for o in range(4)})
            assert log.covered_ids(vector) == model.acked_purgeable(vector)


def build_log(ops) -> WriteLog:
    """Replay a history of adds and purges (snapshots are no-ops here)."""
    log = WriteLog()
    for op in ops:
        if op[0] == "add":
            log.add(make_update(op[1], op[2]))
        elif op[0] == "add-all":
            for origin, seq in op[1]:
                log.add(make_update(origin, seq))
        elif op[0] == "purge-acked":
            log.policy = AckedTruncation(ack_vector=SummaryVector(op[1]))
            log.purge()
        elif op[0] == "purge-max":
            log.policy = MaxEntries(limit=op[1])
            log.purge()
    log.policy = MaxEntries(limit=0)  # inert until purge() is called
    return log


def observables(log: WriteLog) -> dict:
    peers = [SummaryVector()] + [
        SummaryVector({o: floor for o in range(PEER_ORIGINS)})
        for floor in (1, 4, 9)
    ]
    return {
        "summary": log.summary.as_dict(),
        "all": [u.uid for u in log.all_updates()],
        "ahead": log.ahead_ids(),
        "origins": log.origins(),
        "len": len(log),
        "total_added": log.total_added,
        "total_purged": log.total_purged,
        "since": [[u.uid for u in log.updates_since(p)] for p in peers],
        "covered": [log.covered_ids(p) for p in peers],
        "can_serve": [log.can_serve(p) for p in peers],
        "has": [
            log.has((o, q)) for o in range(PEER_ORIGINS) for q in range(1, 20)
        ],
    }


class TestBatchedFoldMatchesSequentialAdd:
    @given(operations, batches)
    @settings(max_examples=150, deadline=None)
    def test_add_all_equals_sequential_add(self, history, batch_ids):
        batched = build_log(history)
        sequential = build_log(history)
        # A session copy of the summary, shared with the batched log's
        # dict until the fold first advances it.
        shipped = batched.summary.copy()
        shipped_entries = shipped.as_dict()
        batch = [make_update(o, q) for o, q in batch_ids]

        added = batched.add_all(batch)
        expected = [u for u in batch if sequential.add(u)]

        assert added == expected
        assert observables(batched) == observables(sequential)
        assert shipped.as_dict() == shipped_entries
        # Later purges see identical state too.
        assert batched.purge() == sequential.purge()
        assert observables(batched) == observables(sequential)

    def test_every_fold_case_in_one_batch(self):
        def seeded() -> WriteLog:
            log = WriteLog(AckedTruncation(SummaryVector({0: 2})))
            for origin, seq in ((0, 1), (0, 2), (0, 3), (1, 1), (1, 4)):
                log.add(make_update(origin, seq))
            log.purge()  # origin 0 keeps only seq 3; floor 2
            return log

        batch = [
            make_update(0, 1),  # purged
            make_update(0, 4),  # in order
            make_update(0, 5),  # in order
            make_update(0, 5),  # duplicate within the batch
            make_update(0, 3),  # duplicate of a stored write
            make_update(1, 2),  # in order, origin holds an ahead entry
            make_update(1, 3),  # closes the gap up to the ahead seq 4
            make_update(1, 5),  # in order after the fold
            make_update(2, 2),  # ahead of an empty prefix
            make_update(3, 1),  # first write from a new origin
            make_update(3, 2),  # in order right after it
        ]
        batched, sequential = seeded(), seeded()
        added = batched.add_all(batch)
        assert added == [u for u in batch if sequential.add(u)]
        assert [u.uid for u in added] == [
            (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (2, 2), (3, 1), (3, 2)
        ]
        assert observables(batched) == observables(sequential)
        assert batched.summary.as_dict() == {0: 5, 1: 5, 3: 2}
        assert batched.ahead_ids() == [(2, 2)]


class TestOriginsAheadOf:
    vectors = st.dictionaries(
        keys=st.integers(min_value=0, max_value=PEER_ORIGINS - 1),
        values=st.integers(min_value=0, max_value=6),
        max_size=PEER_ORIGINS,
    )

    @given(vectors, vectors)
    def test_matches_naive_filter(self, mine, theirs):
        a, b = SummaryVector(mine), SummaryVector(theirs)
        naive = [o for o in a.origins() if a.get(o) > b.get(o)]
        assert a.origins_ahead_of(b) == naive
        assert a.origins_ahead_of(a) == []
        assert a.origins_ahead_of(SummaryVector(mine)) == []

    @given(vectors)
    def test_shared_copy_then_detach(self, mine):
        a = SummaryVector(mine)
        view = a.copy()
        assert a.origins_ahead_of(view) == view.origins_ahead_of(a) == []
        assert view.advance_if_next(5, a.get(5) + 1)
        assert a.origins_ahead_of(view) == []
        assert view.origins_ahead_of(a) == [5]
        assert a.as_dict() == SummaryVector(mine).as_dict()

    def test_advance_if_next_refuses_gaps_and_repeats(self):
        vector = SummaryVector({1: 3})
        view = vector.copy()
        assert not view.advance_if_next(1, 3)
        assert not view.advance_if_next(1, 5)
        assert not view.advance_if_next(2, 2)
        assert view.as_dict() == {1: 3}
        assert view.advance_if_next(2, 1)
        assert view.as_dict() == {1: 3, 2: 1}
        assert vector.as_dict() == {1: 3}
