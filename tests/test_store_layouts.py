"""Layout-equivalence suite: columnar vs. object-backed stores.

The columnar store (``repro.core.columnar_store``) re-implements the
slope-indexed store over flat integer arrays.  Its contract is *bit
identity*: every query answer, every version-bump pattern, and every
end-to-end route must match the object-backed implementation exactly.
These tests drive both layouts through the same randomised
commit/decommit/prune/query interleavings and compare everything
observable.

``free_window`` is the one deliberate exception: the columnar band
fast path may return a *narrower* (still sound) window than the exact
scan, so only the None-decision — which gates planner behaviour — is
compared here; soundness and containment are covered for all store
classes by ``test_free_windows``.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Query, SRPPlanner
from repro.analysis.validate import audit_planner_state
from repro.core.columnar_store import ColumnarSegmentStore
from repro.core.segments import Segment
from repro.core.slope_index import SlopeIndexedStore

from tests.test_free_windows import _OP, _apply_ops, _warehouse, segment_strategy

# ---------------------------------------------------------------------------
# store-level op interleavings
# ---------------------------------------------------------------------------

#: one mutation or query per element; mutations are replayed on both
#: layouts, queries must answer identically
_STORE_OP = st.one_of(
    st.tuples(st.just("insert"), segment_strategy(), st.integers(-1, 5)),
    st.tuples(st.just("remove"), st.integers(0, 10 ** 6), st.just(0)),
    st.tuples(st.just("prune"), st.integers(0, 40), st.just(0)),
    st.tuples(st.just("clear"), st.just(0), st.just(0)),
    st.tuples(st.just("conflict"), segment_strategy(), st.just(0)),
    st.tuples(st.just("occupied"), st.integers(0, 12), st.integers(0, 40)),
    st.tuples(
        st.just("first_occupied"),
        st.integers(0, 12),
        st.tuples(st.integers(0, 40), st.integers(0, 12)),
    ),
    st.tuples(
        st.just("clear_entry"),
        st.integers(0, 12),
        st.tuples(st.integers(0, 40), st.integers(0, 12)),
    ),
    st.tuples(
        st.just("free_window"),
        st.tuples(st.integers(0, 12), st.integers(0, 6)),
        st.tuples(st.integers(0, 40), st.integers(0, 12)),
    ),
)


def _drive(store, ops):
    """Replay ``ops`` on one store; return the observable-outcome log.

    Version numbers come from a process-global counter, so their
    absolute values differ between two stores driven side by side; the
    log therefore records the *bump pattern* (did this op change the
    version?) plus every query answer and the post-op segment multiset.
    """
    log = []
    live = []
    for kind, a, b in ops:
        before = store.version
        if kind == "insert":
            store.insert(a, owner=b)
            live.append(a)
        elif kind == "remove":
            if live:
                victim = live.pop(a % len(live))
                store.remove(victim)
            else:
                with pytest.raises(KeyError):
                    store.remove(Segment(0, 0, 0, 0))
        elif kind == "prune":
            dropped = store.prune(a)
            live = [s for s in live if s.t1 >= a]
            log.append(("dropped", dropped))
        elif kind == "clear":
            store.clear()
            live = []
        elif kind == "conflict":
            log.append(("conflict", store.earliest_conflict(a)))
            log.append(("block", store.earliest_block(a)))
        elif kind == "occupied":
            log.append(("occupied", store.occupied(a, b)))
        elif kind == "first_occupied":
            t_lo, span = b
            log.append(("first", store.first_occupied(a, t_lo, t_lo + span)))
        elif kind == "clear_entry":
            t_from, span = b
            log.append(("entry", store.clear_entry_time(a, t_from, t_from + span)))
        else:  # free_window — compare the None-decision only (see module doc)
            lo, width = a
            t0, span = b
            window = store.free_window(lo, lo + width, t0, t0 + span)
            log.append(("window-none", window is None))
        log.append(("bump", store.version != before, len(store)))
    log.append(
        ("segments", sorted((s.t0, s.p0, s.t1, s.p1) for s in store.iter_segments()))
    )
    log.append(("last_end", store.last_end))
    return log


def _random_segment(rng, max_t=30, max_p=12, max_len=8):
    t0 = rng.randint(0, max_t)
    p0 = rng.randint(0, max_p)
    slope = rng.choice((-1, 0, 1))
    length = rng.randint(0, max_len)
    return Segment(t0, p0, t0 + length, p0 + slope * length)


def _wide_window_ops(batches=12):
    """Store ops whose probes scan candidate windows far above 32.

    Each batch bulk-inserts 40-120 segments packed into 30 s x 13 cells,
    plus a few waits of 60-150 s that stretch the longest stored
    duration, and with it every probe's candidate window, over the whole
    column; then it probes and clears the store.  At this density equal
    blocked times from different slope classes are common (522 of the
    720 conflict probes scan a window above 32 candidates, and 97 tie
    across classes), so the scan's rank tie-break and its early exit both
    run on wide windows.
    """
    rng = random.Random(14)
    ops = []
    for _ in range(batches):
        segments = [_random_segment(rng) for _ in range(rng.randint(40, 120))]
        for _ in range(rng.randint(1, 3)):
            t0, pos = rng.randint(0, 20), rng.randint(0, 12)
            segments.append(Segment(t0, pos, t0 + rng.randint(60, 150), pos))
        rng.shuffle(segments)
        ops += [("insert", seg, owner % 6 - 1) for owner, seg in enumerate(segments)]
        for _ in range(60):
            span = (rng.randint(0, 40), rng.randint(0, 12))
            ops.append(("conflict", _random_segment(rng, max_t=40), 0))
            ops.append(("first_occupied", rng.randint(0, 12), span))
            ops.append(("clear_entry", rng.randint(0, 12), span))
        ops.append(("clear", 0, 0))
    return ops


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(_STORE_OP, min_size=1, max_size=30))
@example(ops=_wide_window_ops())
def test_columnar_matches_slope_index(ops):
    assert _drive(ColumnarSegmentStore(), ops) == _drive(SlopeIndexedStore(), ops)


@given(segments=st.lists(segment_strategy(), min_size=0, max_size=12))
@settings(max_examples=60, deadline=None)
def test_owner_column_tracks_spans(segments):
    store = ColumnarSegmentStore()
    for owner, seg in enumerate(segments):
        store.insert(seg, owner=owner)
    for t0 in range(0, 40, 7):
        t1 = t0 + 5
        expected = sorted(
            owner
            for owner, seg in enumerate(segments)
            if seg.t0 <= t1 and seg.t1 >= t0
        )
        assert store.owners_overlapping(t0, t1) == expected


def test_owner_defaults_to_anonymous():
    store = ColumnarSegmentStore()
    store.insert(Segment(0, 0, 4, 4))
    assert store.owners_overlapping(0, 10) == []


# ---------------------------------------------------------------------------
# planner-level bit identity
# ---------------------------------------------------------------------------


def test_layout_knob_validation():
    warehouse = _warehouse()
    planner = SRPPlanner(warehouse)
    assert planner.store_layout == "columnar"  # slope default
    assert SRPPlanner(warehouse, store="naive").store_layout == "object"
    assert SRPPlanner(warehouse, store_layout="object").store_layout == "object"
    with pytest.raises(ValueError):
        SRPPlanner(warehouse, store_layout="rowwise")
    with pytest.raises(ValueError):
        SRPPlanner(warehouse, store="naive", store_layout="columnar")


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(_OP, min_size=1, max_size=12))
def test_layouts_identical_under_fault_interleavings(ops):
    """Columnar and object layouts plan bit-identical routes.

    The op stream includes blockages, prunes and mid-flight replans, so
    equality covers the commit *and* decommit paths, faulted legs
    included.
    """
    warehouse = _warehouse()
    columnar = _apply_ops(SRPPlanner(warehouse, store_layout="columnar"), ops)
    object_backed = _apply_ops(SRPPlanner(warehouse, store_layout="object"), ops)
    assert columnar == object_backed


@settings(max_examples=15, deadline=None)
@given(ops=st.lists(_OP, min_size=1, max_size=12))
def test_columnar_cache_off_identical(ops):
    """Within the columnar layout, the cache stays behaviour-invisible."""
    warehouse = _warehouse()
    cached = _apply_ops(SRPPlanner(warehouse, store_layout="columnar"), ops)
    uncached = _apply_ops(
        SRPPlanner(warehouse, store_layout="columnar", cache=False), ops
    )
    assert cached == uncached


def _plan_day(planner):
    free = sorted(planner.warehouse.free_cells())
    routes = []
    qid = 0
    for i in range(0, len(free) - 4, 3):
        query = Query(free[i], free[i + 3], i % 5, query_id=qid)
        qid += 1
        try:
            routes.append(planner.plan(query))
        except Exception:
            pass
    return routes


def test_audit_agrees_across_layouts():
    """Both layouts survive the stores-vs-routes audit with zero findings."""
    warehouse = _warehouse()
    for layout in ("columnar", "object"):
        planner = SRPPlanner(warehouse, store_layout=layout)
        routes = _plan_day(planner)
        assert routes, "day workload planned nothing"
        assert audit_planner_state(planner, routes) == []
