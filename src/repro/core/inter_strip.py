"""End-to-end route search over the strip graph (Section VI, Algorithm 4).

The inter-strip level runs a time-dependent Dijkstra over aisle strips.
Whenever it relaxes an edge it calls the intra-strip planner to learn
how long crossing the current strip actually takes given the committed
traffic — the paper's "edge weight calculated by intra-strip route
planning".  Transit between strips follows the greedy rule of Fig. 10:
cross at the adjacent grid pair nearest to the robot's current position.

Rack strips are never traversed; they participate only as route
endpoints (a robot slides sideways from the neighbouring aisle under
the rack).

**Boundary semantics.**  Strips partition the grid, so the per-strip
segment stores cannot see conflicts that happen *on* a strip boundary.
Crossing into a strip therefore produces two artefacts:

* a point segment at the arrival cell and second, making the arrival
  visible to vertex-conflict checks inside the target strip; and
* a *crossing event* ``(from_cell, to_cell, t)`` in a planner-global
  set, which detects the boundary swap ``(g -> g')`` against
  ``(g' -> g)`` exactly (two robots exchanging cells across a strip
  border), with no over-reservation.

All planning during the search is read-only; only the winning chain of
legs is committed by the caller (:mod:`repro.core.planner`).
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass
from typing import AbstractSet, Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.intra_strip import IntraPlan, plan_within_strip
from repro.core.intra_strip_exact import plan_within_strip_exact
from repro.core.plan_cache import (
    CROSSING_TAG,
    MISSING,
    SHIFT_TAG,
    WINDOW_TAG,
    PlanCache,
    decode_plan,
    encode_plan,
    free_flow_plan,
)
from repro.core.segments import Segment, make_wait
# _entry_clear_time moved to store_base (the batched occupancy scans
# need it); re-exported here for its long-standing import path.
from repro.core.store_base import SegmentStore
from repro.core.store_base import _entry_clear_time as _entry_clear_time
from repro.core.strips import AisleEdge, StripGraph
from repro.types import Grid, Query, manhattan

#: a committed boundary crossing: the robot is at from_cell at time-1
#: and at to_cell at time.
CrossingKey = Tuple[Grid, Grid, int]

#: Largest *object-backed* store (segment count) against which window /
#: shift certificates are minted and probed.  Certification scans the
#: store, so on congested strips it costs as much as the search it
#: tries to save while the next commit kills the certificate anyway;
#: small stores scan cheaply and their certificates live long enough to
#: pay.  Stores advertising :attr:`SegmentStore.cheap_scans` (the
#: columnar layout, whose band interval index answers ``free_window``
#: incrementally) skip the throttle entirely — certificate coverage no
#: longer dies on busy strips there.  Purely a performance gate — either
#: side of it produces bit-identical routes.
_CERT_STORE_MAX = 16

#: Largest :meth:`SegmentStore.scan_cost_hint` of a probe region against
#: which a certificate (or a crossing memo entry) is still minted.  For
#: object-backed stores the hint is the store size, so together with the
#: ``_CERT_STORE_MAX`` probe gate this reproduces the per-store throttle
#: exactly; the columnar layout's hint counts band-index entries near
#: the probe, making the throttle per-region instead of per-store.
_MINT_SCAN_MAX = 32

#: Aisle degree above which a settle queues its edge stubs through one
#: sorted :class:`_Cursor` instead of one heap entry per neighbor (the
#: partial expansion of Yoshizumi et al., AAAI 2000).  Warehouse aisle
#: degrees are bimodal: longitudinal aisles have 2-4 aisle neighbors,
#: latitudinal ones (whole rack-free rows) 69-231 on W-1..W-3.  Purely a
#: performance gate — either side of it produces bit-identical routes.
_CURSOR_DEGREE = 32


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs of the strip-level search.

    ``detour_factor`` and ``max_detour`` bound how far past the
    free-flow distance the search keeps looking: popping a key beyond
    ``release + detour_factor * distance + max_detour`` aborts the
    (hopeless) search instead of sweeping the whole strip graph, and
    the planner falls back to grid A*.  Keys are admissible completion
    lower bounds, so only routes worse than the cutoff are discarded.
    """

    max_expansions: int = 600
    max_wait: int = 64
    use_heuristic: bool = True
    detour_factor: float = 2.0  # srplint: allow-float search-budget knob, int()-clamped before use
    max_detour: int = 64
    #: use the exact time-expanded intra-strip search instead of the
    #: paper's greedy one (quality ablation; see intra_strip_exact)
    intra_exact: bool = False
    #: with intra_exact, also allow backward moves inside strips —
    #: lifting the paper's Fig. 13 restriction entirely
    intra_backward: bool = False


@dataclass
class SearchStats:
    """Counters filled during one plan_route call."""

    intra_time: float = 0.0  # srplint: allow-float perf_counter seconds, reporting only
    #: portion of intra_time spent answering calls from the plan cache's
    #: certificate/key layers (hits only; always <= intra_time)
    cache_time: float = 0.0  # srplint: allow-float perf_counter seconds, reporting only
    intra_calls: int = 0
    intra_expansions: int = 0
    strips_popped: int = 0
    edges_relaxed: int = 0
    cache_hits: int = 0
    cache_negative_hits: int = 0
    cache_misses: int = 0
    #: positive hits served by a free-flow window certificate
    window_hits: int = 0
    #: positive hits served by a shift-invariance certificate
    shift_hits: int = 0
    #: boundary-crossing searches served from the crossing memo
    crossing_hits: int = 0
    #: boundary-crossing searches that ran the real wait loop
    crossing_misses: int = 0
    #: intra-strip searches answered free-flow straight from the store's
    #: band interval index (no cache involved; works cache-off too)
    band_skips: int = 0
    #: entries pushed on the search heap (labels, edge stubs, cursors)
    heap_pushes: int = 0


@dataclass(frozen=True)
class CrossingEntry:
    """A committed step across a strip boundary.

    Attributes:
        time: arrival second in the new strip.
        from_cell: boundary cell left at ``time - 1``.
        to_cell: boundary cell occupied at ``time``.
        point: the point segment ``(time, pos)`` in the new strip's
            local coordinates, committed to that strip's store.
    """

    time: int
    from_cell: Grid
    to_cell: Grid
    point: Segment

    @property
    def key(self) -> CrossingKey:
        return (self.from_cell, self.to_cell, self.time)

    @property
    def reverse_key(self) -> CrossingKey:
        return (self.to_cell, self.from_cell, self.time)


@dataclass
class Leg:
    """Movement inside one strip of the final plan.

    Attributes:
        strip: strip index.
        entry: how the robot crossed into this strip (None for the strip
            the route starts in).
        segments: motion/wait segments within the strip, local coords.
    """

    strip: int
    entry: Optional[CrossingEntry]
    segments: List[Segment]


@dataclass
class RoutePlan:
    """A complete collision-free plan as a chain of strip legs."""

    start_time: int
    origin: Grid
    destination: Grid
    legs: List[Leg]
    arrival_time: int


@dataclass(slots=True)
class _Label:
    arrival: int
    pos: int
    pred: int
    leg_segments: List[Segment]
    entry: Optional[CrossingEntry]
    settled: bool = False


def _nearest_transit(lo: int, hi: int, offset: int, pos: int) -> Tuple[int, int]:
    """Greedy transit choice (Fig. 10): the adjacent pair nearest ``pos``.

    ``(lo, hi, offset)`` is the boundary's transit range, as unpacked in
    a row of :attr:`repro.core.strips.StripGraph._aisle_adjacency`.
    """
    tp = lo if pos < lo else (hi if pos > hi else pos)
    return tp, tp + offset


def _transit_toward(lo: int, hi: int, offset: int, target_pos: int) -> Tuple[int, int]:
    """Transit pair whose landing position is nearest ``target_pos``.

    Used for edges into the *destination* strip: entering a long,
    congested strip right at the goal column avoids traversing it
    against opposing traffic (an extension over the paper's purely
    source-greedy transit; see DESIGN.md §6).
    """
    return _nearest_transit(lo, hi, offset, target_pos - offset)


class _Cursor:
    """The edge stubs of one wide-strip settle, sorted in heap order.

    ``slots`` lists the settled strip's adjacency rows by ``(key, -bound,
    seq)``.  Only one stub sits on the heap at a time; its transit ``(v,
    tp, vp, bound)`` is kept here for the pop, and ``i`` is the next slot
    to scan after it.
    """

    __slots__ = ("u", "arrival", "pos", "seq0", "slots", "i", "v", "tp", "vp", "bound")

    def __init__(self, u: int, arrival: int, pos: int, seq0: int, slots: List[int]) -> None:
        self.u = u
        self.arrival = arrival
        self.pos = pos
        self.seq0 = seq0
        self.slots = slots
        self.i = 0
        self.v = self.tp = self.vp = self.bound = 0


class _Search:
    """One invocation of Algorithm 4 for a single query."""

    def __init__(
        self,
        graph: StripGraph,
        stores: Sequence[SegmentStore],
        crossings: AbstractSet[CrossingKey],
        config: SearchConfig,
        stats: SearchStats,
        cache: Optional[PlanCache] = None,
        allowed: Optional[Sequence[bool]] = None,
    ) -> None:
        self.graph = graph
        self.stores = stores
        self.crossings = crossings
        self.config = config
        self.stats = stats
        self.cache = cache
        #: per-strip admissibility mask (region-sharded planning); None
        #: means every strip may be traversed
        self.allowed = allowed
        self._exact = config.intra_exact
        # Raw view of the cache's entry dict: the probe below runs once
        # per edge relaxation, so even one extra method call shows up.
        self._cache_entries = cache.raw_entries() if cache is not None else None
        # Window certificates rebuild the free-flow plan without running
        # the search, which is only faithful when the uncached search
        # would at least get to its first collision probe — and never
        # for the exact time-expanded search, whose plans the greedy
        # free-flow shape does not describe.
        self._windows_ok = not self._exact and config.max_expansions >= 1
        # The crossing memo needs the ledger's content version; plain
        # sets (accepted for ad-hoc use) have none, so it stays off.
        self._crossings_versioned = hasattr(crossings, "version")

    # ------------------------------------------------------------------
    # Timed wrappers around the intra-strip level
    # ------------------------------------------------------------------
    def _intra(self, strip: int, t: int, origin: int, dest: int) -> Optional[IntraPlan]:
        started = _time.perf_counter()
        key = None
        store = self.stores[strip]
        entries = self._cache_entries
        stats = self.stats
        if self._windows_ok and store.cheap_scans and len(store) != 0:
            lo_b, hi_b = (origin, dest) if origin <= dest else (dest, origin)
            if t > store.last_end or store.band_clear(lo_b, hi_b, t, t + hi_b - lo_b):
                # Band-index free-flow fast path — no cache involved, so
                # it fires identically cache-on and cache-off.  Nothing
                # stored can touch the probe rectangle (the band index
                # certified the negative), so the greedy search's first
                # collision probe would come back clean and it would
                # return exactly this direct free-flow plan.
                stats.band_skips += 1
                stats.intra_calls += 1
                stats.intra_time += _time.perf_counter() - started
                return free_flow_plan(t, origin, dest)
        if entries is not None and (len(store) != 0 or self._exact):
            # Planning through an empty strip is already O(1) (a single
            # free-flow segment), so the cache only engages where there
            # is traffic.  Layered probe order — free-flow window, then
            # shift certificate, then the exact per-second key; every
            # layer is checked against content versions, so a hit is
            # never stale; see repro.core.plan_cache.
            version = store.version
            if not self._exact:
                cheap = store.cheap_scans
                if self._windows_ok and not cheap and t > store.last_end:
                    # O(1) degenerate free-flow window: every segment
                    # ever committed here ends before t (last_end is a
                    # monotone high-water mark, so this is sound even
                    # after decommit/prune), hence the uncached search
                    # would spend one clean probe and go free-flow.
                    stats.cache_hits += 1
                    stats.window_hits += 1
                    stats.intra_calls += 1
                    elapsed = _time.perf_counter() - started
                    stats.intra_time += elapsed
                    stats.cache_time += elapsed
                    return free_flow_plan(t, origin, dest)
                if cheap or len(store) <= _CERT_STORE_MAX:
                    # Certificates are only ever filed against small
                    # stores (see _memoise), so skip both probes — two
                    # tuple builds and dict gets per call — when the
                    # store has outgrown the certification bound.
                    # Columnar stores mint no window certificates (the
                    # band fast path above covers free-flow), so their
                    # window probe is skipped too.
                    if self._windows_ok and not cheap:
                        windows = entries.get(
                            (WINDOW_TAG, strip, origin, dest, version)
                        )
                        if windows is not None:
                            span = dest - origin if dest >= origin else origin - dest
                            for i in range(0, len(windows), 2):
                                if windows[i] <= t and t + span <= windows[i + 1]:
                                    stats.cache_hits += 1
                                    stats.window_hits += 1
                                    stats.intra_calls += 1
                                    elapsed = _time.perf_counter() - started
                                    stats.intra_time += elapsed
                                    stats.cache_time += elapsed
                                    return free_flow_plan(t, origin, dest)
                    skey = (SHIFT_TAG, strip, origin, dest, t)
                    cert = entries.get(skey)
                    if cert is not None:
                        cert_version, horizon, signature, encoded = cert
                        if cert_version != version:
                            # The strip changed somewhere — but if the
                            # band over the search's probe region reads
                            # back the same, the search would replay
                            # identically.
                            lo, hi = (origin, dest) if origin <= dest else (dest, origin)
                            if store.band_signature(lo, hi, t, horizon) == signature:
                                # Re-stamp so the next probe is O(1) again.
                                assert self.cache is not None
                                self.cache.put(
                                    skey, (version, horizon, signature, encoded)
                                )
                            else:
                                encoded = None
                        if encoded is not None:
                            stats.cache_hits += 1
                            stats.shift_hits += 1
                            stats.intra_calls += 1
                            elapsed = _time.perf_counter() - started
                            stats.intra_time += elapsed
                            stats.cache_time += elapsed
                            return decode_plan(encoded)
                    key = (strip, origin, dest, t, version)
                # Stores past the certification bound get no per-second
                # key either: exact keys on a congested store die on the
                # next commit, so storing them costs encode+put per miss
                # for almost no hits (measured well under 1%) — the call
                # still counts as a miss below so the hit rate stays an
                # honest fraction of cache-eligible calls.
            else:
                key = (strip, origin, dest, t, version)
            if key is not None:
                cached = entries.get(key, MISSING)
                if cached is not MISSING:
                    if cached is None:
                        stats.cache_negative_hits += 1
                        plan = None
                    else:
                        stats.cache_hits += 1
                        plan = decode_plan(cached)
                    elapsed = _time.perf_counter() - started
                    stats.intra_time += elapsed
                    stats.cache_time += elapsed
                    stats.intra_calls += 1
                    return plan
            stats.cache_misses += 1
        if self._exact:
            plan = plan_within_strip_exact(
                store,
                t,
                origin,
                dest,
                strip_length=self.graph.strips[strip].length,
                allow_backward=self.config.intra_backward,
                max_expansions=self.config.max_expansions,
                max_wait=self.config.max_wait,
            )
        else:
            plan = plan_within_strip(
                store,
                t,
                origin,
                dest,
                max_expansions=self.config.max_expansions,
                max_wait=self.config.max_wait,
            )
        if key is not None:
            self._memoise(key, store, strip, t, origin, dest, plan)
        stats.intra_time += _time.perf_counter() - started
        stats.intra_calls += 1
        if plan is not None:
            stats.intra_expansions += plan.expansions
        return plan

    def _memoise(
        self,
        key: Tuple[int, ...],
        store: SegmentStore,
        strip: int,
        t: int,
        origin: int,
        dest: int,
        plan: Optional[IntraPlan],
    ) -> None:
        """File a fresh intra-strip result under the strongest sound key.

        Failed searches only ever land under the exact per-second key
        (nothing bounds the region a failure depends on).  Free-flow
        results try a window certificate first; every other successful
        plan gets a shift-invariance certificate, whose probe region
        ``band x [t, arrival + max_wait]`` provably contains every
        collision query the greedy search issued.

        Certification itself costs a store scan (``free_window`` /
        ``band_signature``), so ``_intra`` only files results computed
        against stores small enough (:data:`_CERT_STORE_MAX`) that the
        scan is about as cheap as the search it hopes to save — on
        congested stores every key dies on the next commit, so minting
        certificates (or even exact entries) there costs more than the
        sub-1% hits they would ever serve.
        """
        cache = self.cache
        entries = self._cache_entries
        assert cache is not None and entries is not None  # keyed calls only
        if plan is None or self._exact:
            cache.put(key, None if plan is None else encode_plan(plan))
            return
        if plan.expansions <= 1 and self._windows_ok and store.cheap_scans:
            # The band interval index already re-derives free-flow
            # answers in O(log n) at probe time (the fast path in
            # ``_intra``), with zero invalidation cost — a window
            # certificate could only duplicate coverage the index
            # serves for free, so columnar stores mint none.  Checked
            # before the hint scan: this is the overwhelmingly common
            # miss on columnar stores.
            return
        lo, hi = (origin, dest) if origin <= dest else (dest, origin)
        if (
            store.scan_cost_hint(lo, hi, t, plan.arrival_time + self.config.max_wait)
            > _MINT_SCAN_MAX
        ):
            # Certification against this region would scan more entries
            # than the hits it could plausibly serve — and a certificate
            # minted against a region this dense dies on the next commit
            # anyway.  Skipping minting never changes routes.
            return
        if plan.expansions <= 1 and self._windows_ok:
            window = store.free_window(lo, hi, t, plan.arrival_time)
            if window is not None:
                wkey = (WINDOW_TAG, strip, origin, dest, store.version)
                old = entries.get(wkey)
                flat = window if old is None else old + window
                if len(flat) > 8:  # keep the 4 most recent windows
                    flat = flat[-8:]
                cache.put(wkey, flat)
                return
        horizon = plan.arrival_time + self.config.max_wait
        cache.put(
            (SHIFT_TAG, strip, origin, dest, t),
            (store.version, horizon, store.band_signature(lo, hi, t, horizon), encode_plan(plan)),
        )

    def _plan_crossing(
        self,
        from_strip: int,
        to_strip: int,
        t: int,
        from_pos: int,
        to_pos: int,
    ) -> Optional[Tuple[Optional[Segment], CrossingEntry, int]]:
        """Find the earliest crossing from (t, from_pos) into ``to_strip``.

        The robot may wait at ``from_pos`` first.  Returns the wait
        segment (or None), the crossing entry, and the arrival time at
        ``to_pos``; None when no wait length within the cap works.

        Off the empty-target fast path, results are memoised against the
        two stores' content versions plus the crossing ledger's — the
        whole result is determined by the arrival second, so the memo
        stores a single int (or ``None`` for a failed crossing).  The
        memo keeps the plain :data:`_CERT_STORE_MAX` size throttle for
        every layout: its key embeds both store versions, so against
        congested stores it dies on the next commit and building and
        hashing the 9-tuple per evaluation costs more than the hits it
        could serve.
        """
        started = _time.perf_counter()
        try:
            from_store = self.stores[from_strip]
            to_store = self.stores[to_strip]
            # Inline grid_at: positions here come from transit ranges,
            # always in bounds, so skip its range check and enum compare.
            anchors = self.graph.anchors
            ai, aj, lat = anchors[from_strip]
            from_cell = (ai, aj + from_pos) if lat else (ai + from_pos, aj)
            ai, aj, lat = anchors[to_strip]
            to_cell = (ai, aj + to_pos) if lat else (ai + to_pos, aj)
            if (
                len(to_store) == 0
                and (to_cell, from_cell, t + 1) not in self.crossings
            ):
                # Fast path: nothing in the target strip and no opposing
                # crossing — step over immediately, no waiting needed.
                # Already O(1); memoising it would only slow it down.
                entry = CrossingEntry(
                    t + 1, from_cell, to_cell, Segment(t + 1, to_pos, t + 1, to_pos)
                )
                return None, entry, t + 1
            if (
                from_store.cheap_scans
                and to_store.cheap_scans
                and (to_cell, from_cell, t + 1) not in self.crossings
                and (t > from_store.last_end
                     or from_store.band_clear(from_pos, from_pos, t, t))
                and (t + 1 > to_store.last_end
                     or to_store.band_clear(to_pos, to_pos, t + 1, t + 1))
            ):
                # Band fast path: nobody stands at the departure cell at
                # ``t``, the entry cell is free at ``t + 1`` and no
                # opposing crossing is committed — the wait loop below
                # would find exactly this immediate step (its occupancy
                # scan can only block the *departure* second, which the
                # band certified clear).  Two single-band probes replace
                # two full store scans.
                entry = CrossingEntry(
                    t + 1, from_cell, to_cell, Segment(t + 1, to_pos, t + 1, to_pos)
                )
                return None, entry, t + 1
            memo_key = None
            entries = self._cache_entries
            max_wait = self.config.max_wait
            if (
                entries is not None
                and self._crossings_versioned
                and len(to_store) <= _CERT_STORE_MAX
                and len(from_store) <= _CERT_STORE_MAX
            ):
                memo_key = (
                    CROSSING_TAG,
                    from_strip,
                    to_strip,
                    t,
                    from_pos,
                    to_pos,
                    from_store.version,
                    to_store.version,
                    getattr(self.crossings, "version"),
                )
                cached = entries.get(memo_key, MISSING)
                if cached is not MISSING:
                    self.stats.crossing_hits += 1
                    if cached is None:
                        return None
                    arrival = cached
                    wait = (
                        make_wait(t, from_pos, arrival - 1 - t)
                        if arrival - 1 > t
                        else None
                    )
                    entry = CrossingEntry(
                        arrival,
                        from_cell,
                        to_cell,
                        Segment(arrival, to_pos, arrival, to_pos),
                    )
                    return wait, entry, arrival
                self.stats.crossing_misses += 1
            if len(from_store) == 0:
                wait_blocked = None
            else:
                # Standing at the transit cell only collides at occupied
                # seconds, so the batched occupancy scan answers the full
                # wait window in one store call.
                wait_blocked = from_store.first_occupied(from_pos, t, t + max_wait)
            if wait_blocked is not None and wait_blocked <= t:
                if memo_key is not None:
                    assert self.cache is not None
                    self.cache.put(memo_key, None)
                return None  # cannot even stand at the transit cell
            latest_leave = t + max_wait if wait_blocked is None else wait_blocked - 1
            # Batched entry scan: the first arrival second the target
            # strip leaves the entry cell free, jumping past blocking
            # segments inside the store instead of probing one second at
            # a time from Python.
            arrival = to_store.clear_entry_time(to_pos, t + 1, latest_leave + 1)
            while arrival is not None and (to_cell, from_cell, arrival) in self.crossings:
                # Exact boundary swap with a committed route: resume the
                # scan one second later.
                arrival = to_store.clear_entry_time(to_pos, arrival + 1, latest_leave + 1)
            if arrival is not None:
                wait = make_wait(t, from_pos, arrival - 1 - t) if arrival - 1 > t else None
                point = Segment(arrival, to_pos, arrival, to_pos)
                entry = CrossingEntry(arrival, from_cell, to_cell, point)
                if memo_key is not None and arrival > t + 1:
                    # Only delayed crossings are worth memoising: they
                    # paid a probe loop above, while an immediate step
                    # costs one probe — cheaper than the memo write.
                    assert self.cache is not None
                    self.cache.put(memo_key, arrival)
                return wait, entry, arrival
            if memo_key is not None:
                assert self.cache is not None
                self.cache.put(memo_key, None)
            return None
        finally:
            self.stats.intra_time += _time.perf_counter() - started

    # ------------------------------------------------------------------
    # The search proper
    # ------------------------------------------------------------------
    def run(self, query: Query) -> Optional[RoutePlan]:
        graph = self.graph
        ori, dst, t0 = query.origin, query.destination, query.release_time
        if ori == dst:
            return RoutePlan(t0, ori, dst, [], t0)

        labels: Dict[int, _Label] = {}
        # Entries: (key, -arrival, seq, kind, *payload); kind 0 settles a
        # strip label, kind 1 lazily evaluates one edge (u, v, tp, vp),
        # kind 2 evaluates the head stub of a wide settle's _Cursor.
        # Edge keys are admissible lower bounds (free-flow transit +
        # hop), so expensive intra-strip planning only runs for edges
        # that are actually competitive — lazy edge evaluation.  Stubs
        # are flattened into the heap tuple itself (arity 9 vs the
        # settle entries' 5): ``seq`` is unique, so tuple comparison
        # never reads past index 2 and the mixed arities are safe.
        heap: List[Tuple[Any, ...]] = []
        seq = 0

        di, dj = dst
        use_h = self.config.use_heuristic
        # The Manhattan distance to the destination from position ``pos``
        # of a strip anchored at (ai, aj), computed only for the strips
        # the search reaches; settle's per-neighbor loop inlines it.
        anchors = graph.anchors

        stats = self.stats

        def heuristic(strip: int, pos: int) -> int:
            if not use_h:
                return 0
            ai, aj, lat = anchors[strip]
            if lat:
                return abs(ai - di) + abs(aj + pos - dj)
            return abs(aj - dj) + abs(ai + pos - di)

        def push(strip: int, label: _Label) -> None:
            nonlocal seq
            existing = labels.get(strip)
            if existing is not None and (
                existing.settled or existing.arrival <= label.arrival
            ):
                return
            labels[strip] = label
            seq += 1
            stats.heap_pushes += 1
            # Tie-break equal keys toward larger arrival: depth-first
            # across f-plateaus, like the grid A*'s -t tie-break; without
            # it the search sweeps the whole equal-cost band of strips.
            heapq.heappush(
                heap,
                (
                    label.arrival + heuristic(strip, label.pos),
                    -label.arrival,
                    seq,
                    0,
                    strip,
                ),
            )

        # -- origin ------------------------------------------------------
        ori_strip_idx, ori_pos = graph.locate(ori)
        ori_strip = graph.strips[ori_strip_idx]
        if ori_strip.is_aisle:
            push(ori_strip_idx, _Label(t0, ori_pos, -1, [], None))
        else:
            # Rack origin: slide into each adjacent aisle cell.
            labels[ori_strip_idx] = _Label(t0, ori_pos, -1, [], None)
            for cell in graph.warehouse.neighbors(ori):
                v, vp = graph.locate(cell)
                if self.allowed is not None and not self.allowed[v]:
                    continue
                crossing = self._plan_crossing(ori_strip_idx, v, t0, ori_pos, vp)
                if crossing is None:
                    continue
                _wait, entry, arrival = crossing
                push(v, _Label(arrival, vp, ori_strip_idx, [], entry))

        # -- destination bookkeeping --------------------------------------
        dst_strip_idx, dst_pos = graph.locate(dst)
        dst_is_rack = not graph.strips[dst_strip_idx].is_aisle
        # aisle strip index -> [transit positions adjacent to the rack dst]
        rack_targets: Dict[int, List[int]] = {}
        if dst_is_rack:
            for cell in graph.warehouse.neighbors(dst):
                v, vp = graph.locate(cell)
                if self.allowed is not None and not self.allowed[v]:
                    continue
                rack_targets.setdefault(v, []).append(vp)
            if not rack_targets:
                return None  # walled-in rack

        target_strips = frozenset(rack_targets) if dst_is_rack else frozenset((dst_strip_idx,))
        best: Optional[RoutePlan] = None

        _Tail = Tuple[List[Segment], Optional[Leg], int]

        def completion_tail(v: int, arrival: int, pos: int) -> Optional[_Tail]:
            """Final movement within target strip ``v`` from (arrival, pos).

            Returns ``(segments_in_v, rack_leg_or_None, completion_time)``
            or None when the destination cannot be reached from this
            entry.  For rack destinations all adjacent transit cells of
            ``v`` are tried and the earliest completion wins.
            """
            if not dst_is_rack:
                plan = self._intra(v, arrival, pos, dst_pos)
                if plan is None:
                    return None
                return list(plan.segments), None, plan.arrival_time
            tail: Optional[_Tail] = None
            for transit_pos in rack_targets.get(v, ()):
                plan = self._intra(v, arrival, pos, transit_pos)
                if plan is None:
                    continue
                crossing = self._plan_crossing(
                    v, dst_strip_idx, plan.arrival_time, transit_pos, dst_pos
                )
                if crossing is None:
                    continue
                wait, entry, completion = crossing
                if tail is not None and completion >= tail[2]:
                    continue
                segments = list(plan.segments)
                if wait is not None:
                    segments.append(wait)
                tail = segments, Leg(dst_strip_idx, entry, []), completion
            return tail

        def record_completion(base_legs: List[Leg], tail: _Tail) -> None:
            nonlocal best
            segments, rack_leg, completion = tail
            if best is not None and completion >= best.arrival_time:
                return
            legs = list(base_legs)
            last = legs.pop()
            legs.append(Leg(last.strip, last.entry, segments))
            if rack_leg is not None:
                legs.append(rack_leg)
            best = RoutePlan(t0, ori, dst, legs, completion)

        # Local binds for settle's inner loop — it touches every
        # (settled strip, neighbor) pair, far more often than anything
        # else at the strip level.
        aisle_adjacency = graph._aisle_adjacency
        heappush = heapq.heappush
        labels_get = labels.get
        allowed = self.allowed

        def settle(u: int) -> None:
            """Pop handler for a strip label: complete and queue edge stubs."""
            nonlocal seq
            label = labels[u]
            if label.settled:
                return
            label.settled = True
            stats.strips_popped += 1
            arrival = label.arrival
            pos = label.pos

            if u in target_strips:
                # Complete from this strip's own (single) label; additional
                # entries into target strips are tried per incoming edge.
                tail = completion_tail(u, arrival, pos)
                if tail is not None:
                    base = self._chain_legs(labels, u)
                    base.append(Leg(u, label.entry, []))
                    record_completion(base, tail)

            row = aisle_adjacency[u]
            # Two seq numbers per adjacency slot (a target edge may queue
            # two transits): stubs tie-break in adjacency order however
            # they are queued.
            seq0 = seq + 1
            seq += 2 * len(row)
            edges: Iterable[Tuple[int, AisleEdge]] = (
                open_cursor(u, arrival, pos, seq0)
                if len(row) > _CURSOR_DEGREE
                else enumerate(row)
            )
            for slot, (v, lo, hi, offset) in edges:
                if allowed is not None and not allowed[v]:
                    continue
                existing = labels_get(v)
                if v not in target_strips:
                    # Common case: one greedy transit (Fig. 10), fully
                    # inlined — no helper call (see StripGraph's
                    # pre-unpacked aisle adjacency).
                    if existing is not None and existing.settled:
                        continue
                    tp = lo if pos < lo else (hi if pos > hi else pos)
                    vp = tp + offset
                    # Admissible lower bound: free-flow run to the transit
                    # cell plus the boundary hop.
                    bound = arrival + (pos - tp if tp < pos else tp - pos) + 1
                    if existing is not None and existing.arrival <= bound:
                        continue  # dominated before evaluation
                    if use_h:
                        ai, aj, lat = anchors[v]
                        if lat:
                            key = bound + abs(ai - di) + abs(aj + vp - dj)
                        else:
                            key = bound + abs(aj - dj) + abs(ai + vp - di)
                    else:
                        key = bound
                    # Stubs the pop loop could only ever discard (beyond
                    # the detour budget or the incumbent route) are
                    # dropped here instead of bloating the heap.
                    if key > key_limit:
                        continue
                    if best is not None and key >= best.arrival_time:
                        continue
                    stats.heap_pushes += 1
                    heappush(heap, (key, -bound, seq0 + 2 * slot, 1, u, v, tp, vp, bound))
                    continue
                # Target strip: additionally try entering right at the
                # goal column — traversing a long congested strip against
                # opposing traffic is the main failure mode of the
                # source-greedy transit.
                transits = [_nearest_transit(lo, hi, offset, pos)]
                goal_pos = (
                    min(rack_targets[v], key=lambda p: abs(p - pos))
                    if dst_is_rack
                    else dst_pos
                )
                aligned = _transit_toward(lo, hi, offset, goal_pos)
                if aligned not in transits:
                    transits.append(aligned)
                for j, (tp, vp) in enumerate(transits):
                    bound = arrival + (pos - tp if tp < pos else tp - pos) + 1
                    h = heuristic(v, vp)
                    stats.heap_pushes += 1
                    heappush(
                        heap, (bound + h, -bound, seq0 + 2 * slot + j, 1, u, v, tp, vp, bound)
                    )

        def open_cursor(
            u: int, arrival: int, pos: int, seq0: int
        ) -> List[Tuple[int, AisleEdge]]:
            """Queue a wide strip's plain edge stubs behind one heap entry.

            Bounds and keys of every edge come from a few vectorised
            operations; stubs beyond the detour budget are dropped and
            the rest sorted into a :class:`_Cursor`.  Returns the
            ``(slot, edge)`` rows left for the per-stub loop: the target
            strips.
            """
            row = aisle_adjacency[u]
            cols = graph.transit_arrays(u)
            tp = np.minimum(np.maximum(cols.lo, pos), cols.hi)
            vp = tp + cols.offset
            bound = np.abs(tp - pos) + (arrival + 1)
            if use_h:
                lat = cols.lat
                key = (
                    bound
                    + np.abs(cols.cross - np.where(lat, di, dj))
                    + np.abs(vp + cols.along - np.where(lat, dj, di))
                )
            else:
                key = bound
            keep = key <= key_limit
            rest: List[Tuple[int, AisleEdge]] = []
            for v in target_strips:
                slot = cols.index.get(v)
                if slot is not None:
                    keep[slot] = False
                    rest.append((slot, row[slot]))
            live = np.flatnonzero(keep)
            if live.size:
                # lexsort is stable: equal (key, -bound) stubs stay in
                # adjacency order, which is their seq order.
                live = live[np.lexsort((-bound[live], key[live]))]
                queue_cursor(_Cursor(u, arrival, pos, seq0, live.tolist()), 0)
            return rest

        def queue_cursor(cursor: _Cursor, i: int) -> None:
            """Put the cursor's first live stub at or after ``i`` on the heap.

            The stub is the per-stub path's, recomputed in scalars for
            only the few stubs a search reaches, and so are its
            settle-time filters: a stub into a disallowed strip is
            dropped; one into a settled or dominating strip too, as
            evaluate_edge would discard it without effect (labels only
            improve or settle).  Once the head key reaches the incumbent
            route the pop loop would stop at it, so the cursor is dropped.
            """
            row = aisle_adjacency[cursor.u]
            slots, arrival, pos = cursor.slots, cursor.arrival, cursor.pos
            while i < len(slots):
                slot = slots[i]
                i += 1
                v, lo, hi, offset = row[slot]
                if allowed is not None and not allowed[v]:
                    continue
                existing = labels_get(v)
                if existing is not None and existing.settled:
                    continue
                tp = lo if pos < lo else (hi if pos > hi else pos)
                bound = arrival + (pos - tp if tp < pos else tp - pos) + 1
                if existing is not None and existing.arrival <= bound:
                    continue
                vp = tp + offset
                key = bound + heuristic(v, vp)
                if best is not None and key >= best.arrival_time:
                    return
                cursor.i, cursor.v, cursor.tp, cursor.vp, cursor.bound = i, v, tp, vp, bound
                stats.heap_pushes += 1
                heappush(heap, (key, -bound, cursor.seq0 + 2 * slot, 2, cursor))
                return

        def evaluate_edge(u: int, v: int, tp: int, vp: int, bound: int) -> None:
            """Pop handler for an edge stub: run the real intra/crossing."""
            label = labels[u]
            target_v = v in target_strips
            existing = labels.get(v)
            if existing is not None and not target_v:
                # Dominated or already settled: skip the expensive eval.
                if existing.settled or existing.arrival <= bound:
                    return
            stats.edges_relaxed += 1
            plan = self._intra(u, label.arrival, label.pos, tp)
            if plan is None:
                return
            crossing = self._plan_crossing(u, v, plan.arrival_time, tp, vp)
            if crossing is None:
                return
            wait, entry, arrival_v = crossing
            if best is not None and arrival_v >= best.arrival_time:
                return
            leg_segments = list(plan.segments)
            if wait is not None:
                leg_segments.append(wait)
            if target_v:
                # The strip-revisit restriction gives each strip one
                # label, so a blocked final leg from the labelled entry
                # would doom the query; trying completion from *every*
                # entry edge sidesteps that without multi-labelling.
                tail = completion_tail(v, arrival_v, vp)
                if tail is not None:
                    base = self._chain_legs(labels, u)
                    base.append(Leg(u, label.entry, leg_segments))
                    base.append(Leg(v, entry, []))
                    record_completion(base, tail)
            if existing is not None and existing.arrival <= arrival_v:
                return
            push(v, _Label(arrival_v, vp, u, leg_segments, entry))

        # -- main loop ------------------------------------------------------
        key_limit = int(
            t0 + self.config.detour_factor * manhattan(ori, dst) + self.config.max_detour
        )
        heappop = heapq.heappop
        while heap:
            entry = heappop(heap)
            key = entry[0]
            if best is not None and key >= best.arrival_time:
                break
            if key > key_limit:
                break  # nothing within the detour budget remains
            kind = entry[3]
            if kind == 0:
                settle(entry[4])
            elif kind == 1:
                evaluate_edge(entry[4], entry[5], entry[6], entry[7], entry[8])
            else:
                cursor = entry[4]
                evaluate_edge(cursor.u, cursor.v, cursor.tp, cursor.vp, cursor.bound)
                queue_cursor(cursor, cursor.i)

        return best

    def _chain_legs(self, labels: Dict[int, _Label], last_strip: int) -> List[Leg]:
        """Rebuild the legs preceding ``last_strip`` by walking pred links."""
        chain: List[int] = []
        cur = last_strip
        while cur != -1:
            chain.append(cur)
            cur = labels[cur].pred
        chain.reverse()
        legs: List[Leg] = []
        for here, nxt in zip(chain, chain[1:]):
            legs.append(Leg(here, labels[here].entry, labels[nxt].leg_segments))
        return legs


def plan_route(
    graph: StripGraph,
    stores: Sequence[SegmentStore],
    crossings: AbstractSet[CrossingKey],
    query: Query,
    config: SearchConfig,
    stats: Optional[SearchStats] = None,
    cache: Optional[PlanCache] = None,
    allowed: Optional[Sequence[bool]] = None,
) -> Optional[RoutePlan]:
    """Run Algorithm 4 for one query; read-only against the stores.

    ``cache`` optionally memoises intra-strip edge-weight calls across
    (and within) queries; see :mod:`repro.core.plan_cache`.  Results are
    identical with and without it.

    ``allowed`` optionally restricts the search to a subset of strips
    (per-strip boolean mask): disallowed strips are never entered or
    used as rack transit aisles.  Region-sharded planning uses this to
    confine every worker to its own partition band.

    Returns the winning :class:`RoutePlan` or None when the restricted
    search fails (the caller then falls back to grid-level A*).
    """
    return _Search(
        graph, stores, crossings, config, stats or SearchStats(), cache, allowed
    ).run(query)
