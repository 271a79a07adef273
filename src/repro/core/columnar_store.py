"""Columnar (array-backed) segment store: the slope index over flat columns.

:class:`ColumnarSegmentStore` answers exactly the same queries as
:class:`repro.core.slope_index.SlopeIndexedStore` — same blocked times,
same reported blocking segment under ties, same version/``last_end``
contract — but stores segments as seven parallel flat integer columns
(``array('q')``) sorted by start time instead of one Python object per
segment:

``t0 | t1 | p0 | p1 | slope | intercept | owner``

The layout buys three things the object-per-segment stores cannot offer:

* **One contiguous candidate window per scan.**  The candidates of a
  probe are a single ``bisect`` pair on the ``t0`` column (widened by
  the longest stored duration), and Definition 6's vertex/swap
  arithmetic runs as one scalar loop over that column range, with an
  early exit once no later candidate can win the tie-break.  Windows
  are small in practice (about 27 candidates, 9 of them alive, on the
  full-scale query stream), so a per-call vectorised path never pays
  back its fixed cost.
* **Batched occupancy scans.**  :meth:`first_occupied` and
  :meth:`clear_entry_time` answer a whole time span per call from one
  column scan, where the object stores replay per-second point probes.
* **An incremental per-band interval index.**  Every segment's covered
  time interval per 16-cell position band is kept sorted per band with
  a parallel prefix-max of interval ends, so :meth:`band_clear` decides
  "no stored segment touches this band during this span" with one
  ``bisect`` and one comparison per band — O(log n) *negative* answers
  for :meth:`earliest_conflict`, :meth:`first_occupied`,
  :meth:`clear_entry_time` and :meth:`free_window`, and the free-flow
  fast path in the inter-strip search.  :meth:`scan_cost_hint` exposes
  the indexed entry count so the certificate layer can judge minting
  profitability per probe region instead of via the blanket
  ``_CERT_STORE_MAX`` size throttle (:attr:`cheap_scans`).

Tie-break contract (must match the slope index bit-for-bit): the
reported conflict is the minimum over candidates of the key
``(blocked_time, class_rank, column_index)`` where ``class_rank`` is 0
for same-slope candidates and otherwise 1 + the position of the
candidate's slope class in the slope index's fixed ``(0, 1, -1)`` scan
order with the probe's own class skipped.  Restricting the t0-sorted
combined columns to one slope class reproduces that class's per-slope
list order (both are bisect-right insertion orders on ``t0``), so this
key reproduces the slope index's "same-slope first, then classes in
scan order, strict ``<`` within a class" selection exactly.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.segments import Segment
from repro.core.store_base import (
    FOREVER,
    ConflictHit,
    SegmentStore,
    _band_time_interval,
)

#: Width (cells) of the position bands of the free-window interval index.
BAND_WIDTH = 16

#: Sentinel larger than any real blocked time (times fit in well under
#: 62 bits; FOREVER is 2**60).
_SENT = 1 << 62

#: ``(probe_slope, candidate_slope) -> tie-break rank`` reproducing the
#: slope index's scan order: same slope first (rank 0), then the classes
#: ``(0, 1, -1)`` in order with the probe's own class skipped.
_CLASS_RANK: Dict[Tuple[int, int], int] = {}
for _m in (-1, 0, 1):
    _rank = 1
    for _k in (0, 1, -1):
        if _k == _m:
            _CLASS_RANK[(_m, _k)] = 0
        else:
            _CLASS_RANK[(_m, _k)] = _rank
            _rank += 1
del _m, _k, _rank


class ColumnarSegmentStore(SegmentStore):
    """Array-backed store, bit-compatible with the slope index.

    See the module docstring for the layout and the tie-break contract.
    Instrumentation note: :attr:`judged` counts the window candidates
    whose time span can overlap the probe and which the scan loop reached
    before its early exit, rather than the slope index's per-bucket
    judgement count; only slope-index-specific tests depend on the exact
    ``judged`` value.
    """

    cheap_scans = True

    __slots__ = (
        "queries", "judged", "version", "last_end",
        "_t0", "_t1", "_p0", "_p1", "_k", "_c", "_own",
        "_max_duration", "_bands", "_maxb",
    )

    def __init__(self) -> None:
        super().__init__()
        self._t0 = array("q")
        self._t1 = array("q")
        self._p0 = array("q")
        self._p1 = array("q")
        self._k = array("q")
        self._c = array("q")
        self._own = array("q")
        #: longest stored duration; bounds the bisect window of every scan
        self._max_duration = 0
        #: band index -> sorted [(enter, exit)] over stored segments
        self._bands: Dict[int, List[Tuple[int, int]]] = {}
        #: band index -> prefix maxima of the exits in ``_bands[band]``
        #: (``_maxb[band][i] == max(exit for _, exit in _bands[band][:i+1])``),
        #: so "any interval overlapping [t0, t1]?" is one bisect + one
        #: comparison instead of a scan
        self._maxb: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # mutation
    def insert(self, segment: Segment, owner: int = -1) -> None:
        t0 = segment.t0
        idx = bisect_right(self._t0, t0)
        self._t0.insert(idx, t0)
        self._t1.insert(idx, segment.t1)
        self._p0.insert(idx, segment.p0)
        self._p1.insert(idx, segment.p1)
        self._k.insert(idx, segment.slope)
        self._c.insert(idx, segment.intercept)
        self._own.insert(idx, owner)
        duration = segment.t1 - t0
        if duration > self._max_duration:
            self._max_duration = duration
        p0, p1 = segment.p0, segment.p1
        pmin, pmax = (p0, p1) if p0 <= p1 else (p1, p0)
        for band in range(pmin // BAND_WIDTH, pmax // BAND_WIDTH + 1):
            interval = _band_time_interval(
                segment, band * BAND_WIDTH, band * BAND_WIDTH + BAND_WIDTH - 1
            )
            assert interval is not None  # band range intersects [pmin, pmax]
            entries = self._bands.get(band)
            if entries is None:
                self._bands[band] = [interval]
                self._maxb[band] = [interval[1]]
            else:
                at = bisect_right(entries, interval)
                entries.insert(at, interval)
                maxb = self._maxb[band]
                exit_t = interval[1]
                prev = maxb[at - 1] if at > 0 else -1
                maxb.insert(at, exit_t if exit_t > prev else prev)
                # Entries after ``at`` already hold the prefix-max over
                # everything before them except the new interval, so the
                # new exit only needs folding in until it stops winning —
                # the old running max is non-decreasing, so the first
                # slot it does not raise ends the walk.
                for j in range(at + 1, len(maxb)):
                    if maxb[j] < exit_t:
                        maxb[j] = exit_t
                    else:
                        break
        self._bump_insert(segment)

    def remove(self, segment: Segment) -> None:
        t0 = segment.t0
        lo = bisect_left(self._t0, t0)
        hi = bisect_right(self._t0, t0, lo)
        found = -1
        for i in range(lo, hi):
            if (
                self._t1[i] == segment.t1
                and self._p0[i] == segment.p0
                and self._p1[i] == segment.p1
            ):
                found = i  # keep scanning: drop the *last* equal instance
        if found < 0:
            raise KeyError(f"segment {segment!r} not stored")
        duration = segment.t1 - t0
        del self._t0[found]
        del self._t1[found]
        del self._p0[found]
        del self._p1[found]
        del self._k[found]
        del self._c[found]
        del self._own[found]
        p0, p1 = segment.p0, segment.p1
        pmin, pmax = (p0, p1) if p0 <= p1 else (p1, p0)
        for band in range(pmin // BAND_WIDTH, pmax // BAND_WIDTH + 1):
            interval = _band_time_interval(
                segment, band * BAND_WIDTH, band * BAND_WIDTH + BAND_WIDTH - 1
            )
            assert interval is not None
            entries = self._bands[band]
            at = bisect_left(entries, interval)
            entries.pop(at)
            maxb = self._maxb[band]
            maxb.pop()
            if not entries:
                del self._bands[band]
                del self._maxb[band]
            else:
                run = maxb[at - 1] if at > 0 else -1
                for j in range(at, len(entries)):
                    end = entries[j][1]
                    if end > run:
                        run = end
                    maxb[j] = run
        if duration == self._max_duration:
            self._recompute_max_duration()
        self._bump_version()

    def prune(self, before: int) -> int:
        n = len(self._t0)
        if n == 0:
            return 0
        keep = [i for i in range(n) if self._t1[i] >= before]
        dropped = n - len(keep)
        if dropped == 0:
            return 0
        self._t0 = array("q", [self._t0[i] for i in keep])
        self._t1 = array("q", [self._t1[i] for i in keep])
        self._p0 = array("q", [self._p0[i] for i in keep])
        self._p1 = array("q", [self._p1[i] for i in keep])
        self._k = array("q", [self._k[i] for i in keep])
        self._c = array("q", [self._c[i] for i in keep])
        self._own = array("q", [self._own[i] for i in keep])
        self._bands = {}
        for i in range(len(self._t0)):
            segment = Segment(self._t0[i], self._p0[i], self._t1[i], self._p1[i])
            pmin = segment.p0 if segment.p0 <= segment.p1 else segment.p1
            pmax = segment.p0 if segment.p0 >= segment.p1 else segment.p1
            for band in range(pmin // BAND_WIDTH, pmax // BAND_WIDTH + 1):
                interval = _band_time_interval(
                    segment,
                    band * BAND_WIDTH,
                    band * BAND_WIDTH + BAND_WIDTH - 1,
                )
                assert interval is not None
                insort(self._bands.setdefault(band, []), interval)
        self._maxb = {}
        for band, entries in self._bands.items():
            run = -1
            maxb = []
            for _enter, end in entries:
                if end > run:
                    run = end
                maxb.append(run)
            self._maxb[band] = maxb
        self._recompute_max_duration()
        self._bump_version()
        return dropped

    def clear(self) -> None:
        if len(self._t0) == 0:
            self.last_end = -1
            return
        self._t0 = array("q")
        self._t1 = array("q")
        self._p0 = array("q")
        self._p1 = array("q")
        self._k = array("q")
        self._c = array("q")
        self._own = array("q")
        self._max_duration = 0
        self._bands = {}
        self._maxb = {}
        self.last_end = -1
        self._bump_version()

    def _recompute_max_duration(self) -> None:
        best = 0
        t0, t1 = self._t0, self._t1
        for i in range(len(t0)):
            duration = t1[i] - t0[i]
            if duration > best:
                best = duration
        self._max_duration = best

    # ------------------------------------------------------------------
    # queries
    def __len__(self) -> int:
        return len(self._t0)

    def iter_segments(self) -> Iterator[Segment]:
        # Column order is the scan order of earliest_conflict, so the
        # inherited band_signature satisfies its canonical-order contract.
        for i in range(len(self._t0)):
            yield Segment(self._t0[i], self._p0[i], self._t1[i], self._p1[i])

    def _window(self, t_lo: int, t_hi: int) -> Tuple[int, int]:
        """Column range of candidates whose time span can touch [t_lo, t_hi]."""
        lo = bisect_left(self._t0, t_lo - self._max_duration)
        hi = bisect_right(self._t0, t_hi, lo)
        return lo, hi

    def band_clear(self, lo: int, hi: int, t0: int, t1: int) -> bool:
        """True when *no* stored segment touches band [lo, hi] in [t0, t1].

        Decided purely from the per-band interval index: a segment
        inside the band during the span would put its (band-aligned,
        hence superset) time interval in overlap with ``[t0, t1]``, so
        "no indexed interval overlaps" soundly certifies the negative.
        One ``bisect`` plus one prefix-max comparison per band; ``False``
        only means "cannot certify cheaply" (the band over-covers
        ``[lo, hi]``), never "there is a conflict".
        """
        bands = self._bands
        maxbs = self._maxb
        for band in range(lo // BAND_WIDTH, hi // BAND_WIDTH + 1):
            entries = bands.get(band)
            if not entries:
                continue
            # entries with enter <= t1, as a sorted prefix
            n = bisect_right(entries, (t1, _SENT))
            if n and maxbs[band][n - 1] >= t0:
                return False
        return True

    def scan_cost_hint(self, lo: int, hi: int, t0: int, t1: int) -> int:
        """Indexed entries a scan of band [lo, hi] x [t0, t1] would touch.

        Counts band-index intervals starting by ``t1`` in the covering
        bands — an upper-bound proxy for how much work certificate
        minting (and the certificate's own survival odds) would cost
        against this region.  Two bisects per band, no column access.
        """
        total = 0
        bands = self._bands
        for band in range(lo // BAND_WIDTH, hi // BAND_WIDTH + 1):
            entries = bands.get(band)
            if entries:
                total += bisect_right(entries, (t1, _SENT)) - bisect_left(
                    entries, (t0 - self._max_duration, -_SENT)
                )
        return total

    def earliest_conflict(self, segment: Segment) -> Optional[ConflictHit]:
        self.queries += 1
        if len(self._t0) == 0 or segment.t0 > self.last_end:
            return None
        p0, p1 = segment.p0, segment.p1
        if self.band_clear(
            p0 if p0 <= p1 else p1, p1 if p0 <= p1 else p0, segment.t0, segment.t1
        ):
            # Every conflict kind (same-line, crossing, swap) puts the
            # blocking segment inside the probe's position range at a
            # second within the probe's span — impossible when the band
            # index is clear there.
            return None
        lo, hi = self._window(segment.t0, segment.t1)
        t0a, t1a = self._t0, self._t1
        ka, ca = self._k, self._c
        qt0, qt1 = segment.t0, segment.t1
        m, cq = segment.slope, segment.intercept
        judged = 0
        best_t = 0
        best_rank = 0
        best_i = -1
        for i in range(lo, hi):
            if t1a[i] < qt0:
                continue
            judged += 1
            ot0 = t0a[i]
            low = qt0 if qt0 > ot0 else ot0
            high = qt1 if qt1 < t1a[i] else t1a[i]
            k = ka[i]
            if k == m:
                if ca[i] != cq:
                    continue
                cand = low
            else:
                den = k - m
                num = cq - ca[i]
                if den < 0:
                    den = -den
                    num = -num
                if den == 1:
                    if num < low or num > high:
                        continue
                    cand = num
                elif num & 1:
                    after = ((num - 1) >> 1) + 1
                    if after - 1 < low or after > high:
                        continue
                    cand = after
                else:
                    cand = num >> 1
                    if cand < low or cand > high:
                        continue
            rank = _CLASS_RANK[(m, k)]
            if best_i < 0 or cand < best_t or (cand == best_t and rank < best_rank):
                best_t, best_rank, best_i = cand, rank, i
                if best_t <= qt0 and best_rank == 0:
                    break
        self.judged += judged
        if best_i < 0:
            return None
        return best_t, Segment(
            self._t0[best_i], self._p0[best_i], self._t1[best_i], self._p1[best_i]
        )

    # ------------------------------------------------------------------
    # batched occupancy scans
    def first_occupied(self, pos: int, t_lo: int, t_hi: int) -> Optional[int]:
        self.queries += 1
        if t_hi < t_lo or len(self._t0) == 0 or t_lo > self.last_end:
            # last_end is a monotone high-water mark over every stored
            # t1, so nothing can occupy any cell after it.
            return None
        # band_clear inlined for the single covering band — this is the
        # hottest store entry point (one call per crossing wait scan).
        entries = self._bands.get(pos // BAND_WIDTH)
        if not entries:
            return None
        n = bisect_right(entries, (t_hi, _SENT))
        if not n or self._maxb[pos // BAND_WIDTH][n - 1] < t_lo:
            return None
        lo, hi = self._window(t_lo, t_hi)
        t0a, t1a, p0a, ka, ca = self._t0, self._t1, self._p0, self._k, self._c
        best = -1
        for i in range(lo, hi):
            if t1a[i] < t_lo:
                continue
            k = ka[i]
            if k == 0:
                if p0a[i] != pos:
                    continue
                cand = t0a[i] if t0a[i] > t_lo else t_lo
            else:
                cand = (pos - ca[i]) * k
                if (
                    cand < t0a[i] or cand > t1a[i]
                    or cand < t_lo or cand > t_hi
                ):
                    continue
            if best < 0 or cand < best:
                best = cand
                if best <= t_lo:
                    break
        return None if best < 0 else best

    def clear_entry_time(self, pos: int, t_from: int, t_cap: int) -> Optional[int]:
        self.queries += 1
        if t_from > t_cap:
            return None
        if len(self._t0) == 0 or t_from > self.last_end:
            return t_from
        # band_clear inlined for the single covering band (see
        # first_occupied).
        entries = self._bands.get(pos // BAND_WIDTH)
        if not entries:
            return t_from
        n = bisect_right(entries, (t_cap, _SENT))
        if not n or self._maxb[pos // BAND_WIDTH][n - 1] < t_from:
            return t_from
        lo, hi = self._window(t_from, t_cap)
        intervals: List[Tuple[int, int]] = []
        t0a, t1a, p0a, ka, ca = self._t0, self._t1, self._p0, self._k, self._c
        for i in range(lo, hi):
            if t1a[i] < t_from:
                continue
            k = ka[i]
            if k == 0:
                if p0a[i] != pos:
                    continue
                a, b = t0a[i], t1a[i]
            else:
                t_pass = (pos - ca[i]) * k
                if t_pass < t0a[i] or t_pass > t1a[i]:
                    continue
                a = b = t_pass
            if b < t_from or a > t_cap:
                continue
            intervals.append((a, b))
        if not intervals:
            return t_from
        intervals.sort()
        cursor = t_from
        for a, b in intervals:
            if a > cursor:
                return cursor
            if b >= cursor:
                cursor = b + 1
                if cursor > t_cap:
                    return None
        return cursor

    # ------------------------------------------------------------------
    # certificates
    def free_window(
        self, lo: int, hi: int, t0: int, t1: int
    ) -> Optional[Tuple[int, int]]:
        if not self.band_clear(lo, hi, t0, t1):
            # Some band interval overlaps the probe span; fall back to
            # the exact per-segment computation (the band over-covers
            # [lo, hi], so the exact scan may still find a window).
            return super().free_window(lo, hi, t0, t1)
        w_lo, w_hi = 0, FOREVER
        for band in range(lo // BAND_WIDTH, hi // BAND_WIDTH + 1):
            entries = self._bands.get(band)
            if not entries:
                continue
            for a, b in entries:
                if b < t0:
                    if b >= w_lo:
                        w_lo = b + 1
                elif a - 1 < w_hi:
                    w_hi = a - 1
        # No band interval overlaps [t0, t1]: every stored segment is
        # outside the (band-aligned superset of the) queried band for the
        # whole span, and the bounds computed from the band intervals are
        # sound — possibly narrower than the exact maximal window, which
        # only costs certificate coverage, never correctness.
        return w_lo, w_hi

    # ------------------------------------------------------------------
    # audit
    def owners_overlapping(self, t0: int, t1: int) -> List[int]:
        """Sorted distinct owner query-ids with a segment alive in [t0, t1].

        Owners are recorded by :meth:`insert`; unattributed segments
        (owner -1, e.g. blockages) are excluded.  Advisory: value-equal
        segments from different owners are indistinguishable to
        remove-by-value, so after decommits of duplicated segments the
        surviving attribution may name either owner.
        """
        t0a, t1a, own = self._t0, self._t1, self._own
        owners: Set[int] = set()
        # rows past the bisect start after t1 (columns are t0-sorted)
        for i in range(bisect_right(t0a, t1)):
            if t1a[i] >= t0 and own[i] >= 0:
                owners.add(own[i])
        return sorted(owners)
