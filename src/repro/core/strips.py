"""Strip aggregation and the strip graph (Section IV-A, Algorithm 1).

A *strip* is a maximal row or column run of grids sharing the same rack
value.  Following Algorithm 1 we first aggregate every fully rack-free
row into a single latitudinal aisle strip, then aggregate the remaining
grids column-wise into longitudinal aisle/rack strips.  Strips
partition the warehouse, so each grid maps to exactly one strip and a
one-dimensional position inside it.

Edges connect strips that contain 4-adjacent grids, except pairs of
rack strips (robots cannot cross racks).  Each directed edge carries
*transit ranges* describing which positions of the source strip touch
the target strip and how source positions map to target positions —
this is what the inter-strip planner's greedy transit (Fig. 10) needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.exceptions import LayoutError
from repro.types import Grid
from repro.warehouse.matrix import Warehouse


class Direction(enum.Enum):
    """Axis of a strip: latitudinal strips run along a row."""

    LATITUDINAL = "latitudinal"
    LONGITUDINAL = "longitudinal"


class StripKind(enum.Enum):
    """Whether the strip's grids are aisle (free) or rack cells."""

    AISLE = "aisle"
    RACK = "rack"


@dataclass(frozen=True)
class Strip:
    """A strip vertex ``<alpha, beta, dir, type>`` (Definition 4).

    ``alpha`` is the western/northern-most grid and ``beta`` the
    eastern/southern-most one.  Local positions run 0..length-1 from
    ``alpha`` to ``beta``.
    """

    index: int
    alpha: Grid
    beta: Grid
    direction: Direction
    kind: StripKind

    @property
    def length(self) -> int:
        if self.direction is Direction.LATITUDINAL:
            return self.beta[1] - self.alpha[1] + 1
        return self.beta[0] - self.alpha[0] + 1

    @property
    def is_aisle(self) -> bool:
        return self.kind is StripKind.AISLE

    def contains(self, grid: Grid) -> bool:
        if self.direction is Direction.LATITUDINAL:
            return grid[0] == self.alpha[0] and self.alpha[1] <= grid[1] <= self.beta[1]
        return grid[1] == self.alpha[1] and self.alpha[0] <= grid[0] <= self.beta[0]

    def local(self, grid: Grid) -> int:
        """Map a contained grid to its 1-D position within the strip."""
        if self.direction is Direction.LATITUDINAL:
            return grid[1] - self.alpha[1]
        return grid[0] - self.alpha[0]

    def grid_at(self, pos: int) -> Grid:
        """Map a local position back to the warehouse grid."""
        if not 0 <= pos < self.length:
            raise IndexError(f"position {pos} outside strip of length {self.length}")
        if self.direction is Direction.LATITUDINAL:
            return (self.alpha[0], self.alpha[1] + pos)
        return (self.alpha[0] + pos, self.alpha[1])


@dataclass(frozen=True)
class TransitRange:
    """Positions of a source strip adjacent to one target strip.

    For every source position ``p`` in ``[lo, hi]`` the grid one step
    across the boundary lies in the target strip at local position
    ``p + offset``.  Side-by-side adjacency yields long ranges,
    perpendicular and stacked adjacency yield single-position ranges.
    """

    lo: int
    hi: int
    offset: int

    def clamp(self, pos: int) -> int:
        """Nearest in-range source position to ``pos`` (greedy transit)."""
        return min(max(pos, self.lo), self.hi)


#: one row of :attr:`StripGraph._aisle_adjacency`: ``(v, lo, hi, offset)``,
#: the neighbor strip and the single transit range of the boundary
AisleEdge = Tuple[int, int, int, int]


class TransitArrays(NamedTuple):
    """One strip's aisle edges as columns.

    Entry ``j`` is row ``j`` of the strip's aisle adjacency; the
    inter-strip search bounds and sorts all of a wide strip's edges with
    a few vectorised operations over these columns.  ``lat`` is each
    neighbor's axis and ``cross``/``along`` its anchor coordinate across
    and along that axis, so the Manhattan heuristic of a landing position
    ``vp`` is ``|cross - d_cross| + |vp + along - d_along|``, with the
    destination's coordinates picked by ``lat``.
    """

    v: NDArray[np.int64]
    lo: NDArray[np.int64]
    hi: NDArray[np.int64]
    offset: NDArray[np.int64]
    lat: NDArray[np.bool_]
    cross: NDArray[np.int64]
    along: NDArray[np.int64]
    #: neighbor strip -> entry index
    index: Dict[int, int]


class StripGraph:
    """The strip graph ``S = <V, E>`` (Definition 5) plus grid mapping."""

    def __init__(
        self, warehouse: Warehouse, strips: List[Strip], strip_of: np.ndarray
    ) -> None:
        self.warehouse = warehouse
        self.strips = strips
        self._strip_of = strip_of
        # adjacency[u] -> {v: [TransitRange, ...]}
        self.adjacency: List[Dict[int, List[TransitRange]]] = [dict() for _ in strips]
        self._build_edges()
        #: per-strip (alpha_row, alpha_col, is_latitudinal) for O(1) heuristics
        self.anchors: List[Tuple[int, int, bool]] = [
            (s.alpha[0], s.alpha[1], s.direction is Direction.LATITUDINAL)
            for s in strips
        ]
        #: per-strip aisle flag (plain bools, no enum comparison)
        self.aisle_flags: List[bool] = [s.is_aisle for s in strips]
        # Flattened aisle-only view of the graph for the planner's hot
        # loop: the inter-strip search touches every aisle neighbor of
        # every settled strip (racks are only endpoints), so dataclass
        # attribute chains there are measurable.  Same iteration order
        # as neighbors() (dict insertion order); every boundary is one
        # transit range (see _build_edges), unpacked into the row tuple
        # so the settle loop clips positions without a nested tuple.
        self._aisle_adjacency: List[List[AisleEdge]] = [
            [
                (v, ranges[0].lo, ranges[0].hi, ranges[0].offset)
                for v, ranges in adj.items()
                if self.aisle_flags[v]
            ]
            for adj in self.adjacency
        ]
        # Column form of wide rows, built on a strip's first wide settle.
        self._transit_arrays: List[Optional[TransitArrays]] = [None] * len(strips)

    def transit_arrays(self, strip_index: int) -> TransitArrays:
        """Column form of a strip's aisle edges.

        Built on first use and kept: only the search's wide settles ask,
        so set-up pays nothing for the many strips that never need it.
        Two threads racing here build equal arrays, so either may win.
        """
        arrays = self._transit_arrays[strip_index]
        if arrays is None:
            row = self._aisle_adjacency[strip_index]
            v, lo, hi, offset = (
                np.array([edge[k] for edge in row], dtype=np.int64) for k in range(4)
            )
            anchors = [self.anchors[edge[0]] for edge in row]
            arrays = TransitArrays(
                v,
                lo,
                hi,
                offset,
                np.array([lat for _, _, lat in anchors], dtype=np.bool_),
                np.array([i if lat else j for i, j, lat in anchors], dtype=np.int64),
                np.array([j if lat else i for i, j, lat in anchors], dtype=np.int64),
                {edge[0]: j for j, edge in enumerate(row)},
            )
            self._transit_arrays[strip_index] = arrays
        return arrays

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def strip_index_of(self, grid: Grid) -> int:
        idx = int(self._strip_of[grid[0], grid[1]])
        if idx < 0:
            raise LayoutError(f"grid {grid} belongs to no strip")
        return idx

    def strip_of(self, grid: Grid) -> Strip:
        return self.strips[self.strip_index_of(grid)]

    def locate(self, grid: Grid) -> Tuple[int, int]:
        """Return ``(strip_index, local_position)`` of a grid."""
        idx = self.strip_index_of(grid)
        return idx, self.strips[idx].local(grid)

    def neighbors(self, strip_index: int) -> Iterator[Tuple[int, List[TransitRange]]]:
        """Yield ``(neighbor_index, transit_ranges)`` pairs."""
        yield from self.adjacency[strip_index].items()

    # ------------------------------------------------------------------
    # Table II statistics
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self.strips)

    @property
    def n_edges(self) -> int:
        """Undirected edge count, as reported in Table II."""
        return sum(len(adj) for adj in self.adjacency) // 2

    def reduction_stats(self) -> Dict[str, float]:
        """Vertex/edge reduction ratios versus the grid representation."""
        gv = self.warehouse.grid_vertex_count()
        ge = self.warehouse.grid_edge_count()
        return {
            "grid_vertices": gv,
            "grid_edges": ge,
            "strip_vertices": self.n_vertices,
            "strip_edges": self.n_edges,
            "vertex_ratio": self.n_vertices / gv,  # srplint: allow-float reduction-ratio reporting (Fig. 8)
            "edge_ratio": self.n_edges / ge,  # srplint: allow-float reduction-ratio reporting (Fig. 8)
        }

    # ------------------------------------------------------------------
    # Edge construction
    # ------------------------------------------------------------------
    def _build_edges(self) -> None:
        """Scan adjacent grid pairs and compress them into transit ranges.

        Rack-rack adjacencies carry no edge since robots cannot cross
        racks (Algorithm 1, line 23's adjacency test).  Boundary pairs
        are extracted with vectorised comparisons of the strip-index
        matrix against its shifted copies; only actual strip boundaries
        reach the Python grouping loop.
        """
        strip_of = self._strip_of
        # Local position of every cell inside its strip, precomputed so
        # the boundary scan needs no per-cell method calls.
        h, w = self.warehouse.shape
        pos_of = np.empty((h, w), dtype=np.int32)
        for strip in self.strips:
            (i0, j0), (i1, j1) = strip.alpha, strip.beta
            if strip.direction is Direction.LATITUDINAL:
                pos_of[i0, j0 : j1 + 1] = np.arange(j1 - j0 + 1)
            else:
                pos_of[i0 : i1 + 1, j0] = np.arange(i1 - i0 + 1)
        aisle = np.fromiter(
            (s.is_aisle for s in self.strips), dtype=bool, count=len(self.strips)
        )

        pair_positions: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

        def scan(
            u_ids: np.ndarray,
            v_ids: np.ndarray,
            u_pos: np.ndarray,
            v_pos: np.ndarray,
        ) -> None:
            boundary = u_ids != v_ids
            boundary &= aisle[u_ids] | aisle[v_ids]
            for u, v, pu, pv in zip(
                u_ids[boundary].tolist(),
                v_ids[boundary].tolist(),
                u_pos[boundary].tolist(),
                v_pos[boundary].tolist(),
            ):
                pair_positions.setdefault((u, v), []).append((pu, pv))
                pair_positions.setdefault((v, u), []).append((pv, pu))

        scan(strip_of[:-1, :], strip_of[1:, :], pos_of[:-1, :], pos_of[1:, :])
        scan(strip_of[:, :-1], strip_of[:, 1:], pos_of[:, :-1], pos_of[:, 1:])
        for (u, v), pairs in pair_positions.items():
            ranges = _compress_ranges(pairs)
            if len(ranges) != 1:
                # Two straight strips touch in one contiguous run with a
                # constant offset; the search relies on that shape.
                raise LayoutError(
                    f"strips {u} and {v} touch in {len(ranges)} separate ranges"
                )
            self.adjacency[u][v] = ranges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StripGraph(strips={self.n_vertices}, edges={self.n_edges})"


def _compress_ranges(pairs: List[Tuple[int, int]]) -> List[TransitRange]:
    """Merge sorted (source, target) position pairs into transit ranges.

    Consecutive pairs with source positions increasing by one and a
    constant offset collapse into a single range.
    """
    pairs = sorted(set(pairs))
    ranges: List[TransitRange] = []
    lo, last, offset = pairs[0][0], pairs[0][0], pairs[0][1] - pairs[0][0]
    for pu, pv in pairs[1:]:
        if pu == last + 1 and pv - pu == offset:
            last = pu
            continue
        ranges.append(TransitRange(lo, last, offset))
        lo, last, offset = pu, pu, pv - pu
    ranges.append(TransitRange(lo, last, offset))
    return ranges


def build_strip_graph(warehouse: Warehouse) -> StripGraph:
    """Algorithm 1: aggregate grids into strips and build the strip graph.

    Fully rack-free rows become latitudinal aisle strips; the remaining
    grids are aggregated column-wise into maximal same-value runs
    (longitudinal aisle or rack strips).
    """
    h, w = warehouse.shape
    racks = warehouse.racks
    strip_of = np.full((h, w), -1, dtype=np.int32)
    strips: List[Strip] = []

    # Latitudinal pass: whole empty rows (Algorithm 1, lines 4-8).
    full_rows = ~racks.any(axis=1)
    for i in range(h):
        if full_rows[i]:
            idx = len(strips)
            strips.append(
                Strip(idx, (i, 0), (i, w - 1), Direction.LATITUDINAL, StripKind.AISLE)
            )
            strip_of[i, :] = idx

    # Longitudinal pass: maximal same-value column runs (lines 10-19).
    for j in range(w):
        i = 0
        while i < h:
            if strip_of[i, j] >= 0:
                i += 1
                continue
            value = racks[i, j]
            k = i
            while k + 1 < h and strip_of[k + 1, j] < 0 and racks[k + 1, j] == value:
                k += 1
            idx = len(strips)
            kind = StripKind.RACK if value else StripKind.AISLE
            strips.append(Strip(idx, (i, j), (k, j), Direction.LONGITUDINAL, kind))
            strip_of[i : k + 1, j] = idx
            i = k + 1

    return StripGraph(warehouse, strips, strip_of)
