"""Differential tests of the strip-level search's sorted stub cursor.

A settle of a strip whose aisle degree exceeds
``inter_strip._CURSOR_DEGREE`` queues its edge stubs behind one sorted
heap entry instead of one entry each.  The heap must pop in
exactly the same order either way, so forcing the cursor onto every
strip (threshold 0) and onto none (a huge threshold) must give identical
route plans and identical search counters — all but ``heap_pushes`` and
the timers — on seeded query streams with commits in between.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro import Query, SRPPlanner, build_strip_graph, datasets
from repro.core import inter_strip, strips
from repro.exceptions import InvalidQueryError, LayoutError, PlanningFailedError
from repro.service.sharding import compute_partition

WAREHOUSE = datasets.dataset_by_name("W-1", scale=0.3)
FREE = WAREHOUSE.free_cells()
RACKS = [(int(i), int(j)) for i, j in np.argwhere(WAREHOUSE.racks)]
#: SearchStats fields allowed to differ between the two paths
UNCOMPARED = {"heap_pushes", "intra_time", "cache_time"}
ALL, NONE = 0, 10**9


def endpoint(rng, rows):
    """An aisle cell (two times in three) or a rack cell within ``rows``."""
    cells = RACKS if rng.random() < 1 / 3 else FREE
    while True:
        cell = rng.choice(cells)
        if rows[0] <= cell[0] <= rows[1]:
            return cell


def drive(monkeypatch, degree, seed, queries, regions=1, **planner_kw):
    """Plan a seeded stream; return every search's plan and counters.

    With ``regions`` > 1 every query goes to the planner of one region of
    :func:`compute_partition`, confined by its ``allowed`` mask.
    """
    monkeypatch.setattr(inter_strip, "_CURSOR_DEGREE", degree)
    searches = []

    def recording(*args):
        plan = inter_strip.plan_route(*args)
        stats = dataclasses.asdict(args[5])
        searches.append((plan, {k: v for k, v in stats.items() if k not in UNCOMPARED}))
        return plan

    monkeypatch.setattr("repro.core.planner.plan_route", recording)
    if regions == 1:
        planners = [SRPPlanner(WAREHOUSE, **planner_kw)]
        bounds = [(0, WAREHOUSE.height - 1)]
    else:
        part = compute_partition(WAREHOUSE, build_strip_graph(WAREHOUSE), regions)
        assert part.k == regions
        planners = [
            SRPPlanner(WAREHOUSE, region=part.mask(r), **planner_kw) for r in range(regions)
        ]
        bounds = list(part.bounds)
    rng = random.Random(seed)
    release = 0
    outcomes = []
    for k in range(queries):
        release += rng.randint(0, 2)
        r = rng.randrange(len(planners))
        origin, destination = endpoint(rng, bounds[r]), endpoint(rng, bounds[r])
        try:
            route = planners[r].plan(Query(origin, destination, release, query_id=k))
            outcomes.append((route.start_time, tuple(route.grids)))
        except (PlanningFailedError, InvalidQueryError) as exc:
            outcomes.append(type(exc).__name__)
    cursors = sum(
        arrays is not None for planner in planners for arrays in planner.graph._transit_arrays
    )
    return searches, outcomes, cursors


STREAMS = {
    "aisle-and-rack": dict(seed=1, queries=150),
    "no-heuristic": dict(seed=2, queries=80, use_heuristic=False),
    "regions": dict(seed=3, queries=150, regions=2),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_cursor_pops_like_per_stub_pushes(monkeypatch, name):
    stream = STREAMS[name]
    on, on_outcomes, on_cursors = drive(monkeypatch, ALL, **stream)
    off, off_outcomes, off_cursors = drive(monkeypatch, NONE, **stream)
    assert on_cursors > 0 and off_cursors == 0
    assert on_outcomes == off_outcomes
    assert len(on) == len(off)
    for k, ((plan_on, stats_on), (plan_off, stats_off)) in enumerate(zip(on, off)):
        assert plan_on == plan_off, f"search {k}"
        assert stats_on == stats_off, f"search {k}"
    assert sum(isinstance(o, tuple) for o in on_outcomes) > len(on_outcomes) // 2


def test_heap_pushes_counted_and_summed():
    planner = SRPPlanner(WAREHOUSE)
    stats = inter_strip.SearchStats()
    query = Query(FREE[0], FREE[-1], 0)
    inter_strip.plan_route(
        planner.graph, planner.stores, planner.crossings, query, planner.config, stats
    )
    assert stats.heap_pushes >= stats.strips_popped > 0
    planner.plan(query)
    assert planner.stats.heap_pushes == stats.heap_pushes


def test_transit_arrays_mirror_the_aisle_adjacency():
    graph = SRPPlanner(WAREHOUSE).graph
    for u, row in enumerate(graph._aisle_adjacency):
        arrays = graph.transit_arrays(u)
        assert graph.transit_arrays(u) is arrays
        columns = (arrays.v, arrays.lo, arrays.hi, arrays.offset)
        assert list(zip(*(c.tolist() for c in columns))) == row
        assert all(row[j][0] == v for v, j in arrays.index.items())
        for v, lat, cross, along in zip(
            arrays.v.tolist(), arrays.lat.tolist(), arrays.cross.tolist(), arrays.along.tolist()
        ):
            ai, aj, is_lat = graph.anchors[v]
            assert (lat, cross, along) == ((is_lat, ai, aj) if is_lat else (is_lat, aj, ai))


@pytest.mark.parametrize("scale", [0.3, 1.0])
@pytest.mark.parametrize("name", ["W-1", "W-2", "W-3"])
def test_every_boundary_is_one_transit_range(name, scale):
    """The search assumes one contiguous transit range per strip pair."""
    graph = build_strip_graph(datasets.dataset_by_name(name, scale=scale))
    assert graph.n_edges > 0
    for adj in graph.adjacency:
        assert all(len(ranges) == 1 for ranges in adj.values())


def test_gapped_boundary_is_refused(monkeypatch):
    original = strips._compress_ranges
    monkeypatch.setattr(strips, "_compress_ranges", lambda pairs: original(pairs) * 2)
    with pytest.raises(LayoutError, match="separate ranges"):
        build_strip_graph(WAREHOUSE)
