"""Tests for the strip-level search (Algorithm 4) and its crossing rules."""


from repro import Query, Warehouse, build_strip_graph
from repro.core.conversion import plan_to_route
from repro.core.inter_strip import (
    CrossingEntry,
    SearchConfig,
    SearchStats,
    _nearest_transit,
    plan_route,
)
from repro.core.slope_index import SlopeIndexedStore


def make_world(art: str):
    wh = Warehouse.from_ascii(art)
    graph = build_strip_graph(wh)
    stores = [SlopeIndexedStore() for _ in graph.strips]
    crossings = set()
    return wh, graph, stores, crossings


def plan(graph, stores, crossings, query, **kw):
    return plan_route(graph, stores, crossings, query, SearchConfig(**kw), SearchStats())


def commit(graph, stores, crossings, route_plan):
    """Commit a RoutePlan the same way SRPPlanner does."""
    for leg in route_plan.legs:
        store = stores[leg.strip]
        if leg.entry is not None:
            store.insert(leg.entry.point)
            crossings.add(leg.entry.key)
        for seg in leg.segments:
            store.insert(seg)


OPEN = """
......
......
......
"""

CLUSTERED = """
........
..##.##.
..##.##.
..##.##.
........
..##.##.
..##.##.
........
"""


class TestBasicRouting:
    def test_trivial_same_cell(self):
        wh, graph, stores, crossings = make_world(OPEN)
        rp = plan(graph, stores, crossings, Query((1, 1), (1, 1), 7))
        assert rp is not None and rp.arrival_time == 7 and rp.legs == []

    def test_same_strip(self):
        wh, graph, stores, crossings = make_world(OPEN)
        rp = plan(graph, stores, crossings, Query((0, 0), (0, 5), 0))
        assert rp is not None and rp.arrival_time == 5
        assert len(rp.legs) == 1

    def test_cross_strip_optimal(self):
        wh, graph, stores, crossings = make_world(CLUSTERED)
        rp = plan(graph, stores, crossings, Query((0, 0), (7, 7), 0))
        assert rp is not None
        assert rp.arrival_time == 14  # Manhattan distance

    def test_rack_destination(self):
        wh, graph, stores, crossings = make_world(CLUSTERED)
        rp = plan(graph, stores, crossings, Query((0, 0), (2, 2), 0))
        assert rp is not None
        route = plan_to_route(graph, rp)
        assert route.destination == (2, 2)
        assert route.duration == 4  # Manhattan distance

    def test_rack_origin(self):
        wh, graph, stores, crossings = make_world(CLUSTERED)
        rp = plan(graph, stores, crossings, Query((2, 5), (0, 0), 0))
        assert rp is not None
        route = plan_to_route(graph, rp)
        assert route.origin == (2, 5) and route.destination == (0, 0)
        assert route.duration == 7

    def test_rack_to_rack(self):
        wh, graph, stores, crossings = make_world(CLUSTERED)
        rp = plan(graph, stores, crossings, Query((2, 2), (6, 6), 0))
        assert rp is not None
        route = plan_to_route(graph, rp)
        assert route.origin == (2, 2) and route.destination == (6, 6)

    def test_no_heuristic_same_arrival(self):
        wh, graph, stores, crossings = make_world(CLUSTERED)
        a = plan(graph, stores, crossings, Query((0, 0), (7, 7), 0), use_heuristic=True)
        b = plan(graph, stores, crossings, Query((0, 0), (7, 7), 0), use_heuristic=False)
        assert a.arrival_time == b.arrival_time


class TestCrossingSemantics:
    def test_head_on_corridor_exchange_needs_fallback(self):
        # Two robots exchanging ends of the same column: the greedy
        # transit restriction (Fig. 14) makes the restricted search give
        # up, and the full planner resolves it with its A* fallback.
        from repro import SRPPlanner
        from repro.analysis import assert_collision_free

        wh = Warehouse.from_ascii(OPEN)
        planner = SRPPlanner(wh)
        route_a = planner.plan(Query((0, 2), (2, 2), 0))
        route_b = planner.plan(Query((2, 2), (0, 2), 0))
        assert_collision_free([route_a, route_b])
        assert planner.stats.fallbacks >= 1

    def test_restricted_search_rejects_head_on_exchange(self):
        wh, graph, stores, crossings = make_world(OPEN)
        first = plan(graph, stores, crossings, Query((0, 2), (2, 2), 0))
        commit(graph, stores, crossings, first)
        # The reverse journey at the same instant would need a sidestep
        # outside the greedy transit choice: the strip search refuses.
        assert plan(graph, stores, crossings, Query((2, 2), (0, 2), 0)) is None

    def test_boundary_swap_blocked(self):
        wh, graph, stores, crossings = make_world(OPEN)
        # Manually commit a crossing (1,2) -> (0,2) arriving t=1.
        crossings.add(((1, 2), (0, 2), 1))
        rp = plan(graph, stores, crossings, Query((0, 2), (2, 2), 0))
        route = plan_to_route(graph, rp)
        # The reverse crossing (0,2) -> (1,2) at t=1 is forbidden.
        assert not (route.position_at(0) == (0, 2) and route.position_at(1) == (1, 2))

    def test_crossing_entry_keys(self):
        entry = CrossingEntry(5, (0, 0), (1, 0), None)
        assert entry.key == ((0, 0), (1, 0), 5)
        assert entry.reverse_key == ((1, 0), (0, 0), 5)


class TestNearestTransit:
    # The helpers take the unpacked (lo, hi, offset) of a
    # StripGraph._aisle_adjacency row, not TransitRange objects.
    def test_inside_range(self):
        assert _nearest_transit(0, 9, 2, 4) == (4, 6)

    def test_clamped(self):
        assert _nearest_transit(3, 5, 0, 0) == (3, 3)


class TestTrafficInteraction:
    def test_second_route_avoids_first(self):
        wh, graph, stores, crossings = make_world(CLUSTERED)
        q1 = Query((0, 0), (7, 7), 0)
        q2 = Query((7, 0), (0, 7), 0)
        rp1 = plan(graph, stores, crossings, q1)
        commit(graph, stores, crossings, rp1)
        rp2 = plan(graph, stores, crossings, q2)
        assert rp2 is not None
        from repro.analysis import assert_collision_free

        assert_collision_free([plan_to_route(graph, rp1), plan_to_route(graph, rp2)])

    def test_search_fails_when_origin_claimed(self):
        wh, graph, stores, crossings = make_world(OPEN)
        idx, pos = graph.locate((0, 3))
        from repro.core.segments import make_wait

        stores[idx].insert(make_wait(0, pos, 10))
        rp = plan(graph, stores, crossings, Query((0, 3), (2, 3), 0))
        assert rp is None

    def test_stats_populated(self):
        wh, graph, stores, crossings = make_world(CLUSTERED)
        stats = SearchStats()
        plan_route(graph, stores, crossings, Query((0, 0), (7, 7), 0), SearchConfig(), stats)
        assert stats.strips_popped > 0
        assert stats.intra_calls > 0


class TestEntryClearTime:
    def test_waiting_obstacle(self):
        from repro.core.inter_strip import _entry_clear_time
        from repro.core.segments import make_wait

        obstacle = make_wait(5, 3, 10)  # occupies pos 3 during [5, 15]
        assert _entry_clear_time(obstacle, 3, 0) == 16
        assert _entry_clear_time(obstacle, 3, 20) == 20

    def test_moving_obstacle(self):
        from repro.core.inter_strip import _entry_clear_time
        from repro.core.segments import make_move

        obstacle = make_move(2, 0, 8)  # passes pos 5 at t=7
        assert _entry_clear_time(obstacle, 5, 0) == 8
        assert _entry_clear_time(obstacle, 5, 9) == 9

    def test_backward_moving_obstacle(self):
        from repro.core.inter_strip import _entry_clear_time
        from repro.core.segments import make_move

        obstacle = make_move(0, 9, 1)  # passes pos 4 at t=5
        assert _entry_clear_time(obstacle, 4, 0) == 6


class TestTransitToward:
    def test_lands_at_target(self):
        from repro.core.inter_strip import _transit_toward

        assert _transit_toward(0, 9, 2, target_pos=7) == (5, 7)

    def test_clamped_to_range(self):
        from repro.core.inter_strip import _transit_toward

        assert _transit_toward(3, 5, 0, target_pos=9) == (5, 5)


class TestSearchConfigKnobs:
    def test_detour_cutoff_bounds_failed_searches(self):
        wh = Warehouse.from_ascii("\n".join(["." * 40] * 6))
        graph = build_strip_graph(wh)
        stores = [SlopeIndexedStore() for _ in graph.strips]
        # Park a permanent squatter on the destination.
        idx, pos = graph.locate((5, 39))
        from repro.core.segments import make_wait

        stores[idx].insert(make_wait(0, pos, 10_000))
        stats = SearchStats()
        result = plan_route(
            graph, stores, set(), Query((0, 0), (5, 39), 0), SearchConfig(), stats
        )
        assert result is None
        # The cutoff keeps the failed search from sweeping every strip
        # arbitrarily often.
        assert stats.strips_popped <= 4 * graph.n_vertices

    def test_exact_intra_flag_round_trips(self):
        cfg = SearchConfig(intra_exact=True)
        assert cfg.intra_exact
