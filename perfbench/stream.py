"""``stream_full``: the paper's online CARP query stream at full scale.

One default :class:`~repro.SRPPlanner` per Table II layout (W-1, W-2,
W-3 at scale 1.0) plans a seeded Fig. 16-style stream closed loop: each
query is planned and committed before the next, the three layouts take
turns, and each planner prunes every :data:`PRUNE_EVERY` simulated
seconds.  The number of queries is fixed by ``--seconds`` (see
:func:`queries_per_layout`), so every run of one seed plans the same
queries and hands out the same routes.  A run has
:data:`~perfbench.common.PASSES` passes, each with fresh planners and its
own seeded streams.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Iterator, List, Optional

from repro import Query, SRPPlanner, datasets
from repro.exceptions import PlanningFailedError
from repro.types import Route

from perfbench import layers
from perfbench.common import (
    MIN_SAMPLES, PASSES, Pass, Run, analyse_trace, pass_seed, peak_rss_mb_self, planner_counters,
)
from perfbench.tracing import Tracer

LAYOUTS = ("W-1", "W-2", "W-3")
#: queries per layout per second of ``--seconds``: about the rate of a
#: 2-core x86 host, so a run lasts about ``--seconds`` there
QUERIES_PER_SECOND = 24
#: simulated seconds between prunes, as in the hot-path benchmark
PRUNE_EVERY = 512


def query_stream(warehouse, seed: str) -> Iterator[Query]:
    """An endless seeded stream of online queries.

    Half of the endpoints are picker stations, where warehouse traffic
    converges; the rest are uniform over the free floor.  One query is
    released every simulated second on average.
    """
    rng = random.Random(seed)
    free = warehouse.free_cells()
    hot = list(warehouse.pickers)
    release = 0
    k = 0
    while True:
        release += rng.randint(0, 2)
        origin = rng.choice(hot if rng.random() < 0.5 else free)
        destination = rng.choice(hot if rng.random() < 0.5 else free)
        if origin == destination:
            destination = rng.choice(free)
        yield Query(origin, destination, release, query_id=k)
        k += 1


class Lane:
    """One layout's planner and its query stream."""

    def __init__(self, layout: str, seed: int) -> None:
        self.layout = layout
        self.warehouse = datasets.dataset_by_name(layout, scale=1.0)
        self.planner = SRPPlanner(self.warehouse)
        self.queries = query_stream(self.warehouse, f"{seed}:{layout}")
        self.last_prune = 0
        self.routes: List[Route] = []
        self.releases: List[int] = []
        self.failed = 0

    def plan_next(self, run: Run, timing: Pass) -> None:
        """Plan and commit the next query; a step is the prune, if due, plus the plan."""
        step_started = time.perf_counter()
        query = next(self.queries)
        if query.release_time - self.last_prune >= PRUNE_EVERY:
            self.planner.prune(query.release_time)
            self.last_prune = query.release_time
        started = time.perf_counter()
        try:
            route: Optional[Route] = self.planner.plan(query)
        except PlanningFailedError:
            route = None
        ended = time.perf_counter()
        timing.latencies.append(ended - started)
        timing.steps.append(ended - step_started)
        run.outcomes.record(route is not None)
        if route is None:
            self.failed += 1
        else:
            self.routes.append(route)
            self.releases.append(query.release_time)
        timing.tick()


def queries_per_layout(seconds: float) -> int:
    """One pass's fixed work: all passes together last about ``seconds``."""
    return max(-(-MIN_SAMPLES // len(LAYOUTS)), round(seconds * QUERIES_PER_SECOND / PASSES))


def build(seed: int) -> List[Lane]:
    return [Lane(layout, seed) for layout in LAYOUTS]


def _digest(lanes: List[Lane], run: Run) -> None:
    """Digest every route; fill the deterministic route metrics and counters."""
    for lane in lanes:
        for route, release in zip(lane.routes, lane.releases):
            run.digest.add(route.query_id, route.start_time, route.grids)
            run.route_s.append(route.finish_time - release)
    run.makespans.append(statistics.fmean(max(r.finish_time for r in lane.routes) for lane in lanes))
    stats = [lane.planner.stats.__dict__ for lane in lanes]
    run.counters.update(
        {k: v for k, v in planner_counters(stats).items() if not k.endswith("ratio")}
    )
    run.counters["failed"] += sum(lane.failed for lane in lanes)


def _check(lanes: List[Lane], run: Run) -> None:
    for lane in lanes:
        run.oracle.check_routes(lane.layout, lane.routes, lane.warehouse)
        run.oracle.check_planner(lane.layout, lane.planner, lane.routes, lane.last_prune)


def _plan(lanes: List[Lane], run: Run, timing: Pass, seconds: float) -> float:
    """Plan one pass's queries closed loop; returns the host seconds taken."""
    started = time.perf_counter()
    for _ in range(queries_per_layout(seconds)):
        for lane in lanes:
            lane.plan_next(run, timing)
    return time.perf_counter() - started


def measure(seed: int, seconds: float) -> Run:
    """The untraced run: end-to-end metrics over :data:`PASSES` passes."""
    run = Run("stream_full", seed)

    def one_pass(k: int, lanes: List[Lane], timing: Pass) -> None:
        _plan(lanes, run, timing, seconds)
        run.ops += len(timing.steps)
        _digest(lanes, run)
        _check(lanes, run)

    run.run_passes(lambda k: build(pass_seed(seed, k)), one_pass)
    run.peak_rss_mb = peak_rss_mb_self()
    return run


def trace(seed: int, seconds: float) -> Run:
    """The traced run: the first pass's queries planned plain, then traced.

    It plans the smallest query count (``queries_per_layout(0)``) whatever
    ``seconds`` is, so that doing the work twice stays short.
    """
    plain = Run("stream_full", seed)
    plain_lanes = build(pass_seed(seed, 0))
    plain_s = _plan(plain_lanes, plain, Pass(), 0)
    _digest(plain_lanes, plain)
    del plain_lanes
    run = Run("stream_full", seed)
    tracer = Tracer()
    tracer.install(layers.PLANNER)
    try:
        with tracer.span("bench"):
            with tracer.span("bench.setup"):
                lanes = build(pass_seed(seed, 0))
            traced_s = _plan(lanes, run, Pass(), 0)
    finally:
        tracer.uninstall()
    _digest(lanes, run)
    _check(lanes, run)
    run.oracle.require(
        "tracing changed routes", run.digest.hexdigest() == plain.digest.hexdigest(),
        f"{run.digest.hexdigest()} traced vs {plain.digest.hexdigest()} untraced",
    )
    metrics, problems = analyse_trace(tracer.records())
    for problem in problems:
        run.oracle.require("trace", False, problem)
    metrics.update(planner_counters([lane.planner.stats.__dict__ for lane in lanes]))
    metrics["pathfinding.distance.StripDistanceMaps.field_builds"] = sum(
        lane.planner.distance_maps.field_builds for lane in lanes
    )
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    run.per_layer = metrics
    return run
