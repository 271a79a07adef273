"""``day_disturbed``: one busy simulated day on full-scale W-1.

The day has all four fault kinds (stalls, blockages, slowdowns, aisle
closures), joint recovery, and a battery with two charging stations
provisioned so that no robot strands.  The planner is a default
:class:`~repro.SRPPlanner`; the engine runs with its defaults apart from
``measure_memory=False`` (the benchmark measures peak RSS itself).  The
day's size is fixed by ``--seconds`` (see :func:`task_count`).  A run
simulates :data:`~perfbench.common.PASSES` days, each on a fresh set-up
with its own seeded tasks and faults.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro import SRPPlanner, TaskTraceSpec, datasets, generate_tasks
from repro.exceptions import PlanningFailedError
from repro.simulation import BatterySpec, FaultPlan, Simulation, SimulationResult, place_stations
from repro.types import Route

from perfbench import layers
from perfbench.common import (
    PASSES, Pass, Run, analyse_trace, pass_seed, peak_rss_mb_self, planner_counters,
)
from perfbench.tracing import Tracer

#: tasks per second of ``--seconds``, over all passes: about the rate of a
#: 2-core x86 host, so a run lasts about ``--seconds`` there
TASKS_PER_SECOND = 32
#: simulated seconds of day per task, so every day is equally busy
DAY_PER_TASK = 2.5
#: a trip after every 1000 units drained keeps both pads busy, and the low
#: threshold stays far above what one task plus a trip to a pad can drain
BATTERY = BatterySpec(capacity=5000, low_threshold=4000, critical_threshold=1200, charge_rate=200)
STATIONS = 2
#: the smallest day a pass simulates
MIN_TASKS = 100


def task_count(seconds: float) -> int:
    """One pass's fixed work: all passes together last about ``seconds``."""
    return max(MIN_TASKS, round(seconds * TASKS_PER_SECOND / PASSES))


class Day:
    """One set-up simulated day, with the planner calls timed from outside."""

    def __init__(self, seed: int, n_tasks: int) -> None:
        self.warehouse = datasets.dataset_by_name("W-1", scale=1.0)
        self.planner = SRPPlanner(self.warehouse)
        day_length = round(n_tasks * DAY_PER_TASK)
        tasks = generate_tasks(
            self.warehouse, TaskTraceSpec(n_tasks=n_tasks, day_length=day_length, seed=seed)
        )
        faults = FaultPlan.generate(
            self.warehouse,
            n_robots=len(self.warehouse.robot_homes),
            day_length=day_length,
            n_stalls=n_tasks // 4,
            n_blockages=n_tasks // 8,
            n_slowdowns=n_tasks // 8,
            n_closures=n_tasks // 16,
            seed=seed + 1,
        )
        self.sim = Simulation(
            self.warehouse, self.planner, tasks,
            measure_memory=False,
            faults=faults,
            recovery="joint",
            battery=BATTERY,
            stations=place_stations(self.warehouse, STATIONS),
        )
        #: query id -> release time of the query that first planned it
        self.releases: Dict[int, int] = {}
        self.result: SimulationResult

    def run(self, run: Run, timing: Pass) -> float:
        """Simulate the day, timing every planner call; returns host seconds.

        The day's steps end where planner calls end: each covers the
        engine's work since the previous call plus the call itself, and
        the host speed is probed between them.
        """
        planner = self.planner
        plan, replan_from = planner.plan, planner.replan_from
        latencies, steps = timing.latencies, timing.steps
        releases = self.releases
        last = [0.0]

        def timed(call, *args, **kwargs):
            started = time.perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                latencies.append(ended - started)
                steps.append(ended - last[0])
                timing.tick()
                last[0] = time.perf_counter()

        def timed_plan(query):
            releases.setdefault(query.query_id, query.release_time)
            return timed(plan, query)

        def timed_replan(*args, **kwargs):
            return timed(replan_from, *args, **kwargs)

        planner.plan, planner.replan_from = timed_plan, timed_replan
        started = last[0] = time.perf_counter()
        try:
            self.result = self.sim.run()
        except PlanningFailedError as exc:
            run.oracle.require("day", False, f"planning error escaped the engine: {exc}")
            raise
        finally:
            ended = time.perf_counter()
            steps.append(ended - last[0])
            del planner.plan, planner.replan_from
        return ended - started

    def routes(self) -> List[Tuple[int, Route]]:
        """Every route handed out, with recovery revisions applied, by query id."""
        return sorted(self.sim._routes.items())


def _digest(day: Day, run: Run) -> None:
    result = day.result
    for query_id, route in day.routes():
        run.digest.add(query_id, route.start_time, route.grids)
        run.route_s.append(route.finish_time - day.releases[query_id])
    run.makespans.append(result.makespan)
    run.counters.update(
        completed=result.completed_tasks,
        failed_tasks=result.failed_tasks,
        replans=result.replans,
        replan_attempts=result.replan_attempts,
        decommitted_segments=result.decommitted_segments,
        recovery_clusters=result.recovery_clusters,
        recovery_cbs=result.recovery_cbs,
        charge_trips=result.charge_trips,
        charge_queue_wait=result.charge_queue_wait,
        fallbacks=day.planner.stats.fallbacks,
    )


def _check(day: Day, run: Run) -> None:
    result = day.result
    routes = [route for _, route in day.routes()]
    run.oracle.check_routes("day", routes, day.warehouse)
    run.oracle.check_planner("day", day.planner, routes, day.sim._last_prune)
    run.oracle.require("day stranded robots", result.stranded_robots == 0,
                       f"{result.stranded_robots} robots stranded")
    run.oracle.require("day recovery", result.recovery_failures == 0,
                       f"{result.recovery_failures} recovery failures")


def _account(day: Day, run: Run) -> None:
    run.outcomes.add(day.result.n_tasks, day.result.failed_tasks)


def measure(seed: int, seconds: float) -> Run:
    """The untraced run: end-to-end metrics over :data:`PASSES` days."""
    run = Run("day_disturbed", seed)
    n_tasks = task_count(seconds)

    def one_pass(k: int, day: Day, timing: Pass) -> None:
        day.run(run, timing)
        _account(day, run)
        run.ops += day.result.completed_tasks
        _digest(day, run)
        _check(day, run)

    run.run_passes(lambda k: Day(pass_seed(seed, k), n_tasks), one_pass)
    run.peak_rss_mb = peak_rss_mb_self()
    return run


def trace(seed: int, seconds: float) -> Run:
    """The traced run: the first pass's day untraced, then the same day traced."""
    plain = Run("day_disturbed", seed)
    n_tasks = task_count(seconds)
    plain_day = Day(pass_seed(seed, 0), n_tasks)
    plain_s = plain_day.run(plain, Pass())
    _digest(plain_day, plain)
    del plain_day
    run = Run("day_disturbed", seed)
    tracer = Tracer()
    tracer.install(layers.PLANNER + layers.SIMULATION)
    try:
        with tracer.span("bench"):
            with tracer.span("bench.setup"):
                day = Day(pass_seed(seed, 0), n_tasks)
            traced_s = day.run(run, Pass())
    finally:
        tracer.uninstall()
    _account(day, run)
    _digest(day, run)
    _check(day, run)
    run.oracle.require(
        "tracing changed routes", run.summary_line() == plain.summary_line(),
        f"{run.summary_line()} traced vs {plain.summary_line()} untraced",
    )
    metrics, problems = analyse_trace(tracer.records())
    for problem in problems:
        run.oracle.require("trace", False, problem)
    result = day.result
    metrics.update(planner_counters([day.planner.stats.__dict__]))
    metrics.update({
        "pathfinding.distance.StripDistanceMaps.field_builds": day.planner.distance_maps.field_builds,
        "simulation.replans": result.replans,
        "simulation.replan_attempts": result.replan_attempts,
        "simulation.recovery_useful_ratio": (
            result.replans / result.replan_attempts if result.replan_attempts else 0.0
        ),
        "simulation.decommitted_segments": result.decommitted_segments,
        "simulation.recovery_clusters": result.recovery_clusters,
        "simulation.recovery_cbs": result.recovery_cbs,
        "simulation.charge_trips": result.charge_trips,
        "simulation.charge_queue_wait": result.charge_queue_wait,
        "trace.overhead_ratio": traced_s / plain_s - 1.0,
    })
    run.per_layer = metrics
    return run
