"""What every workload shares: the run record, metric names and trace analysis."""

from __future__ import annotations

import collections
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import tracing
from perfbench.oracle import Oracle
from perfbench.speed import SpeedTrack, probe_speed
from perfbench.stats import Outcomes, RouteDigest, min_samples, percentile

#: how many parts a run's work has, each with its own seeded inputs and a
#: fresh set-up; ``setup_s`` is the median of their set-ups
PASSES = 3
#: latency samples one pass collects, so the passes together have at
#: least 1210 and their p99 has ten samples beyond it
MIN_SAMPLES = -(-(min_samples(0.99) + 200) // PASSES)


def pass_seed(seed: int, k: int) -> int:
    """The integer seed of pass ``k`` of a run with ``seed``; distinct for every pair."""
    return seed * PASSES + k


#: end-to-end metrics and units, measured with tracing off
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "success_rate": "ratio",
    "route_s_mean": "sim_s",
    "makespan_s": "sim_s",
    "peak_rss_mb": "MB",
}

#: traced layers: each reports ``<name>.calls`` and ``<name>.self_s``
SPAN_LAYERS: Tuple[str, ...] = (
    "bench",
    "bench.setup",
    "bench.request",
    "core.planner.plan",
    "core.planner.replan_from",
    "core.inter_strip.plan_route",
    "core.plan_cache",
    "core.intra_strip.plan_within_strip",
    "core.columnar_store.scan",
    "core.columnar_store.insert",
    "core.columnar_store.remove",
    "core.conversion.plan_to_route",
    "core.conversion.route_to_strip_artifacts",
    "core.fallback.fallback_plan",
    "pathfinding.distance.StripDistanceMaps",
    "core.strips.build_strip_graph",
    "simulation.engine.run",
    "simulation.dispatch.assign",
    "simulation.recovery.resolve_joint",
    "simulation.recovery.build_clusters",
    "analysis.validate.find_conflicts",
    "simulation.charging.ChargingScheduler.pick",
    "service.protocol.decode",
    "service.protocol.encode",
    "service.core.submit",
    "service.core.dequeue",
    "service.core.plan_dequeued",
    "service.core.record_outcome",
    "service.sharding.route",
    "service.sharding.2pc",
    "service.sharding.ipc.ping",
    "service.sharding.ipc.plan",
    "service.sharding.ipc.prepare",
    "service.sharding.ipc.commit",
    "service.sharding.ipc.abort",
    "service.sharding.worker.handle",
)

#: work counters read from public stats after the traced leg
COUNTERS: Dict[str, str] = {
    "planner.strips_popped": "count",
    "planner.edges_relaxed": "count",
    "planner.intra_expansions": "count",
    "planner.fallbacks": "count",
    "planner.crossing_hits": "count",
    "planner.crossing_misses": "count",
    "core.plan_cache.hits": "count",
    "core.plan_cache.misses": "count",
    "core.plan_cache.hit_ratio": "ratio",
    "pathfinding.distance.StripDistanceMaps.field_builds": "count",
    "simulation.replans": "count",
    "simulation.replan_attempts": "count",
    "simulation.recovery_useful_ratio": "ratio",
    "simulation.decommitted_segments": "count",
    "simulation.recovery_clusters": "count",
    "simulation.recovery_cbs": "count",
    "simulation.charge_trips": "count",
    "simulation.charge_queue_wait": "sim_s",
    "service.core.queue_ms_mean": "ms",
    "service.server.dispatch_ms": "ms",
    "service.sharding.cross": "count",
    "service.sharding.retries": "count",
    "service.sharding.aborts": "count",
    "trace.root_s": "s",
    "trace.self_sum_s": "s",
    "trace.parallel_s": "s",
    "trace.orphan_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units: Dict[str, str] = {}
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTERS)
    return units


#: the planner counters summed into ``planner.*`` and ``core.plan_cache.*``
_SRP_COUNTERS = {
    "planner.strips_popped": "strips_popped",
    "planner.edges_relaxed": "edges_relaxed",
    "planner.intra_expansions": "intra_expansions",
    "planner.fallbacks": "fallbacks",
    "planner.crossing_hits": "crossing_hits",
    "planner.crossing_misses": "crossing_misses",
    "core.plan_cache.hits": "cache_hits",
    "core.plan_cache.misses": "cache_misses",
}


def planner_counters(stats_dicts: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """``planner.*`` and plan-cache counters summed over planner stats dicts.

    The hit ratio counts negative-cache hits as served, like
    ``SRPStats.cache_hit_rate``.
    """
    out: Dict[str, float] = {
        name: sum(int(s.get(field, 0)) for s in stats_dicts) for name, field in _SRP_COUNTERS.items()
    }
    served = out["core.plan_cache.hits"] + sum(int(s.get("cache_negative_hits", 0)) for s in stats_dicts)
    total = served + out["core.plan_cache.misses"]
    out["core.plan_cache.hit_ratio"] = served / total if total else 0.0
    return out


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pass:
    """Host timings of one pass over a run's work, in the order it was done.

    ``steps`` split the whole timed work (one query, one request, or the
    stretch of a simulated day up to the end of one planner call), and
    ``latencies`` hold the time of every planner call or request.  With a
    :class:`~perfbench.speed.SpeedTrack` the work calls :meth:`tick`
    after every step, so the host speed is probed between steps.
    """

    __slots__ = ("steps", "latencies", "speed")

    def __init__(self, speed: Optional[SpeedTrack] = None) -> None:
        self.steps: List[float] = []
        self.latencies: List[float] = []
        self.speed = speed

    def tick(self) -> None:
        if self.speed is not None:
            self.speed.tick(len(self.steps), len(self.latencies))

    def close(self) -> None:
        if self.speed is not None:
            self.speed.tick(len(self.steps), len(self.latencies), force=True)

    def reference(self) -> Tuple[List[float], List[float]]:
        """Steps and latencies in reference seconds (see :mod:`perfbench.speed`)."""
        assert self.speed is not None, "an untracked pass has no reference time"
        return self.speed.scale(self.steps, 0), self.speed.scale(self.latencies, 1)


class Run:
    """Everything one run measured, checked and counted."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.setup_s: List[float] = []  # reference seconds
        self.setup_host_s: List[float] = []
        self.passes: List[Pass] = []
        self.outcomes = Outcomes()
        self.ops = 0  # queries planned, tasks completed or replies received
        self.route_s: List[int] = []  # finish - release of every route handed out
        self.makespans: List[float] = []  # one per pass
        self.digest = RouteDigest()
        self.oracle = Oracle()
        self.peak_rss_mb = 0.0
        #: deterministic work counters (printed in the fingerprint line)
        self.counters: Dict[str, Any] = collections.Counter()
        self.per_layer: Dict[str, float] = {}

    def run_passes(
        self,
        build: Callable[[int], Any],
        work: Callable[[int, Any, Pass], None],
        cpus: Optional[Sequence[int]] = None,
    ) -> None:
        """Do the run's :data:`PASSES` parts of work, each on a fresh set-up.

        ``build(index)`` is timed into ``setup_s``; ``work(index, state,
        timing)`` does one pass and fills ``timing``.  A pass's state is
        dropped before the next set-up is built.  The host speed is probed
        (on ``cpus``, when given) around each set-up and between the steps
        of the work, and every time is kept in host and in reference seconds.
        """
        for k in range(PASSES):
            before = probe_speed(cpus)
            started = time.perf_counter()
            state = build(k)
            host_s = time.perf_counter() - started
            self.setup_host_s.append(host_s)
            self.setup_s.append(host_s * (before + probe_speed(cpus)) / 2)
            timing = Pass(SpeedTrack(cpus))
            self.passes.append(timing)
            work(k, state, timing)
            timing.close()
            state = None

    def end_to_end(self) -> Dict[str, float]:
        scaled = [p.reference() for p in self.passes]
        steps = [x for pass_steps, _ in scaled for x in pass_steps]
        latencies = [x for _, pass_latencies in scaled for x in pass_latencies]
        return {
            "setup_s": statistics.median(self.setup_s),
            "throughput_per_s": self.ops / sum(steps),
            "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
            "success_rate": 1.0 - self.outcomes.failure_rate,
            "route_s_mean": statistics.fmean(self.route_s),
            "makespan_s": statistics.fmean(self.makespans),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def timing_line(self) -> str:
        """Host times, probe speeds and tail latency, printed but not gated.

        The p99 is taken over the reference-second samples of all passes.
        It moved 26-40% between seeds on a 2-core host, beyond any bound
        the benchmark may set, so it is reported here instead.
        """
        speeds = [s for p in self.passes for _, _, s in p.speed.probes]
        latencies = [x for p in self.passes for x in p.reference()[1]]
        line = (
            f"host setup_s={[round(s, 4) for s in self.setup_host_s]} "
            f"pass_s={[round(sum(p.steps), 3) for p in self.passes]} "
            f"speed min={min(speeds):.3f} median={statistics.median(speeds):.3f} "
            f"max={max(speeds):.3f} probes={len(speeds)}; "
            f"reference setup_s={[round(s, 4) for s in self.setup_s]} "
            f"pass_s={[round(sum(p.reference()[0]), 3) for p in self.passes]} "
            f"latency samples={len(latencies)}"
        )
        if len(latencies) >= min_samples(0.99):
            line += f" p99_ms={percentile(latencies, 0.99) * 1e3!r}"
        return line

    def summary_line(self) -> str:
        """The run's deterministic fingerprint: same seed, same line."""
        counters = " ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        mean = statistics.fmean(self.route_s) if self.route_s else 0.0
        makespan = statistics.fmean(self.makespans) if self.makespans else 0.0
        return (
            f"{self.workload} seed={self.seed} digest={self.digest.hexdigest()} "
            f"routes={self.digest.count} route_s_mean={mean!r} makespan_s={makespan!r} "
            f"{counters}"
        )


def analyse_trace(
    spans: Sequence[tracing.Span], root_name: str = "bench"
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer calls and self time of the tree under the root span.

    Returns the metrics (``<layer>.calls``/``.self_s``, ``trace.root_s``,
    ``trace.self_sum_s``, ``trace.parallel_s``, ``trace.orphan_s``) and the
    arithmetic violations.  The self times, less the time in which
    processes ran children of one span side by side (``trace.parallel_s``),
    must sum to the root's duration within 1%; this fails when child spans
    of one process overlap each other or stick out of their parents.
    Spans that ran during the root but joined no tree (``trace.orphan_s``,
    their time inside the root's interval) must stay under 1% of it too,
    so no layer's time is silently dropped.  Spans wholly outside the
    root, such as the server answering the final ``stats`` request, are
    not part of the measured work.
    """
    children = tracing.build_tree(spans)
    roots = [s for s in spans if s.name == root_name and s.parent is None]
    problems: List[str] = []
    if len(roots) != 1:
        return {}, [f"expected one {root_name!r} root span, found {len(roots)}"]
    root = roots[0]
    tree = tracing.subtree(root, children)
    selfs = tracing.self_times(tree, children)
    totals = tracing.layer_totals(tree, selfs)
    metrics: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    unknown = sorted(set(totals) - set(SPAN_LAYERS))
    if unknown:
        problems.append(f"spans of unknown layers: {unknown}")
    root_s = root.end - root.start
    self_sum = sum(selfs.values())
    parallel_s = tracing.parallel_time(tree, children)
    orphan_s = sum(
        max(0.0, min(s.end, root.end) - max(s.start, root.start))
        for s in children.get(None, ())
        if s is not root
    )
    metrics["trace.root_s"] = root_s
    metrics["trace.self_sum_s"] = self_sum
    metrics["trace.parallel_s"] = parallel_s
    metrics["trace.orphan_s"] = orphan_s
    if abs(self_sum - parallel_s - root_s) > 0.01 * root_s:
        problems.append(
            f"self times less parallel time sum to {self_sum - parallel_s:.6f} s, "
            f"root span is {root_s:.6f} s"
        )
    if orphan_s > 0.01 * root_s:
        problems.append(f"{orphan_s:.6f} s of spans during the root joined no tree")
    return metrics, problems
