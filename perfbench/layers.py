"""Where each measured layer is entered, as tracer patch points.

Span names are the per-layer metric prefixes of ``BENCHMARK.json``.  A
function that callers import by name is patched in the caller's module
(see :mod:`perfbench.tracing`).
"""

from __future__ import annotations

from typing import Any, List, Optional

from perfbench.tracing import Target

_STORE = "repro.core.columnar_store.ColumnarSegmentStore"

#: planner layers; traced in-process for the stream and the day, and in
#: every shard worker for the service
PLANNER: List[Target] = [
    Target("repro.core.planner.SRPPlanner", "plan", "core.planner.plan"),
    Target("repro.core.planner.SRPPlanner", "replan_from", "core.planner.replan_from"),
    Target("repro.core.planner", "plan_route", "core.inter_strip.plan_route"),
    # The intra-strip dispatch: band fast path, plan-cache probes and
    # memoisation; the real search below it is its own span.
    Target("repro.core.inter_strip._Search", "_intra", "core.plan_cache"),
    Target("repro.core.inter_strip", "plan_within_strip", "core.intra_strip.plan_within_strip"),
    *(
        Target(_STORE, attr, "core.columnar_store.scan")
        for attr in ("earliest_conflict", "first_occupied", "clear_entry_time", "band_clear")
    ),
    Target(_STORE, "insert", "core.columnar_store.insert"),
    Target(_STORE, "remove", "core.columnar_store.remove"),
    Target("repro.core.planner", "plan_to_route", "core.conversion.plan_to_route"),
    Target(
        "repro.core.planner", "route_to_strip_artifacts", "core.conversion.route_to_strip_artifacts"
    ),
    Target("repro.core.planner", "fallback_plan", "core.fallback.fallback_plan"),
    Target(
        "repro.pathfinding.distance.StripDistanceMaps", "get", "pathfinding.distance.StripDistanceMaps"
    ),
    Target("repro.core.planner", "build_strip_graph", "core.strips.build_strip_graph"),
]

#: simulation layers of the disturbed day
SIMULATION: List[Target] = [
    Target("repro.simulation.engine.Simulation", "run", "simulation.engine.run"),
    Target("repro.simulation.dispatch.BatteryAwareDispatcher", "assign", "simulation.dispatch.assign"),
    Target("repro.simulation.dispatch.NearestIdleDispatcher", "assign", "simulation.dispatch.assign"),
    Target("repro.simulation.engine", "resolve_joint", "simulation.recovery.resolve_joint"),
    Target("repro.simulation.recovery", "build_clusters", "simulation.recovery.build_clusters"),
    Target("repro.simulation.recovery", "find_conflicts", "analysis.validate.find_conflicts"),
    Target("repro.simulation.engine", "find_conflicts", "analysis.validate.find_conflicts"),
    Target(
        "repro.simulation.charging.ChargingScheduler", "pick", "simulation.charging.ChargingScheduler.pick"
    ),
]


def _request_id(obj: Any) -> Optional[int]:
    return None if obj is None else obj.request_id


def _shard_index(shard: Any) -> int:
    # ProcessShard names its process "srp-shard-<index>".
    return int(shard.process.name.rsplit("-", 1)[1])


#: service layers in the server process
SERVER: List[Target] = [
    Target(
        "repro.service.server", "parse_request_line", "service.protocol.decode",
        rid_of=lambda a, k, r: r.get("id") if r and r.get("op") == "plan" else None,
    ),
    Target(
        "repro.service.server", "encode_reply", "service.protocol.encode",
        rid_of=lambda a, k, r: _request_id(a[0]),
    ),
    Target(
        "repro.service.core.ServiceCore", "submit", "service.core.submit",
        rid_of=lambda a, k, r: _request_id(a[1]),
    ),
    Target(
        "repro.service.core.ServiceCore", "dequeue", "service.core.dequeue",
        rid_of=lambda a, k, r: None if r is None else _request_id(r.request),
    ),
    Target(
        "repro.service.core.ServiceCore", "plan_dequeued", "service.core.plan_dequeued",
        rid_of=lambda a, k, r: _request_id(a[1].request),
    ),
    Target(
        "repro.service.core.ServiceCore", "record_outcome", "service.core.record_outcome",
        rid_of=lambda a, k, r: _request_id(a[1].request),
    ),
    Target("repro.service.sharding.ShardedPlanner", "plan", "service.sharding.route"),
    Target("repro.service.sharding.ShardedPlanner", "_plan_cross", "service.sharding.2pc"),
    Target(
        "repro.service.sharding.ProcessShard", "request", "service.sharding.ipc",
        name_of=lambda a, k: f"service.sharding.ipc.{a[1].get('op')}",
        link_of=lambda a, k: (_shard_index(a[0]), a[1].get("op"), a[1].get("id")),
    ),
    Target("repro.service.sharding", "build_strip_graph", "core.strips.build_strip_graph"),
]

#: service layers in each shard worker process (plus :data:`PLANNER`)
WORKER: List[Target] = [
    Target(
        "repro.service.sharding.ShardWorker", "handle", "service.sharding.worker.handle",
        link_of=lambda a, k: (a[0].shard_id, a[1].get("op"), a[1].get("id")),
    ),
]
