"""``service_sharded``: the TCP planning service with two region shards.

The server is ``repro-warehouse serve --workers 2`` on full-scale W-1
(the serve defaults otherwise; ``--port 0`` picks a free port), started
in its own process through :mod:`perfbench.serve`.  One client connection
drives it closed loop with the seeded ``loadgen`` query mix: the next
request is sent when the previous reply arrived, so replies, and the
routes in them, come back in a deterministic order.  The number of
requests is fixed by ``--seconds`` (see :func:`request_count`).  A run
has :data:`~perfbench.common.PASSES` passes, each with its own seeded
requests and a newly started server.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from repro import datasets
from repro.service.loadgen import LoadSpec, ScheduledQuery, make_schedule
from repro.service.protocol import decode_route
from repro.types import Route

from perfbench import tracing
from perfbench.common import MIN_SAMPLES, PASSES, Pass, Run, analyse_trace, pass_seed, planner_counters
from perfbench.speed import all_cpus
from perfbench.tracing import Tracer

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVE_ARGS = ("--workers", "2", "--port", "0")
#: requests per second of ``--seconds``: about the rate of a 2-core x86
#: host, so a run lasts about ``--seconds`` there
REQUESTS_PER_SECOND = 60
#: seconds any single server interaction may take before the run fails
TIMEOUT_S = 60.0


class ServerError(RuntimeError):
    """The server did not start, answer or stop as it should."""


class Server:
    """One server process and a client connection to it."""

    def __init__(self, out_dir: str, trace: bool = False) -> None:
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        env = dict(os.environ, PERFBENCH_OUT=out_dir, PERFBENCH_TRACE="1" if trace else "0")
        self._stderr = open(os.path.join(out_dir, "stderr.txt"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(_ROOT, "perfbench", "serve.py"), *SERVE_ARGS],
            stdout=subprocess.PIPE, stderr=self._stderr, env=env, cwd=_ROOT,
        )
        self.sock: Optional[socket.socket] = None
        try:
            port = self._await_port()
            self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
            self._rfile = self.sock.makefile("rb")
            if self.call({"op": "ping"}).get("pong") is not True:
                raise ServerError("server did not answer ping")
        except BaseException:
            self.kill()
            raise

    def _await_port(self) -> int:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise ServerError(f"server exited during start: {self.stderr_tail()}")
            if line.startswith("serving "):
                return int(line.rsplit(":", 1)[1])
        raise ServerError("server did not report its port in time")

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        assert self.sock is not None
        self.sock.sendall((json.dumps(message) + "\n").encode("utf-8"))
        line = self._rfile.readline()
        if not line:
            raise ServerError(f"server closed the connection: {self.stderr_tail()}")
        return json.loads(line)

    def stop(self) -> Dict[str, Any]:
        """Drain and stop the server; returns what it and its workers reported."""
        reply = self.call({"op": "shutdown"})
        if reply.get("status") != "draining":
            raise ServerError(f"unexpected shutdown reply {reply}")
        self._close_socket()
        try:
            self.proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError("server did not exit after the drain")
        self._stderr.close()
        if self.proc.returncode != 0:
            raise ServerError(f"server exited {self.proc.returncode}: {self.stderr_tail()}")
        report: Dict[str, Any] = {"workers": []}
        for name in sorted(os.listdir(self.out_dir)):
            if name == "server.json" or name.startswith("worker-"):
                with open(os.path.join(self.out_dir, name), encoding="utf-8") as fh:
                    doc = json.load(fh)
                if name == "server.json":
                    report.update(doc)
                else:
                    report["workers"].append(doc)
        return report

    def _close_socket(self) -> None:
        if self.sock is not None:
            self._rfile.close()
            self.sock.close()
            self.sock = None

    def kill(self) -> None:
        self._close_socket()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        # Spawned shard workers are daemons of the server; a killed server
        # leaves them to notice the closed pipe and exit on their own.
        if not self._stderr.closed:
            self._stderr.close()

    def stderr_tail(self) -> str:
        path = os.path.join(self.out_dir, "stderr.txt")
        try:
            with open(path, "rb") as fh:
                return fh.read()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""


def request_count(seconds: float) -> int:
    """One pass's fixed work: all passes together last about ``seconds``."""
    return max(MIN_SAMPLES, round(seconds * REQUESTS_PER_SECOND / PASSES))


def schedule(seed: int, n: int) -> List[ScheduledQuery]:
    """The seeded loadgen mix: one release per simulated second on average."""
    warehouse = datasets.dataset_by_name("W-1", scale=1.0)
    return make_schedule(warehouse, LoadSpec(n_queries=n, seed=seed, day_length=n))


def _message(item: ScheduledQuery) -> Dict[str, Any]:
    query = item.query
    return {
        "op": "plan", "id": item.request_id,
        "origin": list(query.origin), "dest": list(query.destination),
        "release": query.release_time,
    }


class Replies:
    """What one closed-loop client connection got back."""

    def __init__(self) -> None:
        self.routes: List[Route] = []
        self.releases: List[int] = []
        self.queue_ms: List[int] = []

    def send(self, server: Server, item: ScheduledQuery, run: Run, timing: Pass,
             tracer: Optional[Tracer] = None) -> None:
        """One closed-loop request; a step is the request plus reading its reply."""
        message = _message(item)
        started = time.perf_counter()
        if tracer is None:
            reply = server.call(message)
            timing.latencies.append(time.perf_counter() - started)
        else:
            with tracer.span("bench.request", rid=item.request_id):
                reply = server.call(message)
        if run.outcomes.record_reply(reply):
            self.routes.append(decode_route(reply["route"], item.request_id))
            self.releases.append(item.query.release_time)
            self.queue_ms.append(int(reply.get("queue_ms", 0)))
        timing.steps.append(time.perf_counter() - started)
        timing.tick()


def _stats(server: Server) -> Dict[str, Any]:
    reply = server.call({"op": "stats"})
    if reply.get("status") != "ok":
        raise ServerError(f"stats op failed: {reply}")
    return reply["stats"]


def _digest(replies: Replies, run: Run, stats: Dict[str, Any]) -> None:
    for route, release in zip(replies.routes, replies.releases):
        run.digest.add(route.query_id, route.start_time, route.grids)
        run.route_s.append(route.finish_time - release)
    run.makespans.append(float(max(route.finish_time for route in replies.routes)))
    router = stats.get("router", {})
    run.counters.update({f"router.{k}": v for k, v in router.items() if k != "shard_count"})
    run.counters.update(
        {k: v for k, v in planner_counters(stats.get("shards", [])).items() if not k.endswith("ratio")}
    )


def _check(replies: Replies, run: Run, warehouse, stats: Dict[str, Any], report: Dict[str, Any]) -> None:
    run.oracle.check_routes("service", replies.routes, warehouse)
    router = stats.get("router", {})
    run.oracle.require("service shard errors", router.get("shard_errors", 1) == 0,
                       f"router shard_errors={router.get('shard_errors')}")
    spawned = report.get("spawned", 0)
    run.oracle.require("service workers", spawned == 2 and report.get("alive") == spawned,
                       f"{report.get('alive')} of {spawned} workers alive at drain")
    run.oracle.require("service worker reports", len(report["workers"]) == spawned,
                       f"{len(report['workers'])} of {spawned} workers reported on exit")


def _peak_rss_mb(report: Dict[str, Any]) -> float:
    kb = report.get("peak_rss_kb", 0) + sum(w.get("peak_rss_kb", 0) for w in report["workers"])
    return kb / 1024.0


def _run_dir(seed: int, leg: str) -> str:
    return os.path.join(_ROOT, ".perfbench", f"service-{seed}-{os.getpid()}", leg)


def _send_all(server: Server, items: List[ScheduledQuery], run: Run, timing: Pass,
              replies: Replies, tracer: Optional[Tracer] = None) -> float:
    """Send every request closed loop; returns the host seconds taken."""
    started = time.perf_counter()
    for item in items:
        replies.send(server, item, run, timing, tracer)
    return time.perf_counter() - started


def measure(seed: int, seconds: float) -> Run:
    """The untraced run: end-to-end metrics over :data:`PASSES` passes.

    Each pass starts its own server, sends its requests and stops the
    server before the next pass starts.
    """
    run = Run("service_sharded", seed)
    warehouse = datasets.dataset_by_name("W-1", scale=1.0)
    servers: List[Server] = []
    base = os.path.dirname(_run_dir(seed, ""))

    def start(k: int):
        items = schedule(pass_seed(seed, k), request_count(seconds))
        servers.append(Server(_run_dir(seed, f"pass{k}")))
        return items, servers[-1]

    def one_pass(k: int, state, timing: Pass) -> None:
        items, server = state
        replies = Replies()
        _send_all(server, items, run, timing, replies)
        stats = _stats(server)
        report = server.stop()
        run.peak_rss_mb = max(run.peak_rss_mb, _peak_rss_mb(report))
        run.ops += len(timing.steps)
        _digest(replies, run, stats)
        _check(replies, run, warehouse, stats, report)

    try:
        # The server and its workers run on whichever CPU is free, so the
        # host speed is probed on every CPU.
        run.run_passes(start, one_pass, cpus=all_cpus())
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.kill()
        shutil.rmtree(base, ignore_errors=True)
    return run


def trace(seed: int, seconds: float) -> Run:
    """The traced run: requests sent to an untraced server, then to a traced one.

    It sends the smallest request count (``request_count(0)``) whatever
    ``seconds`` is: three processes keep spans in memory, and the run
    must stay well inside its time limit.
    """
    warehouse = datasets.dataset_by_name("W-1", scale=1.0)
    items = schedule(pass_seed(seed, 0), request_count(0))
    base = os.path.dirname(_run_dir(seed, ""))
    plain = Run("service_sharded", seed)
    run = Run("service_sharded", seed)
    tracer = Tracer("client")
    servers: List[Server] = []
    try:
        server = Server(_run_dir(seed, "plain"))
        servers.append(server)
        plain_replies = Replies()
        plain_s = _send_all(server, items, plain, Pass(), plain_replies)
        plain_stats = _stats(server)
        server.stop()
        _digest(plain_replies, plain, plain_stats)

        replies = Replies()
        traced_dir = _run_dir(seed, "traced")
        with tracer.span("bench"):
            with tracer.span("bench.setup"):
                server = Server(traced_dir, trace=True)
                servers.append(server)
            traced_s = _send_all(server, items, run, Pass(), replies, tracer)
        stats = _stats(server)
        report = server.stop()
        spans = tracing.load_spans(traced_dir) + tracer.records()
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.kill()
        shutil.rmtree(base, ignore_errors=True)
    _digest(replies, run, stats)
    _check(replies, run, warehouse, stats, report)
    run.oracle.require(
        "tracing changed routes", run.summary_line() == plain.summary_line(),
        f"{run.summary_line()} traced vs {plain.summary_line()} untraced",
    )
    metrics, problems = analyse_trace(spans)
    for problem in problems:
        run.oracle.require("trace", False, problem)
    metrics.update(planner_counters(stats.get("shards", [])))
    router = stats.get("router", {})
    metrics.update({
        "service.core.queue_ms_mean": statistics.fmean(replies.queue_ms) if replies.queue_ms else 0.0,
        "service.server.dispatch_ms": _dispatch_ms(spans),
        "service.sharding.cross": router.get("cross", 0),
        "service.sharding.retries": router.get("retries", 0),
        "service.sharding.aborts": router.get("aborts", 0),
        "trace.overhead_ratio": traced_s / plain_s - 1.0,
    })
    run.per_layer = metrics
    return run


def _dispatch_ms(spans: List[tracing.Span]) -> float:
    """Mean client latency minus server-side plan time, per request."""
    client = {s.rid: s.end - s.start for s in spans if s.name == "bench.request"}
    planned = {s.rid: s.end - s.start for s in spans if s.name == "service.core.plan_dequeued"}
    gaps = [client[rid] - planned[rid] for rid in client if rid in planned]
    return statistics.fmean(gaps) * 1e3 if gaps else 0.0
