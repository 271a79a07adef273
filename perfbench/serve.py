"""Run ``repro-warehouse serve`` for the benchmark, reporting what it used.

Usage (from the repository root)::

    PERFBENCH_OUT=<dir> [PERFBENCH_TRACE=1] python3 perfbench/serve.py <serve args>

The arguments are those of ``repro-warehouse serve``.  On exit the server
writes ``server.json`` to ``PERFBENCH_OUT`` (its peak RSS, the shard
count and how many shard workers were alive when the drain closed them),
and each shard worker writes ``worker-<shard>.json`` (its peak RSS).

With ``PERFBENCH_TRACE=1`` the span wrappers of :mod:`perfbench.layers`
are installed before the server starts.  Shard workers are spawned, so
they import this file again (as ``__mp_main__``) and install the worker
and planner wrappers themselves; each writes its spans when it exits.
"""

from __future__ import annotations

import json
import os
import resource
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import layers  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from repro.service import sharding  # noqa: E402

OUT = os.environ.get("PERFBENCH_OUT", "")
TRACE = os.environ.get("PERFBENCH_TRACE") == "1"
IS_SERVER = __name__ == "__main__"

TRACER = Tracer("server" if IS_SERVER else "worker")
if TRACE:
    TRACER.install(layers.SERVER + layers.PLANNER if IS_SERVER else layers.WORKER + layers.PLANNER)


def _peak_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _write(name: str, doc: dict) -> None:
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


_worker_main = sharding._shard_worker_main


def _reporting_worker_main(conn, warehouse, shard_id, k, planner_kwargs) -> None:
    """The shard worker's entry point, reporting its RSS and spans at exit."""
    try:
        _worker_main(conn, warehouse, shard_id, k, planner_kwargs)
    finally:
        TRACER.role = f"shard{shard_id}"
        if TRACE:
            TRACER.dump(OUT)
        _write(f"worker-{shard_id}.json", {"peak_rss_kb": _peak_rss_kb()})


sharding._shard_worker_main = _reporting_worker_main

_close = sharding.ShardedPlanner.close
_at_drain: dict = {}


def _close_recording_liveness(self, timeout: float = 10.0) -> None:
    """Record live workers as the drain reaches them, then close them."""
    if not _at_drain:
        _at_drain.update(spawned=self.shard_count, alive=self.workers_alive())
    _close(self, timeout)


sharding.ShardedPlanner.close = _close_recording_liveness


def main(argv: list) -> int:
    from repro.cli import main as cli_main

    code = cli_main(["serve", *argv])
    if TRACE:
        TRACER.dump(OUT)
    _write("server.json", {"peak_rss_kb": _peak_rss_kb(), **_at_drain})
    return code


if IS_SERVER:
    if not OUT:
        sys.exit("PERFBENCH_OUT must name the output directory")
    sys.exit(main(sys.argv[1:]))
