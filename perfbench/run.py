#!/usr/bin/env python3
"""Benchmark of the SRP planner, the disturbed simulated day and the sharded service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream_full --seed 1 --seconds 20 --trace 0

Workloads:

* ``stream_full`` -- the paper's online query stream on W-1, W-2 and W-3
  at full scale, planned closed loop (:mod:`perfbench.stream`);
* ``day_disturbed`` -- one busy simulated day on full-scale W-1 with
  faults, joint recovery and charging (:mod:`perfbench.day`);
* ``service_sharded`` -- ``repro-warehouse serve --workers 2`` driven
  closed loop over one connection (:mod:`perfbench.service`).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` a traced run reports the
per-layer metrics instead.  The line before it is the run's deterministic
fingerprint: the route digest, ``route_s_mean``, ``makespan_s`` and the
work counters, identical for every run with the same seed.  Every route
handed out is checked by the route oracle outside the timed window; the
exit code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("stream_full", "day_disturbed", "service_sharded")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the run's fixed work to last about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds through the workloads' finally blocks, which stop
    # any server process a run started.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    src = os.path.join(_ROOT, "src")
    for path in (_ROOT, src):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the repro package from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"repro was imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2

    from perfbench import day, service, stream
    from perfbench.common import END_TO_END, per_layer_units

    module = {"stream_full": stream, "day_disturbed": day, "service_sharded": service}[
        args.workload
    ]
    if args.trace:
        run = module.trace(args.seed, args.seconds)
        values, units = run.per_layer, per_layer_units()
    else:
        run = module.measure(args.seed, args.seconds)
        values, units = run.end_to_end(), END_TO_END
    for violation in run.oracle.violations:
        print(f"VIOLATION {violation}", file=sys.stderr)
    if not args.trace:
        print(run.timing_line())
    print(f"routes checked={run.oracle.routes_checked}")
    print(run.summary_line())
    result = {
        "correct": run.oracle.ok,
        "attempted": run.outcomes.attempted,
        "failed": run.outcomes.failed,
        # A layer a workload does not run reports zero in its traced run.
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if run.oracle.ok else 1


if __name__ == "__main__":
    sys.exit(main())
