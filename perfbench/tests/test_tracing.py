"""Span recording and the self-time arithmetic."""

import sys
import time
import types

import pytest

from perfbench import tracing
from perfbench.common import analyse_trace
from perfbench.tracing import Span, Target, Tracer


def span(pid, n, name, start, end, parent=None, rid=None, link=None):
    return Span((pid, n), name, start, end, None if parent is None else (pid, parent), rid, link)


def selfs_by_name(spans):
    children = tracing.build_tree(spans)
    selfs = tracing.self_times(spans, children)
    return {s.name: selfs[s.id] for s in spans}


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span(1, 1, "bench", 0.0, 10.0),
            span(1, 2, "a", 1.0, 6.0, parent=1),
            span(1, 3, "b", 2.0, 3.0, parent=2),
            span(1, 4, "c", 4.0, 5.5, parent=2),
            span(1, 5, "d", 7.0, 9.0, parent=1),
        ]
        got = selfs_by_name(spans)
        assert got == pytest.approx({"bench": 3.0, "a": 2.5, "b": 1.0, "c": 1.5, "d": 2.0})
        assert sum(got.values()) == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        spans = [
            span(1, 1, "p", 0.0, 10.0),
            span(1, 2, "x", 1.0, 5.0, parent=1),
            span(1, 3, "y", 3.0, 7.0, parent=1),
        ]
        assert selfs_by_name(spans)["p"] == pytest.approx(4.0)

    def test_child_outside_parent_is_clipped(self):
        assert tracing.covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == pytest.approx(2.0)

    def test_request_and_cross_process_links(self):
        client, server, worker = 1, 2, 3
        spans = [
            span(client, 1, "bench", 0.0, 10.0),
            span(client, 2, "bench.request", 1.0, 9.0, parent=1, rid=7),
            # server thread: top-level spans carrying the request id
            span(server, 1, "service.protocol.decode", 1.5, 2.0, rid=7),
            span(server, 2, "service.core.plan_dequeued", 2.5, 8.0, rid=7),
            span(server, 3, "service.sharding.ipc.plan", 3.0, 7.0, parent=2, rid=7,
                 link=(0, "plan", 7, 0)),
            # an idle poll with no request stays a root of its own
            span(server, 4, "service.core.dequeue", 9.5, 9.6),
            # worker: the handler that served the IPC call
            span(worker, 1, "service.sharding.worker.handle", 3.5, 6.5, link=(0, "plan", 7, 0)),
        ]
        children = tracing.build_tree(spans)
        selfs = tracing.self_times(spans, children)
        named = {s.name: selfs[s.id] for s in spans}
        assert named["bench.request"] == pytest.approx(8.0 - 0.5 - 5.5)
        assert named["service.sharding.ipc.plan"] == pytest.approx(1.0)
        root = [s for s in spans if s.name == "bench"][0]
        tree = tracing.subtree(root, children)
        assert "service.core.dequeue" not in {s.name for s in tree}
        assert sum(selfs[s.id] for s in tree) == pytest.approx(10.0)

    def test_analyse_trace_flags_a_child_outside_its_parent(self):
        good = [span(1, 1, "bench", 0.0, 10.0), span(1, 2, "core.planner.plan", 1.0, 2.0, parent=1)]
        metrics, problems = analyse_trace(good)
        assert problems == []
        assert metrics["core.planner.plan.self_s"] == pytest.approx(1.0)
        assert metrics["bench.self_s"] == pytest.approx(9.0)
        assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.root_s"])
        bad = good + [span(1, 3, "core.planner.replan_from", 5.0, 20.0, parent=1)]
        _, problems = analyse_trace(bad)
        assert any("self times less parallel time" in p for p in problems)

    def test_start_up_spans_join_the_set_up_and_count_their_parallel_time(self):
        client, worker_a, worker_b = 1, 2, 3
        spans = [
            span(client, 1, "bench", 0.0, 10.0),
            span(client, 2, "bench.setup", 0.0, 4.0, parent=1),
            # two shard workers build their planners side by side
            span(worker_a, 1, "core.strips.build_strip_graph", 1.0, 3.0),
            span(worker_b, 1, "core.strips.build_strip_graph", 2.0, 3.5),
            # after the root: the server answering the final stats request
            span(worker_a, 2, "service.protocol.decode", 11.0, 11.5),
        ]
        metrics, problems = analyse_trace(spans)
        assert problems == []
        assert metrics["core.strips.build_strip_graph.calls"] == 2
        assert metrics["core.strips.build_strip_graph.self_s"] == pytest.approx(3.5)
        assert metrics["bench.setup.self_s"] == pytest.approx(1.5)
        assert metrics["trace.parallel_s"] == pytest.approx(1.0)
        assert metrics["trace.self_sum_s"] - metrics["trace.parallel_s"] == pytest.approx(10.0)
        assert metrics["trace.orphan_s"] == 0.0

    def test_analyse_trace_flags_spans_that_joined_no_tree(self):
        spans = [
            span(1, 1, "bench", 0.0, 10.0),
            span(1, 2, "bench.setup", 0.0, 1.0, parent=1),
            span(2, 1, "service.protocol.decode", 5.0, 6.0),
        ]
        metrics, problems = analyse_trace(spans)
        assert metrics["trace.orphan_s"] == pytest.approx(1.0)
        assert any("joined no tree" in p for p in problems)

    def test_analyse_trace_needs_one_root(self):
        _, problems = analyse_trace([span(1, 1, "core.planner.plan", 0.0, 1.0)])
        assert problems


@pytest.fixture
def toy_module():
    module = types.ModuleType("perfbench_toy")

    def inner(x):
        time.sleep(0.002)
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    class Thing:
        def method(self, x):
            return outer(x)

    module.inner, module.outer, module.Thing = inner, outer, Thing
    sys.modules["perfbench_toy"] = module
    yield module
    del sys.modules["perfbench_toy"]


class TestTracer:
    def test_install_records_nested_spans_and_uninstall_restores(self, toy_module):
        original, original_method = toy_module.inner, toy_module.Thing.method
        tracer = Tracer()
        tracer.install([
            Target("perfbench_toy", "inner", "toy.inner"),
            Target("perfbench_toy.Thing", "method", "toy.method"),
        ])
        with tracer.span("bench"):
            assert toy_module.Thing().method(1) == 4
        tracer.uninstall()
        assert toy_module.inner is original
        assert toy_module.Thing.method is original_method
        names = sorted(s.name for s in tracer.records())
        assert names == ["bench", "toy.inner", "toy.method"]
        spans = tracer.records()
        selfs = selfs_by_name(spans)
        root = next(s for s in spans if s.name == "bench")
        assert sum(selfs.values()) == pytest.approx(root.end - root.start)
        assert selfs["toy.inner"] >= 0.002

    def test_same_name_reentry_counts_once(self, toy_module):
        tracer = Tracer()
        tracer.install([
            Target("perfbench_toy", "outer", "toy.layer"),
            Target("perfbench_toy", "inner", "toy.layer"),
        ])
        try:
            toy_module.outer(1)
        finally:
            tracer.uninstall()
        assert [s.name for s in tracer.records()] == ["toy.layer"]

    def test_span_closes_on_exception_and_keeps_rid(self, toy_module):
        tracer = Tracer()
        tracer.install([
            Target("perfbench_toy", "inner", "toy.inner", rid_of=lambda a, k, r: 42),
        ])
        try:
            with pytest.raises(TypeError):
                toy_module.inner("not a number")
        finally:
            tracer.uninstall()
        (rec,) = tracer.records()
        assert rec.rid == 42 and rec.end >= rec.start
        assert tracer._stack() == []

    def test_dump_and_load_round_trip(self, tmp_path):
        tracer = Tracer("role-x")
        with tracer.span("bench", rid=3):
            with tracer.span("child"):
                pass
        tracer.dump(str(tmp_path))
        loaded = {s.name: s for s in tracing.load_spans(str(tmp_path))}
        assert loaded["bench"].role == "role-x" and loaded["bench"].rid == 3
        assert loaded["child"].parent == loaded["bench"].id and loaded["child"].rid == 3
