"""A run's passes: set-up timing, pooled metrics and the conversion of
host seconds into reference seconds."""

import pytest

from perfbench import common, speed
from perfbench.common import PASSES, Pass, Run
from perfbench.speed import SpeedTrack

REAL_PROBE_SPEED = speed.probe_speed


@pytest.fixture(autouse=True)
def steady_host(monkeypatch):
    """A host that always runs at reference speed, unless a test says otherwise."""
    speeds = []

    def fake(cpus=None):
        return speeds.pop(0) if speeds else 1.0

    monkeypatch.setattr(speed, "probe_speed", fake)
    monkeypatch.setattr(common, "probe_speed", fake)
    return speeds


def _run_with(step_times):
    """A run whose passes timed the given steps (latency = step here)."""
    run = Run("stream_full", 1)
    built = []

    def build(k):
        built.append(k)
        return k

    def work(k, state, timing):
        assert state == k  # every pass gets its own fresh set-up
        timing.steps.extend(step_times[k])
        timing.latencies.extend(step_times[k])
        run.ops += len(step_times[k])

    run.run_passes(build, work)
    assert built == list(range(PASSES))
    return run


def test_every_pass_builds_and_is_timed():
    run = _run_with([[0.01] * 40] * PASSES)
    assert len(run.setup_s) == PASSES
    assert len(run.passes) == PASSES


def test_end_to_end_pools_the_passes():
    times = [[0.01] * 20, [0.02] * 30] + [[0.03] * 10] * (PASSES - 2)
    run = _run_with(times)
    run.route_s = [1]
    run.makespans = [10.0, 20.0]
    metrics = run.end_to_end()
    total = sum(sum(t) for t in times)
    assert metrics["throughput_per_s"] == pytest.approx(run.ops / total)
    assert metrics["latency_p50_ms"] == pytest.approx(20.0)
    assert metrics["makespan_s"] == pytest.approx(15.0)


def test_pass_seeds_never_collide():
    seen = {common.pass_seed(seed, k) for seed in range(200) for k in range(PASSES)}
    assert len(seen) == 200 * PASSES


def test_passes_pool_enough_samples_for_a_p99():
    assert common.MIN_SAMPLES * PASSES >= common.min_samples(0.99)


def test_steps_between_two_probes_scale_by_their_mean_speed(steady_host):
    steady_host.extend([1.0, 0.5, 0.25])
    timing = Pass(SpeedTrack())
    timing.steps.extend([2.0, 2.0])
    timing.latencies.extend([1.0, 1.0])
    timing.speed.tick(2, 2, force=True)  # probe: 0.5
    timing.steps.append(4.0)
    timing.latencies.append(3.0)
    timing.close()  # probe: 0.25
    steps, latencies = timing.reference()
    assert steps == pytest.approx([1.5, 1.5, 1.5])
    assert latencies == pytest.approx([0.75, 0.75, 1.125])


def test_set_up_time_scales_by_the_probes_around_it(steady_host):
    steady_host.extend([0.5, 0.5])
    run = _run_with([[0.01] * 40] * PASSES)
    assert run.setup_s[0] == pytest.approx(run.setup_host_s[0] * 0.5)
    assert run.setup_s[1] == pytest.approx(run.setup_host_s[1])


def test_probing_every_cpu_restores_the_affinity():
    home = speed.os.sched_getaffinity(0)
    assert REAL_PROBE_SPEED(speed.all_cpus()) > 0
    assert speed.os.sched_getaffinity(0) == home
