"""Percentiles, failure accounting and route digests."""

import pytest

from perfbench.stats import Outcomes, RouteDigest, TooFewSamples, min_samples, percentile


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 0.5) == 50
        assert percentile(samples, 0.9) == 90

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        assert percentile(samples, 0.5) == 3.0

    def test_p99_needs_a_thousand_samples(self):
        samples = [float(i) for i in range(1000)]
        assert percentile(samples, 0.99) == 989.0  # ten samples (990..999) lie beyond
        with pytest.raises(TooFewSamples):
            percentile(samples[:999], 0.99)

    def test_refuses_with_fewer_than_ten_beyond(self):
        with pytest.raises(TooFewSamples):
            percentile(list(range(19)), 0.5)
        assert percentile(list(range(20)), 0.5) == 9

    def test_min_samples_matches_refusal_boundary(self):
        for q in (0.5, 0.9, 0.99):
            n = min_samples(q)
            percentile(list(range(n)), q)
            with pytest.raises(TooFewSamples):
                percentile(list(range(n - 1)), q)
        assert min_samples(0.99) == 1000

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_q_outside_open_interval(self, q):
        with pytest.raises(ValueError):
            percentile(list(range(100)), q)


class TestOutcomes:
    def test_every_status_but_ok_fails(self):
        outcomes = Outcomes()
        for status in ("ok", "shed", "timeout", "failed", "degraded", "error", "ok"):
            outcomes.record_reply({"status": status})
        assert outcomes.attempted == 7
        assert outcomes.failed == 5
        assert outcomes.failure_rate == pytest.approx(5 / 7)

    def test_reply_without_status_fails(self):
        outcomes = Outcomes()
        assert outcomes.record_reply({}) is False
        assert outcomes.failed == 1

    def test_bulk_add_and_empty_rate(self):
        outcomes = Outcomes()
        assert outcomes.failure_rate == 0.0
        outcomes.add(400, 3)
        outcomes.record(True)
        assert (outcomes.attempted, outcomes.failed) == (401, 3)


class TestRouteDigest:
    def test_same_routes_same_digest(self):
        a, b = RouteDigest(), RouteDigest()
        for d in (a, b):
            d.add(0, 5, [(0, 0), (0, 1)])
            d.add(1, 7, [(2, 2)])
        assert a.hexdigest() == b.hexdigest()
        assert a.count == 2

    def test_digest_sees_ids_times_cells_and_order(self):
        base = RouteDigest()
        base.add(0, 5, [(0, 0), (0, 1)])
        for args in ((1, 5, [(0, 0), (0, 1)]), (0, 6, [(0, 0), (0, 1)]), (0, 5, [(0, 0), (1, 1)])):
            other = RouteDigest()
            other.add(*args)
            assert other.hexdigest() != base.hexdigest()
        x, y = RouteDigest(), RouteDigest()
        x.add(0, 0, [(0, 0)])
        x.add(1, 0, [(0, 1)])
        y.add(1, 0, [(0, 1)])
        y.add(0, 0, [(0, 0)])
        assert x.hexdigest() != y.hexdigest()
