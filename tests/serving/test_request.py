"""Request model and Poisson trace generation."""

import pytest

from repro.serving.request import Request, poisson_trace


class TestRequest:
    def test_total_len(self):
        r = Request(req_id=0, arrival_s=0.0, prompt_len=100, output_len=20)
        assert r.total_len == 120

    def test_validation(self):
        with pytest.raises(ValueError):
            Request(req_id=0, arrival_s=-1.0, prompt_len=10, output_len=5)
        with pytest.raises(ValueError):
            Request(req_id=0, arrival_s=0.0, prompt_len=0, output_len=5)
        with pytest.raises(ValueError):
            Request(req_id=0, arrival_s=0.0, prompt_len=10, output_len=0)


class TestPoissonTrace:
    def test_deterministic_for_seed(self):
        a = poisson_trace(32, 4.0, 512, 64, seed=7, prompt_jitter=0.25)
        b = poisson_trace(32, 4.0, 512, 64, seed=7, prompt_jitter=0.25)
        assert a == b

    def test_seeds_differ(self):
        a = poisson_trace(32, 4.0, 512, 64, seed=1)
        b = poisson_trace(32, 4.0, 512, 64, seed=2)
        assert a != b

    def test_arrivals_sorted_and_start_at_zero(self):
        trace = poisson_trace(64, 8.0, 256, 32, seed=0)
        arrivals = [r.arrival_s for r in trace]
        assert arrivals[0] == 0.0
        assert arrivals == sorted(arrivals)

    def test_mean_rate_roughly_matches(self):
        trace = poisson_trace(2000, 10.0, 256, 32, seed=0)
        span = trace[-1].arrival_s
        assert 2000 / span == pytest.approx(10.0, rel=0.15)

    def test_jitter_bounds(self):
        trace = poisson_trace(200, 4.0, 1000, 100, seed=3, prompt_jitter=0.25, output_jitter=0.5)
        assert all(750 <= r.prompt_len <= 1250 for r in trace)
        assert all(50 <= r.output_len <= 150 for r in trace)
        assert len({r.prompt_len for r in trace}) > 1

    def test_no_jitter_keeps_lengths_fixed(self):
        trace = poisson_trace(20, 4.0, 777, 33, seed=0)
        assert {r.prompt_len for r in trace} == {777}
        assert {r.output_len for r in trace} == {33}

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            poisson_trace(0, 4.0, 10, 10)
        with pytest.raises(ValueError):
            poisson_trace(4, 0.0, 10, 10)

    @pytest.mark.parametrize("prompt_len, output_len", [(0, 10), (-3, 10), (10, 0)])
    def test_nonpositive_lengths_rejected(self, prompt_len, output_len):
        # A 0-token prompt used to be clamped to a 1-token one silently.
        with pytest.raises(ValueError, match="must be positive"):
            poisson_trace(4, 4.0, prompt_len, output_len)

    @pytest.mark.parametrize("jitter", [-0.1, 1.0, 1.5])
    @pytest.mark.parametrize("which", ["prompt_jitter", "output_jitter"])
    def test_jitter_outside_unit_interval_rejected(self, which, jitter):
        # Negative jitter used to read as 0; jitter >= 1 drew non-positive
        # lengths that were clamped to 1.
        with pytest.raises(ValueError, match=which):
            poisson_trace(4, 4.0, 10, 10, **{which: jitter})

    def test_jitter_just_below_one_accepted(self):
        trace = poisson_trace(50, 4.0, 100, 100, seed=1, prompt_jitter=0.99, output_jitter=0.99)
        assert all(r.prompt_len >= 1 and r.output_len >= 1 for r in trace)
