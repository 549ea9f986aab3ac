"""The oracles in :mod:`repro.verify` reject what they exist to catch.

The serving tests show each oracle passing on working code; these cases
feed it hand-built reports and decode maps that break one rule each.
"""

from types import SimpleNamespace

import numpy as np

from repro.verify import EXECUTE_FIELDS, decoded_bit_exact, schedule_match


def _report(executed_tokens, total=40, sim_time_s=1.0, **counters):
    fields = dict.fromkeys(EXECUTE_FIELDS, 3)
    fields.update(total_generated_tokens=total, **counters)
    return SimpleNamespace(executed_tokens=executed_tokens, sim_time_s=sim_time_s, **fields)


class TestScheduleMatch:
    def test_analytical_vs_executed_matches(self):
        assert schedule_match(_report(None), _report(40), EXECUTE_FIELDS)

    def test_second_report_must_have_executed(self):
        verdict = schedule_match(_report(None), _report(None), EXECUTE_FIELDS)
        assert not verdict and "ran None of 40" in verdict.why

    def test_executed_tokens_must_cover_generated(self):
        assert not schedule_match(_report(None), _report(39), EXECUTE_FIELDS)
        assert not schedule_match(_report(39), _report(40), EXECUTE_FIELDS)

    def test_counter_mismatch_is_named(self):
        verdict = schedule_match(_report(None), _report(40, decode_steps=4), EXECUTE_FIELDS)
        assert not verdict and verdict.why == "decode_steps: 3 vs 4"

    def test_time_tolerance(self):
        a, b = _report(None, sim_time_s=1.0), _report(40, sim_time_s=1.0 + 1e-7)
        assert schedule_match(a, b, EXECUTE_FIELDS, time_tol=1e-6)
        assert not schedule_match(a, b, EXECUTE_FIELDS, time_tol=1e-8)


def _steps(*values):
    return [np.full(4, v, dtype=np.float32) for v in values]


class TestDecodedBitExact:
    def test_equal_maps_match(self):
        assert decoded_bit_exact({0: _steps(1, 2)}, {0: _steps(1, 2)})

    def test_one_bit_differs(self):
        other = _steps(1, 2)
        other[1][0] = np.nextafter(np.float32(2), np.float32(3))
        verdict = decoded_bit_exact({0: _steps(1, 2)}, {0: other})
        assert not verdict and verdict.why == "request 0: decode step 1 differs"

    def test_lengths_and_request_sets_must_agree(self):
        assert not decoded_bit_exact({0: _steps(1)}, {0: _steps(1, 2)})
        assert not decoded_bit_exact({0: _steps(1)}, {0: _steps(1), 1: _steps(1)})

    def test_chaos_prefix_rule(self):
        free = {0: _steps(1, 2, 3), 1: _steps(4, 5)}
        # Request 0 stopped early (shed or timed out): a prefix is enough.
        assert decoded_bit_exact({0: _steps(1, 2), 1: _steps(4, 5)}, free, finished={1})
        # A finished request must match in full.
        assert not decoded_bit_exact({0: _steps(1, 2)}, free, finished={0})
        # A stream longer than the reference is never a prefix.
        assert not decoded_bit_exact({1: _steps(4, 5, 6)}, free, finished=set())

    def test_chaos_stream_needs_a_reference(self):
        verdict = decoded_bit_exact({2: []}, {0: _steps(1)}, finished=set())
        assert not verdict and verdict.why == "request 2: no reference stream"
