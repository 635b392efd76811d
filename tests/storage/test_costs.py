"""Unit tests for Table 3's charges and the meter."""

import dataclasses

from repro.costmodel.parameters import PAPER_PARAMETERS
from repro.storage.costs import (
    C_IO,
    C_THETA,
    C_UPDATE,
    COUNTER_FIELDS,
    CostMeter,
)


class TestCharges:
    def test_paper_values(self):
        assert (C_THETA, C_IO, C_UPDATE) == (1.0, 1000.0, 1.0)
        # The model's parameters read the one declaration.
        assert (
            PAPER_PARAMETERS.c_theta, PAPER_PARAMETERS.c_io, PAPER_PARAMETERS.c_update,
        ) == (C_THETA, C_IO, C_UPDATE)


class TestMeter:
    def test_weighted_total(self):
        m = CostMeter()
        m.record_read(3)
        m.record_write(1)
        m.record_filter_eval(10)
        m.record_exact_eval(5)
        m.record_update(7)
        assert m.io_operations == 4
        assert m.predicate_evaluations == 15
        assert m.total() == 4 * 1000.0 + 15 * 1.0 + 7 * 1.0

    def test_buffer_hits_are_free(self):
        m = CostMeter()
        m.record_hit(100)
        assert m.total() == 0.0
        assert m.buffer_hits == 100

    def test_reset_keeps_charges(self):
        m = CostMeter()
        m.record_read()
        m.reset()
        assert m.total() == 0.0
        m.record_read()
        assert m.total() == C_IO

    def test_snapshot_keys(self):
        snap = CostMeter().snapshot()
        assert set(snap) == {
            "page_reads", "page_writes", "buffer_hits",
            "theta_filter_evals", "theta_exact_evals",
            "update_computations", "io_retries", "backoff_steps",
            "log_writes", "checkpoint_pages", "cache_probes", "cache_hits",
            "interval_probes", "interval_sure_hits", "interval_evals_saved",
            "total",
        }

    def test_snapshot_exhaustive_over_declared_fields(self):
        """Adding a counter field must flow into snapshot() for free.

        Pins snapshot keys to the dataclass declaration itself, so a new
        counter that someone forgets to publish shows up as a test
        failure here, not as a silent hole in reports and metrics.
        """
        declared = {f.name for f in dataclasses.fields(CostMeter)}
        assert set(COUNTER_FIELDS) == declared
        assert set(CostMeter().snapshot()) == declared | {"total"}

    def test_durability_ios_charged_but_separate(self):
        m = CostMeter()
        m.record_read(2)
        m.record_log_write(3)
        m.record_checkpoint_page(1)
        # Durability traffic never leaks into the baseline I/O counters...
        assert m.io_operations == 2
        assert m.page_writes == 0
        # ...but is charged at the same C_IO rate in the weighted total.
        assert m.durability_ios == 4
        assert m.total() == (2 + 4) * 1000.0

    def test_cache_counters_free_and_separate(self):
        """Cache probes/hits are observation, never cost.

        They must stay out of the weighted total, out of the baseline
        I/O counters and out of the durability surcharge -- the pinned
        strategy baselines and drift totals depend on it.
        """
        m = CostMeter()
        m.record_read(2)
        m.record_cache_probe(9)
        m.record_cache_hit(5)
        assert m.cache_probes == 9
        assert m.cache_hits == 5
        assert m.io_operations == 2
        assert m.durability_ios == 0
        assert m.total() == CostMeter(page_reads=2).total() == 2 * 1000.0


class TestMergeAndAbsorb:
    def _meter(self, scale):
        m = CostMeter()
        m.record_read(1 * scale)
        m.record_write(2 * scale)
        m.record_hit(3 * scale)
        m.record_filter_eval(4 * scale)
        m.record_exact_eval(5 * scale)
        m.record_update(6 * scale)
        return m

    def test_absorb_adds_every_counter(self):
        m = self._meter(1)
        m.absorb(self._meter(10))
        assert m.page_reads == 11
        assert m.page_writes == 22
        assert m.buffer_hits == 33
        assert m.theta_filter_evals == 44
        assert m.theta_exact_evals == 55
        assert m.update_computations == 66

    def test_merge_sums_workers(self):
        workers = [self._meter(1), self._meter(2), self._meter(3)]
        merged = CostMeter.merge(workers)
        assert merged.page_reads == 6
        assert merged.update_computations == 36
        assert merged.total() == sum(w.total() for w in workers)
        # The inputs are untouched.
        assert workers[0].page_reads == 1

    def test_merge_of_nothing_is_fresh_default(self):
        merged = CostMeter.merge([])
        assert merged.total() == 0.0
