"""FaultPlan: deterministic schedules, burst caps, audit bookkeeping."""

import pytest

from repro.faults import FaultPlan


class TestDeterminism:
    def test_same_seed_same_fault_sequence(self):
        def run(seed):
            plan = FaultPlan(seed, read_rate=0.3, write_rate=0.2, torn_rate=0.1)
            decisions = []
            for pid in range(50):
                decisions.append(plan.draw_read_fault(pid) is not None)
                decisions.append(plan.draw_write_fault(pid) is not None)
            return decisions

        assert run(7) == run(7)

    def test_different_seeds_differ(self):
        def run(seed):
            plan = FaultPlan(seed, read_rate=0.5)
            return [plan.draw_read_fault(p) is not None for p in range(100)]

        assert run(1) != run(2)

    def test_zero_rates_inject_nothing(self):
        plan = FaultPlan(seed=3)
        for pid in range(100):
            assert plan.draw_read_fault(pid) is None
            assert plan.draw_write_fault(pid) is None
        assert plan.injected == 0


class TestBurstCap:
    def test_consecutive_failures_bounded(self):
        plan = FaultPlan(seed=0, read_rate=1.0, max_burst=3)
        outcomes = [plan.draw_read_fault(5) is not None for _ in range(10)]
        # Even at rate 1.0 the plan must let the 4th attempt through.
        assert outcomes[:3] == [True, True, True]
        assert outcomes[3:] == [False] * 7

    def test_burst_counter_resets_on_success(self):
        plan = FaultPlan(seed=0, read_rate=1.0, max_burst=2)
        assert plan.draw_read_fault(1) is not None
        assert plan.draw_read_fault(1) is not None
        assert plan.draw_read_fault(1) is None  # forced success
        plan.note_success("read", 1)
        # A new burst may begin after the success.
        assert plan.draw_read_fault(1) is not None


class TestOutages:
    def test_read_outage_fails_exactly_n_times(self):
        plan = FaultPlan(seed=0, read_outages={4: 3})
        hits = [plan.draw_read_fault(4) is not None for _ in range(5)]
        assert hits == [True, True, True, False, False]
        # Other pages are unaffected.
        assert plan.draw_read_fault(5) is None


class TestAudit:
    def test_consumed_marks_pending_events(self):
        plan = FaultPlan(seed=0, read_outages={2: 2})
        assert plan.draw_read_fault(2) is not None
        assert plan.draw_read_fault(2) is not None
        assert plan.summary() == {"injected": 2, "consumed": 0, "outstanding": 2}
        plan.note_success("read", 2)
        assert plan.summary() == {"injected": 2, "consumed": 2, "outstanding": 0}

    def test_lost_page_logged_once(self):
        plan = FaultPlan(seed=0, lost_pages={9})
        assert plan.is_lost(9)
        assert plan.is_lost(9)
        assert plan.injected == 1
        assert plan.outstanding == 1  # permanent losses are never consumed

    def test_disabled_plan_injects_nothing(self):
        plan = FaultPlan(seed=0, read_rate=1.0, lost_pages={1})
        plan.enabled = False
        assert plan.draw_read_fault(1) is None
        assert not plan.is_lost(1)

    def test_describe_events(self):
        plan = FaultPlan(seed=0, read_outages={3: 1})
        plan.draw_read_fault(3)
        (desc,) = plan.describe_events()
        assert "transient-read" in desc and "page 3" in desc


class TestValidation:
    @pytest.mark.parametrize("kw", [
        {"read_rate": -0.1}, {"write_rate": 1.5}, {"torn_rate": 2.0},
        {"max_burst": 0},
    ])
    def test_bad_parameters_rejected(self, kw):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, **kw)
