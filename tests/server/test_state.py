"""StateManager unit tests: pins, the write seqlock, read retries."""

import pytest

from repro.errors import RelationError, SessionError, SnapshotConflict
from repro.geometry.rect import Rect
from repro.server import StateManager

from tests.server.conftest import build_relation


def manager_with(name="r", count=10):
    rel, rows = build_relation(name, count, seed=3)
    state = StateManager()
    state.register(rel)
    return state, rel, rows


class TestRegistry:
    def test_register_and_get(self):
        state, rel, _ = manager_with()
        assert state.get("r") is rel
        assert state.names() == ["r"]

    def test_duplicate_name_rejected(self):
        state, rel, _ = manager_with()
        other, _ = build_relation("r", 2, seed=9)
        with pytest.raises(SessionError):
            state.register(other)

    def test_unknown_relation(self):
        state, _, _ = manager_with()
        with pytest.raises(SessionError):
            state.get("nope")


class TestWrites:
    def test_write_advances_epoch_by_two(self):
        # Pre-bump + the mutation's own bump: any reader overlapping the
        # write sees movement no matter where it sampled.
        state, rel, _ = manager_with()
        before = rel.modification_count
        _, epoch = state.write(
            "r", lambda r: r.insert([99, Rect(1, 1, 2, 2)])
        )
        assert epoch == before + 2
        assert rel.modification_count == epoch

    def test_write_returns_fn_result(self):
        state, rel, _ = manager_with()
        t, _ = state.write("r", lambda r: r.insert([77, Rect(0, 0, 1, 1)]))
        assert t["oid"] == 77

    def test_on_commit_sees_committed_epoch_in_order(self):
        state, rel, _ = manager_with()
        log = []
        for oid in (100, 101, 102):
            state.write(
                "r", lambda r, o=oid: r.insert([o, Rect(0, 0, 1, 1)]),
                on_commit=lambda e, o=oid: log.append((e, o)),
            )
        epochs = [e for e, _ in log]
        assert epochs == sorted(epochs)
        assert [o for _, o in log] == [100, 101, 102]

    def test_failed_mutation_still_publishes_stable_epoch(self):
        state, rel, _ = manager_with()

        def boom(r):
            r.insert([55, Rect(0, 0, 1, 1)])
            raise RuntimeError("post-mutation failure")

        with pytest.raises(RuntimeError):
            state.write("r", boom)
        # A reader after the failed write must not livelock on a pin
        # that is never fresh.
        pin = state.pin((rel,))
        assert pin.fresh()


class TestPins:
    def test_clean_pin_does_not_move(self):
        state, rel, _ = manager_with()
        pin = state.pin((rel,))
        assert pin.fresh()
        assert pin.epoch_of(rel) == rel.modification_count

    def test_pin_moves_after_write(self):
        state, rel, _ = manager_with()
        pin = state.pin((rel,))
        state.write("r", lambda r: r.insert([50, Rect(2, 2, 3, 3)]))
        assert not pin.fresh()

    def test_mid_write_pin_is_dirty(self):
        # Simulate the window between pre-bump and publish: the live
        # counter differs from the stable epoch, so a pin taken now is
        # invalid from birth -- and stays so once the write publishes.
        state, rel, _ = manager_with()
        rel.bump_epoch()
        pin = state.pin((rel,))
        assert not pin.fresh()
        rel.bump_epoch()
        assert not pin.fresh()

    def test_epoch_of_unknown_relation(self):
        state, rel, _ = manager_with()
        other, _ = build_relation("other", 2, seed=4)
        pin = state.pin((rel,))
        with pytest.raises(RelationError):
            pin.epoch_of(other)


class TestReads:
    def test_clean_read_returns_result_and_pin(self):
        state, rel, rows = manager_with()
        result, pin = state.read(
            ("r",), lambda pin: sum(1 for _ in rel.scan())
        )
        assert result == len(rows)
        assert pin.epoch_of(rel) == rel.modification_count

    def test_read_retries_when_writer_interleaves(self):
        state, rel, _ = manager_with()
        conflicts = []
        calls = []

        def racy(pin):
            calls.append(1)
            if len(calls) == 1:
                # A "concurrent" writer lands mid-execution.
                state.write("r", lambda r: r.insert([60, Rect(5, 5, 6, 6)]))
            return [t["oid"] for t in rel.scan()]

        result, pin = state.read(
            ("r",), racy, on_conflict=lambda a: conflicts.append(a)
        )
        assert len(calls) == 2
        assert conflicts == [1]
        assert 60 in result
        assert pin.fresh()

    def test_exhausted_retries_surface_snapshot_conflict(self):
        state, rel, _ = manager_with()
        oids = iter(range(200, 300))

        def always_racy(pin):
            state.write(
                "r", lambda r: r.insert([next(oids), Rect(4, 4, 5, 5)])
            )
            return "torn"

        with pytest.raises(SnapshotConflict) as exc_info:
            state.read(("r",), always_racy, retries=2)
        assert exc_info.value.attempts == 3

    def test_exception_under_valid_pin_propagates(self):
        state, rel, _ = manager_with()

        def broken(pin):
            raise ValueError("the query's own bug")

        with pytest.raises(ValueError):
            state.read(("r",), broken)

    def test_exception_under_moved_pin_is_retried(self):
        state, rel, _ = manager_with()
        calls = []

        def torn_then_fine(pin):
            calls.append(1)
            if len(calls) == 1:
                state.write("r", lambda r: r.insert([70, Rect(6, 6, 7, 7)]))
                raise RuntimeError("traversal broke on torn state")
            return "ok"

        result, _ = state.read(("r",), torn_then_fine)
        assert result == "ok"
        assert len(calls) == 2
