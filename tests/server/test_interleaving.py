"""Property test: the epoch pin/bump/retry protocol under any interleave.

The seqlock protocol decomposes into atomic steps -- writer: pre-bump,
mutate (+bump), publish stable; reader: pin, observe, validate -- and
Hypothesis drives *every* interleaving of those steps over a register
relation.  The invariant is snapshot isolation in miniature: whenever a
reader's validation succeeds, the value it observed is exactly the
committed value at its pinned epoch.  A pin that is not fresh -- taken
mid-write, or moved since -- must retry; a reader can always finish
once writers drain.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import StateManager


class RegisterRelation:
    """Minimal duck-typed relation: one value plus the epoch counter."""

    def __init__(self, name: str = "reg") -> None:
        self.name = name
        self.value = 0
        self._mod = 0

    @property
    def modification_count(self) -> int:
        return self._mod

    def bump_epoch(self, count: int = 1) -> int:
        self._mod += count
        return self._mod


class WriterSim:
    """One write split into the protocol's three atomic steps."""

    def __init__(self, state: StateManager, rel: RegisterRelation,
                 value: int, committed: dict[int, int]) -> None:
        self.state = state
        self.rel = rel
        self.value = value
        self.committed = committed
        self.step = 0

    @property
    def done(self) -> bool:
        return self.step >= 3

    def advance(self) -> None:
        if self.step == 0:
            self.rel.bump_epoch()  # pre-bump: live != stable from here on
        elif self.step == 1:
            self.rel.value = self.value
            self.rel.bump_epoch()  # the mutation's own bump
        elif self.step == 2:
            # Publish: what StateManager.write does after fn returns.
            self.state._stable[self.rel.name] = self.rel.modification_count
            self.committed[self.rel.modification_count] = self.rel.value
        self.step += 1


class ReaderSim:
    """One read as pin -> observe -> validate, retrying on invalidation."""

    def __init__(self, state: StateManager, rel: RegisterRelation) -> None:
        self.state = state
        self.rel = rel
        self.step = 0
        self.pin = None
        self.observed = None
        self.result: tuple[int, int] | None = None
        self.retries = 0

    @property
    def done(self) -> bool:
        return self.result is not None

    def advance(self) -> None:
        if self.step == 0:
            self.pin = self.state.pin((self.rel,))
            self.step = 1 if self.pin.fresh() else 0
            if not self.pin.fresh():
                self.retries += 1
        elif self.step == 1:
            self.observed = self.rel.value
            self.step = 2
        else:
            if not self.pin.fresh():
                self.retries += 1
                self.step = 0
            else:
                self.result = (self.pin.epoch_of(self.rel), self.observed)


@settings(max_examples=200, deadline=None)
@given(
    writes=st.lists(st.integers(min_value=1, max_value=100),
                    min_size=0, max_size=4),
    schedule=st.lists(st.booleans(), max_size=40),
)
def test_reader_only_commits_consistent_snapshots(writes, schedule):
    state = StateManager()
    rel = RegisterRelation()
    state.register(rel)
    committed = {0: 0}  # epoch -> value at that epoch

    writers = [WriterSim(state, rel, v, committed) for v in writes]
    reader = ReaderSim(state, rel)
    pending = list(writers)

    # Hypothesis picks who steps at each point; True = writer.
    for pick_writer in schedule:
        if reader.done:
            break
        if pick_writer and pending:
            pending[0].advance()
            if pending[0].done:
                pending.pop(0)
        else:
            reader.advance()

    # Drain: finish writers, then the reader must be able to finish
    # (no livelock once the system quiesces).
    for w in pending:
        while not w.done:
            w.advance()
    guard = 0
    while not reader.done:
        reader.advance()
        guard += 1
        assert guard < 20, "reader livelocked after writers drained"

    epoch, observed = reader.result
    # The pinned epoch is a committed epoch, never a mid-write state.
    assert epoch in committed
    # Snapshot isolation: the observed value is the value AT that epoch.
    assert observed == committed[epoch]


@settings(max_examples=100, deadline=None)
@given(writes=st.lists(st.integers(min_value=1, max_value=50),
                       min_size=1, max_size=5))
def test_worst_case_interleave_forces_retry_then_succeeds(writes):
    """A writer straddling every read attempt: reader retries each time,
    then commits the final value once writes drain."""
    state = StateManager()
    rel = RegisterRelation()
    state.register(rel)
    committed = {0: 0}
    reader = ReaderSim(state, rel)

    for value in writes:
        w = WriterSim(state, rel, value, committed)
        w.advance()          # pre-bump: write now in flight
        reader.advance()     # pin attempt lands dirty -> retry
        w.advance()
        w.advance()          # mutate + publish
    assert reader.retries >= len(writes)

    while not reader.done:
        reader.advance()
    epoch, observed = reader.result
    assert epoch == rel.modification_count
    assert observed == writes[-1]
