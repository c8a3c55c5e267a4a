"""Tests for the discrete-event simulator core."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.pspin.engine import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule_at(sim.now + 5.0, order.append, "c")
    sim.schedule_at(sim.now + 1.0, order.append, "a")
    sim.schedule_at(sim.now + 3.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 5.0


def test_simultaneous_events_are_fifo_stable():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule_at(sim.now + 2.0, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_schedule_from_callback():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule_at(sim.now + 1.0, chain, n + 1)

    sim.schedule_at(sim.now + 0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule_at(sim.now + 5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(1.0, lambda: None)


@pytest.mark.parametrize("priority", [0, 1])
def test_schedule_at_nan_rejected(priority):
    """nan compares false both ways, so a plain ``time < now`` guard let
    it in: it ran first and left ``sim.now`` nan."""
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_at(float("nan"), lambda: None, priority=priority)
    with pytest.raises(ValueError):
        sim.schedule_fast(float("nan"), lambda: None, (), priority)
    assert sim.pending == 0 and sim.now == 0.0


def test_run_until_stops_clock():
    sim = Simulator()
    hits = []
    sim.schedule_at(sim.now + 1.0, hits.append, 1)
    sim.schedule_at(sim.now + 10.0, hits.append, 2)
    sim.run(until=5.0)
    assert hits == [1]
    assert sim.now == 5.0
    sim.run()
    assert hits == [1, 2]


def test_step_returns_false_when_idle():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule_at(sim.now + 1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_pending_counts_live_events():
    sim = Simulator()
    sim.schedule_at(sim.now + 1.0, lambda: None)
    sim.schedule_at(sim.now + 2.0, lambda: None)
    assert sim.pending == 2
    sim.step()
    assert sim.pending == 1


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
def test_property_arbitrary_delays_execute_sorted(delays):
    sim = Simulator()
    seen = []
    for d in delays:
        sim.schedule_at(sim.now + d, lambda t=d: seen.append(t))
    sim.run()
    assert seen == sorted(delays)
    assert sim.events_processed == len(delays)


# ----------------------------------------------------------------------
# Execution order vs a plain (time, priority, seq) heap
# ----------------------------------------------------------------------
class _HeapSim:
    """Reference engine: one ``heapq`` of ``[time, priority, seq,
    callback, args]`` entries."""

    def __init__(self):
        self.now = 0.0
        self.stop_requested = False
        self._heap = []
        self._seq = 0

    def schedule_at(self, time, callback, *args, priority=1):
        assert time >= self.now
        entry = [time, priority, self._seq, callback, args]
        self._seq += 1
        heapq.heappush(self._heap, entry)

    def schedule_fast(self, time, callback, args=(), priority=1):
        self.schedule_at(time, callback, *args, priority=priority)

    def _head(self):
        return self._heap[0] if self._heap else None

    def _exec(self, entry):
        heapq.heappop(self._heap)
        self.now = entry[0]
        entry[3](*entry[4])

    def peek_time(self):
        entry = self._head()
        return None if entry is None else entry[0]

    def step(self):
        entry = self._head()
        if entry is None:
            return False
        self._exec(entry)
        return True

    def run(self, until=None):
        while (entry := self._head()) is not None:
            if until is not None and entry[0] > until:
                self.now = until
                return
            self._exec(entry)
        if until is not None and until > self.now:
            self.now = until

    def run_stoppable(self):
        self.stop_requested = False
        while (entry := self._head()) is not None:
            self._exec(entry)
            if self.stop_requested:
                break
        return self.stop_requested


_DELAYS = (0.0, 0.0, 0.5, 1.0, 3.0)
_child = st.tuples(
    st.sampled_from(_DELAYS), st.sampled_from((0, 1, 2)), st.booleans()
)
#: What the callback of event ``id`` does, looked up by ``id % len``:
#: children to schedule (delay, priority, via schedule_at), whether to
#: set ``stop_requested``, or re-enter the engine (1 peek, 2 step).
_behaviour = st.fixed_dictionaries({
    "children": st.lists(_child, max_size=3),
    "stop": st.booleans(),
    "nested": st.sampled_from((0, 0, 0, 1, 2)),
})
_initial = st.tuples(
    st.sampled_from((0.0, 0.5, 1.0, 2.0, 4.0)), st.sampled_from((0, 1, 2)),
    st.booleans(),
)
_drive = st.one_of(
    st.tuples(st.just("run_until"), st.sampled_from((0.0, 0.5, 1.0, 2.5, 6.0))),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("stoppable")),
    st.tuples(st.just("sched"), st.sampled_from((0.0, 1.0)),
              st.sampled_from((0, 1, 2))),
)


def _replay(sim, behaviours, initial, drive, limit=150):
    """Drive ``sim`` through one scripted scenario; return its log."""
    log = []
    state = {"ids": 0, "depth": 0}

    def schedule(time, priority, via_at):
        ev_id = state["ids"]
        state["ids"] += 1
        if via_at:
            sim.schedule_at(time, fire, ev_id, priority=priority)
        else:
            sim.schedule_fast(time, fire, (ev_id,), priority=priority)

    def fire(ev_id):
        log.append(("run", ev_id, sim.now))
        b = behaviours[ev_id % len(behaviours)]
        if state["ids"] < limit:
            for delay, priority, via_at in b["children"]:
                schedule(sim.now + delay, priority, via_at)
        if b["stop"]:
            sim.stop_requested = True
        if b["nested"] and state["depth"] < 3:
            state["depth"] += 1
            if b["nested"] == 1:
                log.append(("nested-peek", sim.peek_time()))
            else:
                log.append(("nested-step", sim.step(), sim.now))
            state["depth"] -= 1

    for time, priority, via_at in initial:
        schedule(time, priority, via_at)
    for op in drive:
        kind = op[0]
        if kind == "run_until":
            out = sim.run(until=max(op[1], sim.now))
        elif kind == "step":
            out = sim.step()
        elif kind == "peek":
            out = sim.peek_time()
        elif kind == "stoppable":
            out = sim.run_stoppable()
        else:
            schedule(sim.now + op[1], op[2], True)
            out = None
        log.append((kind, out, sim.now))
    sim.run()
    log.append(("end", sim.now, sim.peek_time()))
    return log


@settings(max_examples=300, deadline=None)
@given(
    behaviours=st.lists(_behaviour, min_size=1, max_size=6),
    initial=st.lists(_initial, min_size=1, max_size=12),
    drive=st.lists(_drive, max_size=8),
)
def test_property_execution_order_matches_reference_heap(behaviours, initial, drive):
    """Same-instant buckets never change the ``(time, priority, seq)``
    order: callbacks that schedule at ``now`` with priorities 0/1/2,
    stop requests and re-entrant peek/step calls, under every driver loop."""
    got = _replay(Simulator(), behaviours, initial, drive)
    want = _replay(_HeapSim(), behaviours, initial, drive)
    assert got == want
