"""Discrete-event simulation core.

A minimal, fast event loop with integer-friendly cycle timestamps.
Events execute in ``(time, priority, seq)`` order, where ``seq`` is a
monotonically increasing insertion counter: simultaneous events of one
priority run FIFO (matters for FCFS semantics: two packets arriving in
the same cycle are scheduled in arrival order).

The queue has two parts, both private to this module:

* **Priority-1 events** (arrivals, hops — nearly all traffic) live in
  *same-instant buckets*: a heap of distinct timestamps, each owning
  the FIFO of its entries.  Entries join a bucket in ``seq`` order, so
  a bucket's FIFO order *is* its ``(time, 1, seq)`` order, and a storm
  whose pops mostly share the previous pop's timestamp pays one
  ``popleft`` per event instead of a deep list-comparison ``heappop``.
  A bucket holding one entry is stored as that entry; it becomes a
  ``deque`` when a second entry joins (a ``deque`` costs ~760 bytes,
  and most timestamps of a switch-level or contended fabric run carry
  a single event).
* **Every other priority** (in practice priority 0: link rearms, pool
  releases, stall wakeups, fault applies) stays on one binary heap of
  ``[time, priority, seq, callback, args]`` lists.  These events are
  sparse and mostly at distinct instants, where a plain heap is
  cheapest.

Ordering invariant: the next event is the smaller of the heap head and
the earliest bucket's head under ``(time, priority, seq)``.  Within a
bucket only a heap entry at the *same* instant with priority < 1 can
overtake, so draining a bucket re-checks the heap head only for that.
Entries are plain lists in both parts, and every queued entry is live:
the head of either part is the next event it will run.

A third part may be attached: a *row source* (``Simulator._rows``), the
network simulator's store of hop rows
(:class:`repro.network.windows.HopRows`).  Its rows are priority-1
events keyed by the same ``(time, 1, seq)`` — they draw ``seq`` from
this engine's counter — so the next event is the smallest of the heap
head, the earliest bucket's head and the row head.  When a row comes
first the loop hands control to the row source's ``run``, which either
runs a window of rows (each counts as one event) or hands the rows back
to the engine's buckets as plain events.  ``peek_time``, ``step``,
``run``, ``run_stoppable``, ``pending``, ``queued`` and
``events_processed`` all see the rows.  Any call into the engine first
has the row source *settle*: end a running window at the current row,
write its deferred link state and fold in the rows sent while the
engine was idle (:attr:`Simulator.running` unset), so the engine and
the network stand as the per-event loop would have them.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import chain
from typing import Any, Callable, Iterator

# Entry layout (plain list; heap entries compare element-wise):
_TIME, _PRIORITY, _SEQ, _CALLBACK, _ARGS = range(5)
_INF = float("inf")


def _row_first(rows, entry: list | None) -> bool:
    """Whether the row source's head comes before engine ``entry``
    (None = idle engine) under ``(time, priority, seq)``; rows are
    priority 1."""
    rt = rows.head_t
    if entry is None:
        return rt < _INF
    t = entry[_TIME]
    if rt != t:
        return rt < t
    priority = entry[_PRIORITY]
    if priority != 1:
        return priority > 1
    return rows.head_seq < entry[_SEQ]


class Simulator:
    """Discrete-event simulator over a bucketed event queue.

    Timestamps are in *cycles* for the switch model (1 cycle == 1 ns at
    the paper's 1 GHz clock) and in *nanoseconds* for the network model;
    the engine itself is unit-agnostic.

    Example
    -------
    >>> sim = Simulator()
    >>> order = []
    >>> sim.schedule_at(5.0, order.append, "b")
    >>> sim.schedule_at(1.0, order.append, "a")
    >>> sim.run()
    >>> order
    ['a', 'b']
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Non-priority-1 entries (binary heap).
        self._heap: list[list] = []
        #: Distinct priority-1 timestamps (binary heap of numbers), one
        #: per key of ``_buckets``.
        self._times: list[float] = []
        #: timestamp -> its priority-1 entries in seq order: the lone
        #: entry itself, or a ``deque`` once a second entry joined.
        #: Never empty: a drained bucket leaves the dict and ``_times``.
        self._buckets: dict[float, list | deque] = {}
        self._seq: int = 0
        self._events_processed: int = 0
        #: Cooperative stop for :meth:`run_stoppable` — a callback sets
        #: it (e.g. a future settling) to hand control back to the
        #: driver without a per-event predicate call.
        self.stop_requested: bool = False
        #: Attached row source (None = none): see the module docstring.
        self._rows = None
        #: True while a run loop is on the stack.  The network simulator
        #: turns sends made while it is False (the engine idle) straight
        #: into rows of the row source.
        self.running: bool = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 1,
    ) -> None:
        """Schedule ``callback(*args)`` at absolute time ``time``.

        ``priority`` breaks timestamp ties: completions and releases
        (priority 0) must settle before new arrivals (priority 1) claim
        the freed resources; otherwise an arrival scheduled at set-up
        time (low seq) would overtake a completion scheduled later for
        the same instant.
        """
        self.schedule_fast(time, callback, args, priority)

    def schedule_fast(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple = (),
        priority: int = 1,
    ) -> None:
        """:meth:`schedule_at` with ``args`` passed as a tuple rather
        than varargs, so the hot paths (switch dispatch, network hops)
        skip the re-packing."""
        if not time >= self.now:     # also rejects nan
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        entry = [time, priority, self._seq, callback, args]
        self._seq += 1
        if priority == 1:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = entry
                heappush(self._times, time)
            elif bucket.__class__ is deque:
                bucket.append(entry)
            else:
                self._buckets[time] = deque((bucket, entry))
        else:
            heappush(self._heap, entry)

    # ------------------------------------------------------------------
    # Queue access
    # ------------------------------------------------------------------
    def _head(self) -> list | None:
        """The next entry in ``(time, priority, seq)`` order (None when
        idle)."""
        heap = self._heap
        times = self._times
        if not times:
            return heap[0] if heap else None
        t = times[0]
        first = self._buckets[t]
        if first.__class__ is deque:
            first = first[0]
        if heap:
            head = heap[0]
            ht = head[_TIME]
            if ht < t or (ht == t and head[_PRIORITY] < 1):
                return head
        return first

    def _pop(self, entry: list) -> None:
        """Remove ``entry``, the current :meth:`_head`, from the queue."""
        if entry[_PRIORITY] != 1:
            heappop(self._heap)
            return
        t = entry[_TIME]
        bucket = self._buckets[t]
        if bucket.__class__ is deque:
            bucket.popleft()
            if bucket:
                return
        del self._buckets[t]
        heappop(self._times)

    def _live(self) -> Iterator[list]:
        """Every queued entry, in no particular order."""
        yield from self._heap
        for bucket in self._buckets.values():
            if bucket.__class__ is deque:
                yield from bucket
            else:
                yield bucket

    def queued(self) -> Iterator[tuple]:
        """Every pending event as ``(time, priority, seq, callback,
        args)``, in no particular order."""
        rows = self._settled_rows()
        live = map(tuple, self._live())
        if rows is None or not rows.count:
            return live
        return chain(live, rows.queued())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run(self, stop: float, stoppable: bool) -> int:
        """Execute events in order; return how many ran.

        Stops before the first event with ``time > stop``.
        ``stoppable`` also stops right after an event that set
        :attr:`stop_requested`.  :attr:`running` is set meanwhile.
        """
        running = self.running
        self.running = True
        try:
            return self._loop(stop, stoppable)
        finally:
            self.running = running

    def _loop(self, stop: float, stoppable: bool) -> int:
        self._settled_rows()
        heap = self._heap
        buckets = self._buckets
        times = self._times
        processed = 0
        while True:
            # Re-read per event: a callback may attach a row source.
            rows = self._rows
            # The next entry: the earliest bucket's head unless the heap
            # head comes first (an inlined :meth:`_head`).
            if times:
                t = times[0]
                entry = buckets[t]
                if entry.__class__ is deque:
                    entry = entry[0]
                if heap:
                    head = heap[0]
                    ht = head[_TIME]
                    if ht < t or (ht == t and head[_PRIORITY] < 1):
                        entry = head
                        t = ht
            elif heap:
                entry = heap[0]
                t = entry[_TIME]
            else:
                entry = None
                t = _INF
            if rows is not None and rows.head_t <= t and _row_first(rows, entry):
                t = rows.head_t
                if t > stop:
                    break
                processed += rows.run(stop, stoppable)
                if stoppable and self.stop_requested:
                    break
                continue
            if entry is None or t > stop:
                break
            if entry[_PRIORITY] != 1:
                heappop(heap)
            elif buckets[t] is entry:         # a lone-entry bucket
                del buckets[t]
                heappop(times)
            else:
                # Drain the bucket at ``t`` until it empties or a
                # same-instant priority-0 entry gets ahead.
                bucket = buckets[t]
                popleft = bucket.popleft
                while True:
                    entry = popleft()
                    if not bucket:
                        # Unlink before the callback runs: a re-entrant
                        # step/peek/run must see a consistent queue,
                        # and a same-instant reschedule opens a fresh
                        # bucket.
                        del buckets[t]
                        heappop(times)
                    self.now = t
                    entry[_CALLBACK](*entry[_ARGS])
                    processed += 1
                    if stoppable and self.stop_requested:
                        break
                    if not bucket:
                        break
                    if heap and heap[0][_TIME] <= t and heap[0][_PRIORITY] < 1:
                        break
                    if rows is not None and rows.head_t <= t:
                        break                 # a row may come between
                if stoppable and self.stop_requested:
                    break
                continue
            self.now = t
            entry[_CALLBACK](*entry[_ARGS])
            processed += 1
            if stoppable and self.stop_requested:
                break
        self._events_processed += processed
        self._settled_rows()
        return processed

    def _settled_rows(self):
        """The attached row source, settled first if it is mid-window
        or holds rows sent while idle (a caller sees the per-event
        state)."""
        rows = self._rows
        if rows is not None and rows.dirty:
            rows.settle()
        return rows

    def step(self) -> bool:
        """Run the single earliest pending event.  Returns False when idle."""
        rows = self._settled_rows()
        entry = self._head()
        if rows is not None and _row_first(rows, entry):
            rows.step()                       # the head row becomes an event
            entry = self._head()
        if entry is None:
            return False
        self._pop(entry)
        self.now = entry[_TIME]
        entry[_CALLBACK](*entry[_ARGS])
        self._events_processed += 1
        return True

    def run(self, until: float | None = None) -> None:
        """Run events in order; stop when the queue drains or time passes ``until``."""
        self._run(_INF if until is None else until, False)
        if until is not None and (
            until > self.now or self._head() is not None
            or (self._rows is not None and self._rows.count)
        ):
            self.now = until

    def run_stoppable(self) -> bool:
        """Run events until a callback sets :attr:`stop_requested` or
        the queue drains.  Returns True iff stopped by request.

        The flag is cleared on entry; checking an instance attribute
        once per event is the cheapest wakeup the fabric's
        ``run_until`` can get without overrunning a completion.
        """
        self.stop_requested = False
        self._run(_INF, True)
        return self.stop_requested

    def peek_time(self) -> float | None:
        """Timestamp of the earliest pending event (None when idle)."""
        rows = self._settled_rows()
        entry = self._head()
        if rows is not None and _row_first(rows, entry):
            return rows.head_t
        return None if entry is None else entry[_TIME]

    @property
    def pending(self) -> int:
        """Number of queued events."""
        rows = self._settled_rows()
        return sum(1 for _ in self._live()) + (rows.count if rows is not None else 0)

    @property
    def events_processed(self) -> int:
        """Total events executed so far (for profiling/tests)."""
        return self._events_processed
