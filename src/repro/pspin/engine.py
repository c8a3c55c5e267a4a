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
Cancellation is lazy in both parts: a cancelled entry's callback slot
is cleared and the entry is discarded when it reaches a head.

Entries are plain lists in both parts; :class:`Event` is a thin
slotted handle over one so callers keep the ``cancel()`` API, and hot
paths that discard the handle use :meth:`Simulator.schedule_fast` and
skip even that allocation.

A third part may be attached: a *row source* (``Simulator._rows``), the
network simulator's store of hop rows
(:class:`repro.network.windows.HopRows`).  Its rows are priority-1
events keyed by the same ``(time, 1, seq)`` — they draw ``seq`` from
this engine's counter — so the next event is the smallest of the heap
head, the earliest bucket's head and the row head.  When a row comes
first the loop hands control to the row source's ``run``, which either
runs a window of rows (each counts as one event) or hands the rows back
to the engine's buckets as plain events.  ``peek_time``, ``step``,
``run``, ``run_stoppable``, ``run_window``, ``pending``, ``queued`` and
``events_processed`` all see the rows.  Any re-entrant call into the
engine first has the row source *settle*: end a running window at the
current row and write its deferred link state, so the engine and the
network stand as the per-event loop would have them.
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


class Event:
    """Handle to a scheduled callback.  Ordering key is ``(time,
    priority, seq)``.

    ``priority`` breaks timestamp ties: completions/releases (priority
    0) must settle before new arrivals (priority 1) claim the freed
    resources — otherwise an arrival event created at setup time (low
    seq) would overtake a completion scheduled later for the same
    instant.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry[_TIME]

    @property
    def priority(self) -> int:
        return self._entry[_PRIORITY]

    @property
    def seq(self) -> int:
        return self._entry[_SEQ]

    @property
    def args(self) -> tuple:
        return self._entry[_ARGS]

    @property
    def cancelled(self) -> bool:
        return self._entry[_CALLBACK] is None

    def cancel(self) -> None:
        """Mark the event so the loop skips it (O(1) lazy deletion)."""
        self._entry[_CALLBACK] = None


class Simulator:
    """Discrete-event simulator over a bucketed event queue.

    Timestamps are in *cycles* for the switch model (1 cycle == 1 ns at
    the paper's 1 GHz clock) and in *nanoseconds* for the network model;
    the engine itself is unit-agnostic.

    Example
    -------
    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.schedule(5.0, order.append, "b")
    >>> _ = sim.schedule(1.0, order.append, "a")
    >>> sim.run()
    >>> order
    ['a', 'b']
    """

    #: Exclusive bound on :meth:`run_window` that callbacks may lower
    #: mid-window: the sharded coordinator's free-run must stop before
    #: its earliest cross-shard offload.  The other run loops ignore it.
    local_bound: float = _INF

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

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 1,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 1,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``.

        ``priority=0`` runs before same-timestamp ``priority=1`` events
        regardless of insertion order (see :class:`Event`).
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        entry = [time, priority, self._seq, callback, args]
        self._seq += 1
        self._push(entry)
        return Event(entry)

    def schedule_fast(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple = (),
        priority: int = 1,
    ) -> None:
        """Like :meth:`schedule_at` but returns no cancellation handle.

        The hot paths (switch dispatch, network hops) never cancel, so
        they skip the :class:`Event` allocation.  ``args`` is passed as
        a tuple rather than varargs to avoid re-packing.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        entry = [time, priority, self._seq, callback, args]
        self._seq += 1
        if priority == 1:                     # _push, inlined: hot path
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

    def _push(self, entry: list) -> None:
        if entry[_PRIORITY] == 1:
            time = entry[_TIME]
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
        """The next live entry in ``(time, priority, seq)`` order (None
        when idle), discarding cancelled entries ahead of it."""
        heap = self._heap
        while heap and heap[0][_CALLBACK] is None:
            heappop(heap)
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            first = buckets[t]
            if first.__class__ is deque:
                while first and first[0][_CALLBACK] is None:
                    first.popleft()
                first = first[0] if first else None
            elif first[_CALLBACK] is None:
                first = None
            if first is not None:
                if heap:
                    head = heap[0]
                    ht = head[_TIME]
                    if ht < t or (ht == t and head[_PRIORITY] < 1):
                        return head
                return first
            del buckets[t]
            heappop(times)
        return heap[0] if heap else None

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
        """Every live queued entry, in no particular order."""
        for entry in self._heap:
            if entry[_CALLBACK] is not None:
                yield entry
        for bucket in self._buckets.values():
            for entry in bucket if bucket.__class__ is deque else (bucket,):
                if entry[_CALLBACK] is not None:
                    yield entry

    def queued(self) -> Iterator[tuple]:
        """Every live pending event as ``(time, priority, seq, callback,
        args)``, in no particular order (recall/checkpoint snapshots)."""
        rows = self._settled_rows()
        live = map(tuple, self._live())
        if rows is None or not rows.count:
            return live
        return chain(live, rows.queued())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run(self, stop: float, window: bool, stoppable: bool) -> int:
        """Execute events in order; return how many ran.

        Stops before the first event with ``time > stop`` or — for a
        ``window`` — ``time >= min(stop, local_bound)``, re-reading
        :attr:`local_bound` after every event.  ``stoppable`` also stops
        right after an event that set :attr:`stop_requested`.
        """
        if self._rows is not None:
            self._rows.prepare()
        heap = self._heap
        buckets = self._buckets
        times = self._times
        processed = 0
        while True:
            # Re-read per event: a callback may attach a row source.
            rows = self._rows
            # The next entry: the earliest bucket's head unless the heap
            # head comes first (an inlined :meth:`_head`, which purges
            # any cancelled head on the rare path).
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
            if entry is not None and entry[_CALLBACK] is None:
                self._head()
                continue
            if rows is not None and rows.head_t <= t and _row_first(rows, entry):
                t = rows.head_t
                if window:
                    bound = self.local_bound
                    if t >= (stop if stop < bound else bound):
                        break
                elif t > stop:
                    break
                processed += rows.run(stop, window, stoppable)
                if stoppable and self.stop_requested:
                    break
                continue
            if entry is None:
                break
            if window:
                bound = self.local_bound
                if t >= (stop if stop < bound else bound):
                    break
            elif t > stop:
                break
            if entry[_PRIORITY] != 1:
                heappop(heap)
            elif buckets[t] is entry:         # a lone-entry bucket
                del buckets[t]
                heappop(times)
            else:
                # Drain the bucket at ``t`` (its head is live) until it
                # empties or a same-instant priority-0 entry gets ahead.
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
                    callback = entry[_CALLBACK]
                    if callback is not None:
                        self.now = t
                        callback(*entry[_ARGS])
                        processed += 1
                        if stoppable and self.stop_requested:
                            break
                        if window and self.local_bound <= t:
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
        (a callback re-entering the engine sees the per-event state)."""
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
        self._run(_INF if until is None else until, False, False)
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
        self._run(_INF, False, True)
        return self.stop_requested

    def peek_time(self) -> float | None:
        """Timestamp of the earliest pending event (None when idle).

        Lazily discards cancelled heads, so repeated peeks stay O(1)
        amortized.  This is the conservative-PDES probe: a shard
        advertises its next event time so the coordinator can compute a
        global safe window.
        """
        rows = self._settled_rows()
        entry = self._head()
        if rows is not None and _row_first(rows, entry):
            return rows.head_t
        return None if entry is None else entry[_TIME]

    def run_window(self, stop: float, stoppable: bool = False) -> int:
        """Run every event with ``time < min(stop, local_bound)``
        (strict); return count.

        The workhorse of window-synchronized conservative PDES: a shard
        granted the window ``[now, stop)`` may execute exactly the
        events strictly before ``stop`` — events *at* ``stop`` belong
        to the next window (they may race with cross-shard arrivals
        carrying the same timestamp, whose tie-break lives with the
        coordinator).  ``self.now`` is left at the last executed event,
        never advanced to ``stop``: the clock must not outrun a
        cross-shard arrival at ``stop`` itself.  ``stoppable`` also
        stops right after an event that set :attr:`stop_requested`.
        """
        return self._run(stop, True, stoppable)

    @property
    def pending(self) -> int:
        """Number of queued (non-cancelled) events."""
        rows = self._settled_rows()
        return sum(1 for _ in self._live()) + (rows.count if rows is not None else 0)

    @property
    def events_processed(self) -> int:
        """Total events executed so far (for profiling/tests)."""
        return self._events_processed
