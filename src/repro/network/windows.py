"""Exact FIFO hop windows for the sequential network simulator.

Under FIFO arbitration with no faults armed, no interceptors and a pure
router, a hop event does three things: route the message one hop,
serialize it behind its link's ``busy_until``, and schedule the
arrival one link later.  Every link is at least ``L`` (the minimum link
latency) long, so a hop processed at ``t >= T`` schedules its child no
earlier than ``T + L``: all hop events in ``[T, T + L)`` are independent
of each other except through the FIFO order on shared links.
:class:`HopRows` exploits that.  It holds a block of hop *rows* sorted
by the engine's own key ``(time, 1, seq)`` and is attached to the
engine as its row source (``Simulator._rows``), so the engine
interleaves the rows with its other events exactly.

A *window* starts at the earliest row or event ``T`` and takes every
hop before both ``T + L`` and the first engine entry a window may not
take (any event that is not a hop of an untagged message with an
integral, non-negative byte count).  When it holds at least
:data:`MIN_VECTOR_ROWS` hops, the hop events it covers move from the
engine into the block, the rows are routed with :class:`VectorRoutes`,
each link's rows are serialized in ``(time, seq)`` order with
:func:`chain_links` (the kernel the sharded engine's vector workers
call too), and the children get ``seq`` numbers in processing order.
Deliveries run their callbacks in row order with ``sim.now`` and the
engine's seq counter set where the per-event loop would have them.  A
narrower window hands its rows back to the engine as plain hop events,
so ``NetworkSimulator._hop`` in the engine loop stays the only
per-event path.

Callback contract.  A window writes the ``Link`` fields and the traffic
statistics when it ends.  Inside a delivery callback, reading them
through ``net.traffic``, ``net.flow_stats``, ``net.traffic_extra``,
``topology.link`` or ``topology.links`` — or calling into the engine,
or changing flows, weights, faults, interceptors, routes or rates, or
scheduling anything at or before the window's last row — *settles* the
window: every row before the current one is committed, the rows after
it go back to the block, and the window ends after the current row.  A
``Link`` object held from before the run is only current outside
callbacks.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from operator import itemgetter

import numpy as np

_INF = float("inf")
#: Windows with fewer hops run as engine events: the numpy kernel's
#: fixed cost (a few dozen array calls) pays off only on wider windows.
MIN_VECTOR_ROWS = 256
#: A window takes at most this many rows (a prefix of a wider one is a
#: window too): wider windows gain little, and their arrays grow with
#: them.
MAX_VECTOR_ROWS = 16384
#: Deferred byte totals and deltas stay below this, so their sums stay
#: below 2**53: exact integers, whatever the order of addition.
_HALF = 2.0 ** 52


def chain_links(
    li: np.ndarray, t: np.ndarray, ser: np.ndarray, tie: np.ndarray,
    busy: np.ndarray,
) -> np.ndarray:
    """Serialize rows on their links in ``(time, tie)`` order.

    Row ``i`` puts ``ser[i]`` ns on link ``li[i]`` at time ``t[i]``;
    ``busy`` (indexed by link) holds each link's ``busy_until`` and is
    advanced in place.  Returns each row's finish time in input order.
    Each row computes ``max(t, busy) + ser``, the float operations of
    ``Link.transmit`` in the same order, so results are bitwise equal
    to serializing row by row; the ``k``-th row of every link is
    chained in one array step.
    """
    n = li.size
    if not n:
        return np.empty(0, np.float64)
    order = np.lexsort((tie, t, li))
    li_s = li[order]
    t_s = t[order]
    ser_s = ser[order]
    starts = np.empty(n, np.bool_)
    starts[:1] = True
    np.not_equal(li_s[1:], li_s[:-1], out=starts[1:])
    seg = np.flatnonzero(starts)
    lens = np.diff(np.append(seg, n))
    by_len = np.argsort(-lens, kind="stable")
    seg = seg[by_len]
    lids = li_s[seg]
    # active[k]: how many links have more than k rows (a prefix of seg).
    active = np.searchsorted(-lens[by_len], -np.arange(int(lens.max())), "left")
    b = busy[lids]
    fin_s = np.empty(n, np.float64)
    for k, m in enumerate(active.tolist()):
        pos = seg[:m] + k if k else seg
        bk = np.maximum(t_s[pos], b[:m]) + ser_s[pos]
        b[:m] = bk
        fin_s[pos] = bk
    busy[lids] = b
    fin = np.empty(n, np.float64)
    fin[order] = fin_s
    return fin


class VectorRoutes:
    """Next hops for index arrays of (node, dst) pairs under a pure
    router: the closed-form up-down pick over fat-tree tables, or one
    ``router.next_hop`` call per distinct pair, memoized."""

    def __init__(self, index, router) -> None:
        self.index = index
        self.router = router
        self.vec = index.kind is not None and router.name == "updown"
        self.salt = getattr(router, "_salt", 0)
        self.memo: dict = {}

    def clear(self) -> None:
        self.memo.clear()

    def __call__(self, node: np.ndarray, dst: np.ndarray) -> np.ndarray:
        if self.vec:
            from repro.network.shard import updown_next_hop_vec

            return updown_next_hop_vec(self.index, node, dst, self.salt)
        nn = self.index.n_nodes
        uniq, inverse = np.unique(node * np.int64(nn) + dst, return_inverse=True)
        memo = self.memo
        names = self.index.names
        idx = self.index.idx
        next_hop = self.router.next_hop
        table = np.empty(uniq.size, np.int64)
        for i, key in enumerate(uniq.tolist()):
            hop = memo.get(key)
            if hop is None:
                a, b = divmod(key, nn)
                hop = memo[key] = idx[next_hop(names[a], names[b])]
            table[i] = hop
        return table[inverse]


class _Window:
    """One vector window in flight (see :meth:`HopRows._vector`)."""

    __slots__ = (
        "cols", "xp", "li", "nxt", "arr", "fin", "base", "t_last",
        "pos", "xr", "cb_pos", "cb_extra", "settled",
    )


_seq_of = itemgetter(2)      # an engine entry's seq


class HopRows:
    """A network's hop rows and their window executor.

    The rows live in one block of columns sorted by ``(time, seq)``:
    time, seq, node, dst, nbytes, message.  Only hops of untagged
    messages with integral, non-negative byte counts enter it, so a
    window's byte sums are integer sums.  Flat tables (node and link
    indices, rates, latencies) are built at the first window that
    takes rows, not with the simulator.
    """

    def __init__(self, net) -> None:
        self.net = net
        self.sim = net.sim
        self._blk: tuple | None = None
        #: Head row key (``_INF`` when empty), read by the engine.
        self.head_t = _INF
        self.head_seq = 0
        #: The window whose callbacks are running (None outside one).
        self.active: _Window | None = None
        #: A window is running or deferred state is pending: readers
        #: must :meth:`settle` first.
        self.dirty = False
        self._lookahead_ns: float | None = None
        self._index = None
        self._routes: VectorRoutes | None = None

    # ------------------------------------------------------------------
    # Queue interface (engine side)
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return 0 if self._blk is None else self._blk[0].size

    def queued(self):
        if self._blk is None:
            return
        hop = self.net._hop
        names = self._names
        t, seq, node, _d, _b, msg = self._blk
        for row in zip(t.tolist(), seq.tolist(), node.tolist(), msg.tolist()):
            yield (row[0], 1, row[1], hop, (row[3], names[row[2]]))

    def step(self) -> None:
        """Hand the head row to the engine (which then runs it)."""
        self._unblock(1)

    def prepare(self) -> None:
        """Engine run start: settle, and when at least
        :data:`MIN_VECTOR_ROWS` hop events a window may take fall within
        ``L`` of the engine's earliest bucket, take every such hop event
        off the engine (so later waves sent up front run as windows
        too)."""
        if self.dirty:
            self.settle()
        sim = self.sim
        if self._blk is not None or not sim._times or not self._vector_ok():
            return
        buckets = sim._buckets
        cols, take = self._taker()
        count = 0
        for t in self._bucket_times(sim._times[0] + self._lookahead(), _INF):
            b = buckets[t]
            for e in b if b.__class__ is deque else (b,):
                count += take(e)
            if count >= MIN_VECTOR_ROWS:
                self._lift()
                return

    def run(self, stop: float, window: bool, stoppable: bool) -> int:
        """Run the window that starts at the head row (which comes
        before the engine's next entry and within ``stop``); return how
        many rows ran.  A narrow window's rows go back to the engine
        instead (0 ran, the engine runs them next)."""
        if not self._vector_ok():
            self._unblock(self.count)
            return 0
        n = self._gather(stop, window)
        if n < MIN_VECTOR_ROWS:
            self._unblock(n)
            return 0
        return self._vector(min(n, MAX_VECTOR_ROWS), window, stoppable)

    def settle(self) -> None:
        """Bring everything to the per-event state: end a running window
        after its current row (commit the rows before it, requeue the
        rows after it) and write the deferred link and traffic state."""
        self.dirty = False
        self.net.topology._read_hooks.remove(self.settle)
        w = self.active
        if w is not None:
            self.active = None
            w.settled = True
            self._finish(w, w.pos)
        self._sync()

    # ------------------------------------------------------------------
    # Eligibility, tables, block bookkeeping
    # ------------------------------------------------------------------
    def _lookahead(self) -> float:
        if self._lookahead_ns is None:
            self._lookahead_ns = min(
                (ln.latency_ns for ln in self.net.topology.links()), default=0.0
            )
        return self._lookahead_ns

    def _vector_ok(self) -> bool:
        net = self.net
        return (
            net.fast_path and net.faults is None and not net._interceptors
            and net.router.cacheable and None not in net._dead_flows
            and self._lookahead() > 0.0
        )

    def _tables(self) -> None:
        from repro.network.shard import build_index

        net = self.net
        if self._index is None:
            index = build_index(net.topology)
            self._index = index
            self._names = index.names
            self._idx = index.idx
            self._links = net.topology.links()
            self._keys = index.link_keys
            self._rate = index.link_rate.copy()
            self._lat = index.link_latency
            n = index.n_links
            # Deferred link state: ``_busy`` is authoritative where
            # ``_pend``; ``_order`` lists pending links, first touch first.
            self._busy = np.zeros(n, np.float64)
            self._scratch = np.zeros(n, np.float64)
            self._pend = np.zeros(n, np.bool_)
            self._dbytes = np.zeros(n, np.float64)
            self._dmsgs = np.zeros(n, np.int64)
            self._order: list = []
            self._dbh = 0.0
            self._dn = 0
        if self._routes is None or self._routes.router is not net.router:
            self._routes = VectorRoutes(self._index, net.router)

    def on_topology_change(self, event: str, args: tuple) -> None:
        """Routes may have moved; a re-rated link serializes at its new
        rate from the next window on."""
        if self._routes is None:
            return
        self._routes.clear()
        if event == "set_link_rate":
            idx = self._idx
            a, b = idx[args[0]], idx[args[1]]
            li = self._index.link_ids(np.array([a, b]), np.array([b, a]))
            for i in li.tolist():
                self._rate[i] = self._links[i].bytes_per_ns

    def _set_block(self, blk: tuple | None) -> None:
        if blk is not None and not blk[0].size:
            blk = None
        self._blk = blk
        if blk is None:
            self.head_t, self.head_seq = _INF, 0
        else:
            self.head_t, self.head_seq = float(blk[0][0]), int(blk[1][0])

    def _bucket_times(self, lim: float, last: float) -> list:
        """The engine's bucket times before ``lim`` and at most ``last``,
        ascending: they form a subtree at the root of its time heap."""
        times = self.sim._times
        size = len(times)
        sel = []
        todo = [0]
        while todo:
            i = todo.pop()
            if i < size:
                t = times[i]
                if t < lim and t <= last:
                    sel.append(t)
                    todo.append(2 * i + 1)
                    todo.append(2 * i + 2)
        sel.sort()
        return sel

    def _gather(self, stop: float, window: bool) -> int:
        """Size the window that starts at the head row: its block rows
        plus the engine's hop events it covers, up to the first engine
        entry a window may not take.  When that is at least
        :data:`MIN_VECTOR_ROWS`, move those events into the block.
        Returns how many block rows the window then holds."""
        sim = self.sim
        sim._head()                   # drops cancelled heads
        lim = self.head_t + self._lookahead()    # exclusive
        last = _INF                        # inclusive (``run(until)``)
        if window:
            lim = min(lim, stop, sim.local_bound)
        else:
            last = stop
        heap = sim._heap
        if heap:
            h = heap[0]
            if h[1] < 1:
                lim = min(lim, h[0])
            else:
                last = min(last, h[0])
        times = sim._times
        buckets = sim._buckets
        sel = self._bucket_times(lim, last)
        cols, take = self._taker()
        cut = None                    # the first entry a window may not take
        for t in sel:
            b = buckets[t]
            for e in b if b.__class__ is deque else (b,):
                if e[3] is not None and not take(e):   # (skip cancelled)
                    cut = (t, e[2])
                    break
            if cut is not None:
                break
        n = self._prefix(lim, last, cut)
        k = len(cols[0])
        if not k or n + k < MIN_VECTOR_ROWS:
            return n
        for t in sel:
            b = buckets[t]
            if b.__class__ is deque:
                # In place: an engine loop up the stack may be draining it.
                while b and (cut is None or t < cut[0] or b[0][2] < cut[1]):
                    b.popleft()
                if b:
                    break
            elif cut is not None and t == cut[0]:
                break
            del buckets[t]
            heappop(times)
        self._add_rows(*cols)
        return n + k

    def _taker(self):
        """Columns (time, seq, node, dst, nbytes, message; nodes by
        name) and ``take(entry)``: whether a window may take engine
        ``entry`` — a hop of an untagged message with an integral,
        non-negative byte count — appending it to the columns if so."""
        hop = self.net._hop
        cols = ts, seqs, nodes, dsts, nbs, msgs = [], [], [], [], [], []

        def take(e) -> bool:
            if e[3] != hop:
                return False
            m, node = e[4]
            nb = m.nbytes
            if m.flow is not None or not (nb >= 0 and nb % 1.0 == 0.0):
                return False
            ts.append(e[0])
            seqs.append(e[2])
            nodes.append(node)
            dsts.append(m.dst)
            nbs.append(nb)
            msgs.append(m)
            return True

        return cols, take

    def _lift(self) -> None:
        """Move every hop event a window may take from the engine into
        the block, keys kept.  Buckets are edited in place: an engine
        loop up the stack may be draining one of them."""
        sim = self.sim
        buckets = sim._buckets
        cols, take = self._taker()
        emptied = []
        for t, b in buckets.items():
            if b.__class__ is deque:
                kept = [e for e in b if not take(e)]
                if len(kept) < len(b):
                    b.clear()
                    b.extend(kept)
                    if not kept:
                        emptied.append(t)
            elif take(b):
                emptied.append(t)
        if emptied:
            for t in emptied:
                del buckets[t]
            times = sim._times
            times[:] = [t for t in times if t in buckets]
            heapify(times)
        if cols[0]:
            self._add_rows(*cols)

    def _prefix(self, lim: float, last: float, cut) -> int:
        """How many leading block rows come before ``lim``, at or before
        ``last`` and before the engine entry keyed ``cut``."""
        blk = self._blk
        if blk is None:
            return 0
        t = blk[0]
        n = int(np.searchsorted(t, lim, "left"))
        if last < _INF:
            n = min(n, int(np.searchsorted(t, last, "right")))
        if cut is not None and n:
            ct, cs = cut
            lo = int(np.searchsorted(t[:n], ct, "left"))
            hi = int(np.searchsorted(t[:n], ct, "right"))
            n = min(n, lo + int(np.searchsorted(blk[1][lo:hi], cs, "left")))
        return n

    def _add_rows(self, ts, seqs, nodes, dsts, nbs, msgs) -> None:
        """Merge rows given as columns (see :meth:`_taker`), in any
        order, into the block."""
        self._tables()
        at = self._idx.__getitem__
        cols = [
            np.array(ts, np.float64),
            np.array(seqs, np.int64),
            np.fromiter(map(at, nodes), np.int64, len(nodes)),
            np.fromiter(map(at, dsts), np.int64, len(dsts)),
            np.array(nbs, np.float64),
            np.fromiter(msgs, object, len(msgs)),
        ]
        blk = self._blk
        if blk is not None:
            for i, old in enumerate(blk):
                cols[i] = np.concatenate((old, cols[i]))
        order = np.lexsort((cols[1], cols[0]))
        for i, col in enumerate(cols):
            cols[i] = col[order]      # one column copy alive at a time
        self._set_block(tuple(cols))

    def _unblock(self, k: int) -> None:
        """Hand the first ``k`` block rows to the engine as hop events."""
        if not k:
            return
        blk = self._blk
        sim = self.sim
        buckets = sim._buckets
        times = sim._times
        hop = self.net._hop
        names = self._names
        t, seq, node, _d, _b, msg = (c[:k] for c in blk)
        for time, s, nd, m in zip(t.tolist(), seq.tolist(), node.tolist(), msg.tolist()):
            entry = [time, 1, s, hop, (m, names[nd])]
            b = buckets.get(time)
            if b is None:
                buckets[time] = entry
                heappush(times, time)
            elif b.__class__ is deque:
                if s > b[-1][2]:
                    b.append(entry)
                else:
                    merged = sorted((*b, entry), key=_seq_of)
                    b.clear()
                    b.extend(merged)
            else:
                buckets[time] = deque(sorted((b, entry), key=_seq_of))
        self._set_block(tuple(c[k:] for c in blk))

    # ------------------------------------------------------------------
    # Vector windows
    # ------------------------------------------------------------------
    def _vector(self, n: int, window: bool, stoppable: bool) -> int:
        """Run the first ``n`` block rows as one window."""
        sim = self.sim
        self._tables()
        blk = self._blk
        cols = tuple(c[:n] for c in blk)
        t, seq, node, dst, nb, _msg = cols
        xp = np.flatnonzero(node != dst)
        xn = node[xp]
        try:
            nxt = self._routes(xn, dst[xp])
            li = self._index.link_ids(xn, nxt)
        except (ValueError, KeyError):
            # Per event, the offending hop raises where it would.
            self._unblock(n)
            return 0
        total = float(nb[xp].sum())
        if self._dbh + total >= _HALF:
            self._sync()
        touched = np.unique(li)
        if total >= _HALF or not self._load(touched[~self._pend[touched]]):
            self._unblock(n)        # a sum would not be an exact integer
            return 0
        self._set_block(tuple(c[n:] for c in blk))
        if not self.dirty:
            self.dirty = True
            self.net.topology._read_hooks.append(self.settle)
        scratch = self._scratch
        scratch[touched] = self._busy[touched]
        fin = chain_links(li, t[xp], nb[xp] / self._rate[li], seq[xp], scratch)

        w = _Window()
        w.cols = cols
        w.xp = xp
        w.li = li
        w.nxt = nxt
        w.fin = fin
        w.arr = fin + self._lat[li]
        w.base = base = sim._seq
        w.t_last = float(t[-1])
        w.cb_pos = []
        w.cb_extra = []
        w.settled = False
        dp = np.flatnonzero(node == dst)
        if dp.size:
            cut = self._deliver(w, dp, window, stoppable)
            if cut is not None:
                return cut + 1
        self._finish(w, None)
        sim.now = w.t_last
        sim._seq = base + xp.size + (w.cb_extra[-1] if w.cb_extra else 0)
        return n

    def _deliver(self, w: _Window, dp: np.ndarray, window: bool, stoppable: bool):
        """Run the window's delivery callbacks in row order; return the
        position the window was cut after (None: it ran to the end)."""
        sim = self.sim
        names = self._names
        dcb = self.net._deliver_cb
        t, _s, node, _d, _b, msg = w.cols
        base = w.base
        extra = 0
        cb_pos = w.cb_pos
        cb_extra = w.cb_extra
        self.active = w
        try:
            for p, tp, nd, m, xr in zip(
                dp.tolist(), t[dp].tolist(), node[dp].tolist(), msg[dp].tolist(),
                np.searchsorted(w.xp, dp).tolist(),
            ):
                cb = dcb.get((names[nd], None))
                if cb is None:
                    continue
                w.pos = p
                w.xr = xr
                s0 = base + xr + extra
                sim.now = tp
                sim._seq = s0
                cb(m, tp)
                if w.settled:
                    return p
                used = sim._seq - s0
                if used:
                    extra += used
                    cb_pos.append(p)
                    cb_extra.append(extra)
                    head = sim._head()
                    if head is not None and head[0] <= w.t_last:
                        self.settle()   # an event inside the window
                        return p
                if (stoppable and sim.stop_requested) or (
                    window and sim.local_bound <= tp
                ):
                    self.settle()
                    return p
        except BaseException:
            if self.active is w:
                self.settle()
            raise
        self.active = None
        return None

    def _finish(self, w: _Window, cut: int | None) -> None:
        """Commit the window's transmissions up to ``cut`` (all when
        None), queue their children and requeue the rows after ``cut``."""
        hi = w.xp.size if cut is None else w.xr
        blk = self._blk
        if hi:
            xs = w.xp[:hi]
            _t, _s, _n, dst, nb, msg = w.cols
            self._defer(w.li[:hi], nb[xs], w.fin[:hi])
            cseq = w.base + np.arange(hi, dtype=np.int64)
            if w.cb_pos:
                extra = np.concatenate(([0], w.cb_extra))
                cseq += extra[np.searchsorted(w.cb_pos, xs)]
            arr = w.arr[:hi]
            order = np.lexsort((cseq, arr))
            child = tuple(
                c[order] for c in (arr, cseq, w.nxt[:hi], dst[xs], nb[xs], msg[xs])
            )
            blk = _merge_after(blk, child)
        if cut is not None and cut + 1 < w.cols[0].size:
            rest = tuple(c[cut + 1:] for c in w.cols)
            blk = rest if blk is None else tuple(
                np.concatenate((a, b)) for a, b in zip(rest, blk)
            )
        self._set_block(blk)

    def _load(self, fresh: np.ndarray) -> bool:
        """Read ``busy_until`` of links without deferred state; False if
        a byte total they would defer onto (the link's, its ``per_link``
        entry or the global one) is not an integer below 2**52."""
        links = self._links
        keys = self._keys
        traffic = self.net._traffic
        per_link = traffic.per_link
        busy = self._busy
        v = traffic.bytes_hops
        if not (v % 1.0 == 0.0 and v < _HALF):
            return False
        for lid in fresh.tolist():
            link = links[lid]
            v = link.bytes_carried
            p = per_link.get(keys[lid], 0.0)
            if not (v % 1.0 == 0.0 and p % 1.0 == 0.0 and v < _HALF and p < _HALF):
                return False
            busy[lid] = link.busy_until
        return True

    def _defer(self, li: np.ndarray, nb: np.ndarray, fin: np.ndarray) -> None:
        """Account transmissions (processing order) to the deferred
        state: each link's last finish time, integer byte and message
        sums, and newly touched links in first-touch order."""
        np.maximum.at(self._busy, li, fin)
        np.add.at(self._dbytes, li, nb)
        np.add.at(self._dmsgs, li, 1)
        uniq, first = np.unique(li, return_index=True)
        fresh = ~self._pend[uniq]
        if fresh.any():
            fresh = uniq[fresh][np.argsort(first[fresh])]
            self._pend[fresh] = True
            self._order.append(fresh)
        self._dbh += float(nb.sum())
        self._dn += li.size

    def _sync(self) -> None:
        """Write the deferred state to the ``Link`` objects and the
        global traffic statistics.  Every total was an integer below
        2**52 when its link was first deferred, and the deltas sum
        integers below 2**52, so each sum is exact: the value a
        row-by-row run leaves.  ``per_link`` fills in first-touch order,
        as it does row by row."""
        if self._index is None or not self._order:
            return
        ids = np.concatenate(self._order)
        self._order = []
        links = self._links
        keys = self._keys
        traffic = self.net._traffic
        per_link = traffic.per_link
        for lid, b, d, m in zip(
            ids.tolist(), self._busy[ids].tolist(), self._dbytes[ids].tolist(),
            self._dmsgs[ids].tolist(),
        ):
            link = links[lid]
            link.busy_until = b
            link.bytes_carried += d
            link.messages_carried += m
            key = keys[lid]
            per_link[key] = per_link.get(key, 0.0) + d
        traffic.bytes_hops += self._dbh
        traffic.messages += self._dn
        self._pend[ids] = False
        self._dbytes[ids] = 0.0
        self._dmsgs[ids] = 0
        self._dbh = 0.0
        self._dn = 0


def _merge_after(blk: tuple | None, new: tuple) -> tuple:
    """Merge ``new`` rows (sorted, every seq above ``blk``'s) into the
    sorted block ``blk``: ties in time keep ``blk``'s rows first."""
    if blk is None:
        return new
    t = blk[0]
    k = new[0].size
    at = np.searchsorted(t, new[0], "right") + np.arange(k)
    total = t.size + k
    mine = np.zeros(total, np.bool_)
    mine[at] = True
    rest = ~mine
    out = []
    for old, add in zip(blk, new):
        col = np.empty(total, old.dtype)
        col[at] = add
        col[rest] = old
        out.append(col)
    return tuple(out)
