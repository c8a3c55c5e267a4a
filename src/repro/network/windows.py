"""Exact FIFO hop windows for the sequential network simulator.

Under FIFO arbitration with no faults armed and a pure router, a hop
event does three things: route the message one hop, serialize it
behind its link's ``busy_until``, and schedule the arrival one link
later.  Every link is at least ``L`` (the minimum link latency) long,
so a hop processed at ``t >= T`` schedules its child no earlier than
``T + L``: all hop events in ``[T, T + L)`` are independent of each
other except through the FIFO order on shared links.
:class:`HopRows` exploits that.  It holds hop *rows* keyed by the
engine's own ``(time, 1, seq)`` and is attached to the engine as its
row source (``Simulator._rows``), so the engine interleaves the rows
with its other events exactly.

Rows come from two places.  A plain hop (an untagged message) sent
while the engine is idle — no run loop on the stack — becomes a row at
once, with the ``seq`` its engine event would have drawn; such ``seq``
numbers need not be contiguous, since events scheduled between the
sends take theirs.  Fewer than :data:`MIN_VECTOR_ROWS` of them go back
to the engine as plain hop events instead.  The other rows are made by
windows: their children, and the hop events (sent from callbacks during
a run) a window takes from the engine.

A *window* starts at the earliest row or event ``T`` and takes every
hop before both ``T + L`` and the first engine entry a window may not
take (any event that is not a plain hop).  When it holds at least
:data:`MIN_VECTOR_ROWS` hops, the hop events it covers move from the
engine into the rows, the rows are routed with :class:`VectorRoutes`,
each link's rows are serialized in ``(time, seq)`` order with
:func:`chain_links`, and the children get ``seq`` numbers in
processing order.  Deliveries run their callbacks in row order with
``sim.now`` and the engine's seq counter set where the per-event loop
would have them.  A narrower window hands its rows back to the engine
as plain hop events, so ``NetworkSimulator._hop`` in the engine loop
stays the only per-event path.  Rows are kept as sorted runs, one per source (see
:class:`HopRows`): a window sorts only the rows it takes, so it costs
O(its rows + live runs) however many rows are queued behind it.

Callback contract.  A window writes the ``Link`` fields and the traffic
statistics when it ends.  Inside a delivery callback, reading them
through ``net.traffic``, ``net.flow_stats``, ``net.traffic_extra``,
``topology.link`` or ``topology.links`` — or calling into the engine,
or changing flows, weights, faults, routes or rates, or
scheduling anything at or before the window's last row — *settles* the
window: every row before the current one is committed, the rows after
it go back to the rows, and the window ends after the current row.  A
``Link`` object held from before the run is only current outside
callbacks.

Byte counts are whole (``NetworkSimulator.send`` rejects any other
size), so a window defers its byte sums in int64 columns and adds them
to the ``Link`` and traffic counters when it ends: exact, in any order
of addition, below 2**63 bytes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter, itemgetter

import numpy as np

from repro.network.routing import mix64_np
from repro.network.topology import FatTreeTopology, NodeId, Topology

_INF = float("inf")
#: Windows with fewer hops run as engine events: the numpy kernel's
#: fixed cost (a few dozen array calls) pays off only on wider windows.
MIN_VECTOR_ROWS = 256
#: A window takes at most this many rows (a prefix of a wider one is a
#: window too): wider windows gain little, and their arrays grow with
#: them.
MAX_VECTOR_ROWS = 16384
#: Live runs past this many are sorted into one: a window visits every
#: run, so their count bounds its fixed cost.
MAX_RUNS = 64


@dataclass
class FabricIndex:
    """Flat integer/float views of one topology.

    Node indices follow ``topology.hosts + topology.switches`` order;
    link indices follow ``topology.links()`` order, so windows address
    nodes and links by index instead of name.
    """

    names: list[NodeId]
    idx: dict[NodeId, int]
    link_keys: list[tuple[NodeId, NodeId]]
    link_src: np.ndarray  # int64 node index per directed link
    link_dst: np.ndarray
    link_rate: np.ndarray  # float64 bytes/ns per link
    link_latency: np.ndarray  # float64 ns per link
    # Sorted composite key table for vectorized (src, dst) -> link id.
    _lookup_keys: np.ndarray = field(repr=False)
    _lookup_perm: np.ndarray = field(repr=False)
    # Fat-tree structure for closed-form vectorized up-down routing
    # (None on other families, which route per distinct pair).
    kind: np.ndarray | None = None  # 0 host / 1 leaf / 2 spine
    num: np.ndarray | None = None  # numeric suffix of each node name
    host_leaf_node: np.ndarray | None = None  # host idx -> leaf node idx
    spine_node: np.ndarray | None = None  # spine number -> node idx
    n_spines: int = 0

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    @property
    def n_links(self) -> int:
        return len(self.link_keys)

    def link_ids(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized directed-link lookup by endpoint node indices."""
        composite = src * np.int64(self.n_nodes) + dst
        pos = np.searchsorted(self._lookup_keys, composite)
        if pos.size and (
            (pos >= self._lookup_keys.size).any()
            or (self._lookup_keys[np.minimum(pos, self._lookup_keys.size - 1)]
                != composite).any()
        ):
            raise KeyError("no such link in index")
        return self._lookup_perm[pos]


def build_index(topology: Topology) -> FabricIndex:
    """Build the flat numpy tables for one topology."""
    names = list(topology.hosts) + list(topology.switches)
    idx = {name: i for i, name in enumerate(names)}
    n = len(names)
    links = topology.links()
    link_keys = [link.key for link in links]
    link_src = np.fromiter((idx[a] for a, _ in link_keys), np.int64, len(link_keys))
    link_dst = np.fromiter((idx[b] for _, b in link_keys), np.int64, len(link_keys))
    link_rate = np.fromiter((ln.bytes_per_ns for ln in links), np.float64, len(links))
    link_latency = np.fromiter(
        (ln.latency_ns for ln in links), np.float64, len(links)
    )
    composite = link_src * np.int64(n) + link_dst
    perm = np.argsort(composite, kind="stable")
    index = FabricIndex(
        names=names,
        idx=idx,
        link_keys=link_keys,
        link_src=link_src,
        link_dst=link_dst,
        link_rate=link_rate,
        link_latency=link_latency,
        _lookup_keys=composite[perm],
        _lookup_perm=perm.astype(np.int64),
    )
    if isinstance(topology, FatTreeTopology):
        kind = np.zeros(n, dtype=np.int64)
        num = np.zeros(n, dtype=np.int64)
        host_leaf_node = np.zeros(n, dtype=np.int64)
        spine_node = np.zeros(topology.n_spines, dtype=np.int64)
        for i, name in enumerate(names):
            value = int(name[1:])
            num[i] = value
            if name[0] == "l":
                kind[i] = 1
            elif name[0] == "s":
                kind[i] = 2
                spine_node[value] = i
        for i, name in enumerate(names):
            if kind[i] == 0:
                host_leaf_node[i] = idx[topology.leaf_of(name)]
        index.kind = kind
        index.num = num
        index.host_leaf_node = host_leaf_node
        index.spine_node = spine_node
        index.n_spines = topology.n_spines
    return index


def updown_next_hop_vec(
    index: FabricIndex, node: np.ndarray, dst: np.ndarray, salt: int
) -> np.ndarray:
    """Vectorized up-down next hop over fat-tree structure arrays.

    Bit-identical to ``UpDownRouter.next_hop`` — both sides compute the
    spine pick with the same splitmix64 key (see ``routing.mix64``).
    ``node != dst`` rows only (deliveries are split off by the caller).
    """
    kind, num = index.kind, index.num
    out = np.empty(node.shape, dtype=np.int64)
    nk = kind[node]
    dk = kind[dst]
    # Hosts climb to their leaf.
    mask = nk == 0
    out[mask] = index.host_leaf_node[node[mask]]
    # Spines descend to the destination('s) leaf.
    mask = nk == 2
    if mask.any():
        d = dst[mask]
        out[mask] = np.where(dk[mask] == 0, index.host_leaf_node[d], d)
    # Leaves: descend locally, jump straight to a spine destination, or
    # cross the salted spine pick.
    mask = nk == 1
    if mask.any():
        n_ = node[mask]
        d = dst[mask]
        dk_ = dk[mask]
        dleaf = np.where(dk_ == 0, index.host_leaf_node[d], d)
        key = (
            (num[n_].astype(np.uint64) << np.uint64(34))
            ^ ((dk_ != 0).astype(np.uint64) << np.uint64(33))
            ^ num[d].astype(np.uint64)
            ^ np.uint64(salt)
        )
        spine = index.spine_node[
            (mix64_np(key) % np.uint64(index.n_spines)).astype(np.int64)
        ]
        local = np.where(dleaf == n_, d, spine)
        out[mask] = np.where(dk_ == 2, d, local)
    return out


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
_src = attrgetter("src")
_dst = attrgetter("dst")
_nbytes = attrgetter("nbytes")


class HopRows:
    """A network's hop rows and their window executor.

    Rows are held in *runs*: column tuples (time, seq, node, dst,
    nbytes, message) sorted by ``(time, seq)``.  Each source of rows
    adds its own run: the hops sent while the engine was idle
    (:meth:`push`, folded in at the next engine access), each window's
    children, the rows a cut window put back, and the hop events a
    window took from the engine.  A window takes, from every run, the
    leading rows before its bound and sorts just those into ``_blk``;
    no run is ever merged with the others (unless more than
    :data:`MAX_RUNS` are live), so a window costs O(its rows + live
    runs), not O(queued rows).  Only hops of untagged messages become
    rows.  Flat tables (node and link indices, rates, latencies) are
    built by the first window or wide idle injection, not with the
    simulator.
    """

    def __init__(self, net) -> None:
        self.net = net
        self.sim = net.sim
        #: The runs (never empty ones), the index of the one holding the
        #: head row, and the window being dispatched (None outside one).
        self._runs: list[tuple] = []
        self._head_run = -1
        self._blk: tuple | None = None
        #: Hops pushed while idle and not yet folded in: times, seqs and
        #: messages, in push (seq) order.
        self._pt: list = []
        self._ps: list = []
        self._pm: list = []
        #: Head row key (``_INF`` when empty), read by the engine.
        self.head_t = _INF
        self.head_seq = 0
        #: The window whose callbacks are running (None outside one).
        self.active: _Window | None = None
        #: A window is running, deferred state is pending or idle hops
        #: wait to be folded in: readers must :meth:`settle` first.
        self.dirty = False
        #: Hops run inside vector windows so far.
        self.windowed = 0
        self._lookahead_ns: float | None = None
        self._index = None
        self._routes: VectorRoutes | None = None

    # ------------------------------------------------------------------
    # Queue interface (engine side)
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return sum(run[0].size for run in self._runs) + len(self._pt)

    def queued(self):
        hop = self.net._hop
        names = self._names
        for run in self._runs:
            t, seq, node, _d, _b, msg = run
            for row in zip(t.tolist(), seq.tolist(), node.tolist(), msg.tolist()):
                yield (row[0], 1, row[1], hop, (row[3], names[row[2]]))

    def push(self, t: float, msg) -> None:
        """Queue the first hop of ``msg``, sent at ``t`` while the engine
        is idle: the row takes its seq now, as an engine event would,
        and the rows pushed so far become a run at the next engine
        access (:meth:`settle`)."""
        sim = self.sim
        s = sim._seq
        sim._seq = s + 1
        self._pt.append(t)
        self._ps.append(s)
        self._pm.append(msg)
        if t < self.head_t:
            self.head_t = t
            self.head_seq = s
        if not self.dirty:
            self.dirty = True
            self.net.topology._read_hooks.append(self.settle)

    def step(self) -> None:
        """Hand the head row to the engine (which then runs it)."""
        ks = [0] * len(self._runs)
        ks[self._head_run] = 1
        self._take(ks, 1)
        self._unblock()

    def run(self, stop: float, stoppable: bool) -> int:
        """Run the window that starts at the head row (which comes
        before the engine's next entry and within ``stop``); return how
        many rows ran.  A narrow window's rows go back to the engine
        instead (0 ran, the engine runs them next)."""
        if not self._vector_ok():
            for run in self._runs:
                self._unblock(run)
            self._runs = []
            self._set_head()
            return 0
        ks = self._gather(stop)
        n = self._take(ks, MAX_VECTOR_ROWS)
        if sum(ks) < MIN_VECTOR_ROWS:
            self._unblock()
            return 0
        return self._vector(n, stoppable)

    def settle(self) -> None:
        """Bring everything to the per-event state: end a running window
        after its current row (commit the rows before it, requeue the
        rows after it), write the deferred link and traffic state and
        fold in the hops pushed while idle."""
        self.dirty = False
        self.net.topology._read_hooks.remove(self.settle)
        w = self.active
        if w is not None:
            self.active = None
            w.settled = True
            self._finish(w, w.pos)
        self._sync()
        if self._pt:
            self._flush()

    # ------------------------------------------------------------------
    # Eligibility, tables, run bookkeeping
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
            net.fast_path and net.faults is None and net.router.cacheable
            and None not in net._dead_flows and self._lookahead() > 0.0
        )

    def _tables(self) -> None:
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
            self._dbytes = np.zeros(n, np.int64)
            self._dmsgs = np.zeros(n, np.int64)
            self._order: list = []
            self._dbh = 0
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

    def _set_head(self) -> None:
        t, s, at = _INF, 0, -1
        for i, run in enumerate(self._runs):
            rt = run[0][0]
            if rt < t or (rt == t and run[1][0] < s):
                t, s, at = rt, run[1][0], i
        self.head_t, self.head_seq, self._head_run = float(t), int(s), at

    def _add_run(self, run: tuple) -> None:
        """Add a sorted run; past :data:`MAX_RUNS` live runs, sort them
        all into one (so a window visits at most that many)."""
        runs = self._runs
        runs.append(run)
        if len(runs) > MAX_RUNS:
            self._runs = [_sorted(tuple(np.concatenate(c) for c in zip(*runs)))]

    def _flush(self) -> None:
        """Fold the hops pushed while idle into the rows as one run.
        Fewer than :data:`MIN_VECTOR_ROWS` of them, or any while windows
        cannot run, go to the engine as plain hop events instead, with
        no numpy work and no tables built."""
        ts, seqs, msgs = self._pt, self._ps, self._pm
        self._pt, self._ps, self._pm = [], [], []
        n = len(ts)
        if n < MIN_VECTOR_ROWS or not self._vector_ok():
            self._requeue(zip(ts, seqs, msgs, map(_src, msgs)))
        else:
            self._tables()
            at = self._idx.__getitem__
            self._add_run(_sorted((
                np.array(ts, np.float64),
                np.array(seqs, np.int64),
                np.fromiter(map(at, map(_src, msgs)), np.int64, n),
                np.fromiter(map(at, map(_dst, msgs)), np.int64, n),
                np.fromiter(map(_nbytes, msgs), np.int64, n),
                np.fromiter(msgs, object, n),
            )))
        self._set_head()

    def _take(self, ks: list, cap: int) -> int:
        """Move the ``cap`` earliest of the first ``ks[i]`` rows of every
        run ``i`` into the window block ``_blk``, sorted; return how
        many moved."""
        runs = self._runs
        parts = []
        for i, k in enumerate(ks):
            k = min(k, cap)           # rows past ``cap`` cannot be taken
            if k:
                run = runs[i]
                parts.append(tuple(c[:k] for c in run))
                runs[i] = None if k == run[0].size else tuple(c[k:] for c in run)
        self._runs = [run for run in runs if run is not None]
        if len(parts) == 1:
            blk = parts[0]
        else:
            blk = _sorted(tuple(np.concatenate(c) for c in zip(*parts)))
        n = blk[0].size
        if n > cap:                   # the rest are a run again
            self._add_run(tuple(c[cap:] for c in blk))
            blk = tuple(c[:cap] for c in blk)
            n = cap
        self._blk = blk
        self._set_head()
        return n

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

    def _gather(self, stop: float) -> list:
        """Size the window that starts at the head row: the leading rows
        of every run, plus the engine's hop events it covers, up to the
        first engine entry a window may not take.  When that is at
        least :data:`MIN_VECTOR_ROWS`, move those events into a run of
        their own.  Returns how many rows of each run the window
        holds."""
        sim = self.sim
        lim = self.head_t + self._lookahead()    # exclusive
        last = stop                        # inclusive (``run(until)``)
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
                if not take(e):
                    cut = (t, e[2])
                    break
            if cut is not None:
                break
        ks = [_prefix(run, lim, last, cut) for run in self._runs]
        k = len(cols[0])
        if not k or sum(ks) + k < MIN_VECTOR_ROWS:
            return ks
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
        return ks + [k]

    def _taker(self):
        """Columns (time, seq, node, dst, nbytes, message; nodes by
        name) and ``take(entry)``: whether a window may take engine
        ``entry`` — a hop of an untagged message — appending it to the
        columns if so."""
        hop = self.net._hop
        cols = ts, seqs, nodes, dsts, nbs, msgs = [], [], [], [], [], []

        def take(e) -> bool:
            if e[3] != hop:
                return False
            m, node = e[4]
            if m.flow is not None:
                return False
            ts.append(e[0])
            seqs.append(e[2])
            nodes.append(node)
            dsts.append(m.dst)
            nbs.append(m.nbytes)
            msgs.append(m)
            return True

        return cols, take

    def _add_rows(self, ts, seqs, nodes, dsts, nbs, msgs) -> None:
        """Add rows given as columns (see :meth:`_taker`), in any order,
        as the last run (never sorted into the others: the caller holds
        a count per run)."""
        self._tables()
        at = self._idx.__getitem__
        self._runs.append(_sorted((
            np.array(ts, np.float64),
            np.array(seqs, np.int64),
            np.fromiter(map(at, nodes), np.int64, len(nodes)),
            np.fromiter(map(at, dsts), np.int64, len(dsts)),
            np.array(nbs, np.int64),
            np.fromiter(msgs, object, len(msgs)),
        )))
        self._set_head()

    def _unblock(self, run: tuple | None = None) -> None:
        """Hand a run's rows (the window block's by default) to the
        engine as hop events."""
        if run is None:
            run, self._blk = self._blk, None
        t, seq, node, _d, _b, msg = run
        self._requeue(zip(
            t.tolist(), seq.tolist(), msg.tolist(),
            map(self._names.__getitem__, node.tolist()),
        ))

    def _requeue(self, rows) -> None:
        """Queue ``(time, seq, message, node)`` rows on the engine as hop
        events, each in seq order within its instant's bucket."""
        sim = self.sim
        buckets = sim._buckets
        times = sim._times
        hop = self.net._hop
        for time, s, m, node in rows:
            entry = [time, 1, s, hop, (m, node)]
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

    # ------------------------------------------------------------------
    # Vector windows
    # ------------------------------------------------------------------
    def _vector(self, n: int, stoppable: bool) -> int:
        """Run the ``n`` rows of the window block as one window."""
        sim = self.sim
        self._tables()
        cols = self._blk
        t, seq, node, dst, nb, _msg = cols
        xp = np.flatnonzero(node != dst)
        xn = node[xp]
        try:
            nxt = self._routes(xn, dst[xp])
            li = self._index.link_ids(xn, nxt)
        except (ValueError, KeyError):
            # Per event, the offending hop raises where it would.
            self._unblock()
            return 0
        touched = np.unique(li)
        self._load(touched[~self._pend[touched]])
        self._blk = None
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
            cut = self._deliver(w, dp, stoppable)
            if cut is not None:
                self.windowed += cut + 1
                return cut + 1
        self._finish(w, None)
        sim.now = w.t_last
        sim._seq = base + xp.size + (w.cb_extra[-1] if w.cb_extra else 0)
        self.windowed += n
        return n

    def _deliver(self, w: _Window, dp: np.ndarray, stoppable: bool):
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
                if stoppable and sim.stop_requested:
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
        None), add their children as a run and put the rows after
        ``cut`` back as another."""
        hi = w.xp.size if cut is None else w.xr
        if hi:
            xs = w.xp[:hi]
            _t, _s, _n, dst, nb, msg = w.cols
            self._defer(w.li[:hi], nb[xs], w.fin[:hi])
            cseq = w.base + np.arange(hi, dtype=np.int64)
            if w.cb_pos:
                extra = np.concatenate(([0], w.cb_extra))
                cseq += extra[np.searchsorted(w.cb_pos, xs)]
            self._add_run(_sorted(
                (w.arr[:hi], cseq, w.nxt[:hi], dst[xs], nb[xs], msg[xs])
            ))
        if cut is not None and cut + 1 < w.cols[0].size:
            self._add_run(tuple(c[cut + 1:] for c in w.cols))
        self._set_head()

    def _load(self, fresh: np.ndarray) -> None:
        """Read ``busy_until`` of links without deferred state."""
        links = self._links
        busy = self._busy
        for lid in fresh.tolist():
            busy[lid] = links[lid].busy_until

    def _defer(self, li: np.ndarray, nb: np.ndarray, fin: np.ndarray) -> None:
        """Account transmissions (processing order) to the deferred
        state: each link's last finish time, byte and message sums, and
        newly touched links in first-touch order."""
        np.maximum.at(self._busy, li, fin)
        np.add.at(self._dbytes, li, nb)
        np.add.at(self._dmsgs, li, 1)
        uniq, first = np.unique(li, return_index=True)
        fresh = ~self._pend[uniq]
        if fresh.any():
            fresh = uniq[fresh][np.argsort(first[fresh])]
            self._pend[fresh] = True
            self._order.append(fresh)
        self._dbh += int(nb.sum())
        self._dn += li.size

    def _sync(self) -> None:
        """Write the deferred state to the ``Link`` objects and the
        global traffic statistics.  Integer sums are exact, so each total
        is the value a row-by-row run leaves; ``per_link`` fills in
        first-touch order, as it does row by row."""
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
            per_link[key] = per_link.get(key, 0) + d
        traffic.bytes_hops += self._dbh
        traffic.messages += self._dn
        self._pend[ids] = False
        self._dbytes[ids] = 0
        self._dmsgs[ids] = 0
        self._dbh = 0
        self._dn = 0


def _sorted(cols: tuple) -> tuple:
    """Rows given as columns, sorted by ``(time, seq)``.  A stable sort
    by time (fast on rows made of sorted runs) is that order unless
    rows at equal times are out of seq order."""
    t, seq = cols[0], cols[1]
    order = np.argsort(t, kind="stable")
    ts = t[order]
    tie = ts[1:] == ts[:-1]
    if tie.any():
        ss = seq[order]
        if (ss[1:][tie] < ss[:-1][tie]).any():
            order = np.lexsort((seq, t))
    return tuple(c[order] for c in cols)


def _prefix(run: tuple, lim: float, last: float, cut) -> int:
    """How many leading rows of ``run`` come before ``lim``, at or
    before ``last`` and before the engine entry keyed ``cut``."""
    t = run[0]
    n = int(np.searchsorted(t, lim, "left"))
    if last < _INF:
        n = min(n, int(np.searchsorted(t, last, "right")))
    if cut is not None and n:
        ct, cs = cut
        lo = int(np.searchsorted(t[:n], ct, "left"))
        hi = int(np.searchsorted(t[:n], ct, "right"))
        n = min(n, lo + int(np.searchsorted(run[1][lo:hi], cs, "left")))
    return n
