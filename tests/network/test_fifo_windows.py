"""Differential tests: FIFO hop windows vs the per-event network loop.

Every scenario runs twice on fresh simulators: once per event
(``REPRO_FASTPATH=0``, the oracle) and once on the window path
(:mod:`repro.network.windows`).  The runs must agree exactly: delivery
order and times, what callbacks observed mid-run, ``events_processed``,
``sim.now``, every ``Link`` field, and the traffic statistics globally
and per flow, ``per_link`` tables included (in insertion order).
Windows take only plain hops (untagged); flow-tagged and burst hops
run per event between them, so the mixed scenarios check the boundary
between the two paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.simulator import Message, NetworkSimulator
from repro.network.topology import FatTreeTopology
from repro.network.windows import HopRows

FLOWS = ("f0", "f1", "f2")


@pytest.fixture
def vector_windows(monkeypatch):
    """Count the vector windows a run opens."""
    calls = []
    vector = HopRows._vector

    def counted(self, n, *args):
        calls.append(n)
        return vector(self, n, *args)

    monkeypatch.setattr(HopRows, "_vector", counted)
    return calls


def _net(monkeypatch, fast: bool, router="updown", topo_kw=None):
    monkeypatch.setenv("REPRO_FASTPATH", "1" if fast else "0")
    topo = FatTreeTopology(**(topo_kw or dict(
        n_hosts=256, hosts_per_leaf=16, n_spines=8,
    )))
    net = NetworkSimulator(topo, router=router)
    assert (net._rows is not None) == fast
    return topo, net


def _stats(stats) -> tuple:
    return (
        stats.bytes_hops, stats.messages, list(stats.per_link.items()),
        stats.drops, stats.duplicates, stats.retransmits,
    )


def _observe(topo, net, log) -> dict:
    return {
        "log": log,
        "events": net.sim.events_processed,
        "now": net.sim.now,
        "links": [
            (ln.key, ln.busy_until, ln.bytes_carried, ln.messages_carried,
             ln.fault, ln.failed)
            for ln in topo.links()
        ],
        "traffic": _stats(net.traffic),
        "flows": {f: _stats(net._flow_traffic[f]) for f in sorted(net._flow_traffic)},
    }


def _both(monkeypatch, scenario, **kw) -> tuple[dict, dict]:
    ref = scenario(*_net(monkeypatch, False, **kw))
    new = scenario(*_net(monkeypatch, True, **kw))
    return ref, new


def _storm(seed: int, varied: bool = False, flows: bool = False,
           per_host: int = 4):
    """A random storm.  With ``varied`` or ``flows``, a third of the
    messages carry varied sizes or flow tags (windows leave flow-tagged
    hops to the per-event loop) and are sent in a second wave; a third
    wave of plain messages then meets the running totals the second
    left."""
    mixed = varied or flows

    def scenario(topo, net):
        rng = np.random.default_rng(seed)
        hosts = topo.hosts
        n = len(hosts)
        log = []

        def sink(msg, t):
            log.append((msg.tag, msg.dst, t))

        for h in hosts:
            net.on_deliver(h, sink)
        m = per_host * n
        src = np.repeat(np.arange(n), per_host)
        dst = rng.integers(0, n - 1, size=m)
        dst += dst >= src
        size = rng.integers(64, 8192, m) if varied else np.full(m, 4096)
        for i in range(m):
            wave = i % 3 if mixed else 0
            odd = wave == 1
            flow = FLOWS[i % 3] if flows and odd else None
            nbytes = int(size[i]) if odd else 4096
            net.send(
                Message(hosts[src[i]], hosts[dst[i]], nbytes, i, flow=flow),
                at=3.0 * (i % 97) + 20000.0 * wave,
            )
        net.run()
        return _observe(topo, net, log)
    return scenario


@pytest.mark.parametrize("seed", [1, 2, 7, 11])
def test_storm_same_instant_ties(monkeypatch, vector_windows, seed):
    ref, new = _both(monkeypatch, _storm(seed))
    assert vector_windows, "the window path never ran a vector window"
    assert new == ref


def test_storm_varied_sizes_and_flows(monkeypatch, vector_windows):
    ref, new = _both(monkeypatch, _storm(3, varied=True, flows=True))
    assert vector_windows
    assert new == ref
    assert ref["flows"]


def test_windows_take_only_plain_hops(monkeypatch):
    """Flow-tagged and burst hops never enter a window."""
    seen = []
    vector = HopRows._vector

    def spy(self, n, *args):
        seen.extend(self._blk[5][:n].tolist())
        return vector(self, n, *args)

    monkeypatch.setattr(HopRows, "_vector", spy)
    _, net = _net(monkeypatch, True)
    _storm(3, varied=True, flows=True)(net.topology, net)
    assert seen
    assert all(m.flow is None for m in seen)


@pytest.mark.parametrize("router", ["shortest", "ecmp"])
def test_memoized_routers(monkeypatch, vector_windows, router):
    ref, new = _both(monkeypatch, _storm(5, flows=True, per_host=16), router=router,
                     topo_kw=dict(n_hosts=64, hosts_per_leaf=8, n_spines=4))
    assert vector_windows
    assert new == ref


def _busy_callbacks(topo, net):
    """Flows, bursts, an abandoned flow, equal-timestamp engine events,
    and callbacks that read state and send inside and past the window."""
    rng = np.random.default_rng(4)
    hosts = topo.hosts
    n = len(hosts)
    sim = net.sim
    log = []
    state = {"relays": 0}

    def reader(msg, t):
        log.append(("deliver", msg.tag, msg.dst, t, sim.now))
        k = msg.tag[1] if isinstance(msg.tag, tuple) else msg.tag
        if k % 5 == 0:
            stats = net.flow_stats(msg.flow)
            log.append(("flow", stats.bytes_hops, stats.messages,
                        len(stats.per_link), net.traffic.messages))
        if k % 7 == 0:
            src_leaf = topo.leaf_of(msg.src)
            link = topo.link(msg.src, src_leaf)
            log.append(("link", link.busy_until, link.bytes_carried,
                        link.messages_carried))
        if k % 11 == 0 and state["relays"] < 200:
            state["relays"] += 1
            # Inside the window (at now) and past it.
            dst = hosts[(hosts.index(msg.dst) + 17) % n]
            net.send(Message(msg.dst, dst, 1500.0, ("relay", k), flow=msg.flow), at=t)
            net.send(Message(msg.dst, dst, 700.0, ("late", k), flow=msg.flow),
                     at=t + 2000.0)
        if k % 13 == 0:
            log.append(("extra", net.traffic_extra(flow=msg.flow)["max_link_bytes"]))

    for h in hosts:
        net.on_deliver(h, reader, flow="f0")
        net.on_deliver(h, reader, flow="f1")
        net.on_deliver(h, reader)   # f2 falls back to the flow-None callback

    def tick(label, priority):
        log.append(("tick", label, priority, sim.now, net.traffic.bytes_hops))

    k = 0
    for step in range(6):
        at = 40.0 * step
        for i in range(n):
            if i == n // 2:
                # Between same-instant sends: half of them run first.
                sim.schedule_at(at, tick, "between", 1)
            for _ in range(2):
                dst = int(rng.integers(0, n - 1))
                dst += dst >= i
                net.send(Message(hosts[i], hosts[dst], 4096.0, ("one", k)), at=at)
                k += 1
        for i in range(0, n, 2):
            burst = []
            for _ in range(3):
                dst = int(rng.integers(0, n - 1))
                dst += dst >= i
                burst.append(Message(hosts[i], hosts[dst], 2048 + k % 3,
                                     ("burst", k), flow=FLOWS[k % 3]))
                k += 1
            net.send_burst(burst, at=at + 1.0)
        # Engine events at the same instants as the sends.
        sim.schedule_at(at, tick, "p0", 0, priority=0)
        sim.schedule_at(at, tick, "p1", 1)
        sim.schedule_at(at + 600.0, tick, "mid", 1)
    sim.schedule_at(900.0, lambda: net.abandon_flow("f1"))
    net.run()
    return _observe(topo, net, log)


def test_callbacks_flows_bursts_and_ticks(monkeypatch, vector_windows):
    ref, new = _both(monkeypatch, _busy_callbacks)
    assert vector_windows
    # A burst of three is one event on the fast path, three per event.
    assert new.pop("events") == ref.pop("events") - 2 * 6 * 128
    assert new == ref
    assert any(e[0] == "flow" for e in ref["log"])
    assert any(e[0] == "link" for e in ref["log"])
    assert any(e[0] == "deliver" and e[1][0] == "relay" for e in ref["log"])


def _queue(sim) -> list:
    """The pending events, keys and all (hop events by message tag)."""
    return sorted(
        (t, p, seq, getattr(args[0], "tag", None) if args else None)
        for t, p, seq, _cb, args in sim.queued()
    )


def _run_until_and_step(topo, net):
    """Partial runs: ``run(until)``, ``peek_time``, ``step``, ``pending``,
    and the queue's keys, with callbacks that take seq numbers without
    ending the window (sends and events past it)."""
    sim = net.sim
    log = []
    hosts = topo.hosts

    def sink(m, t):
        log.append((m.tag, t))
        if isinstance(m.tag, tuple) and m.tag[1] == 1:
            net.send(Message(m.dst, m.src, 100.0, ("back", m.tag)), at=t + 3000.0)
            sim.schedule_at(t + 5000.0, log.append, ("late", m.tag))

    for h in hosts:
        net.on_deliver(h, sink)
    for i, h in enumerate(hosts):
        for j in range(4):
            net.send(Message(h, hosts[(i * 7 + 3 + j) % len(hosts)], 3000.0, (i, j)),
                     at=float((i + j) % 5))
    for until in (300.0, 700.0, 1500.0, 1900.0):
        net.run(until=until)
        log.append(("until", sim.now, sim.peek_time(), sim.pending, _queue(sim)))
    for _ in range(25):
        sim.step()
    log.append(("stepped", sim.now, sim.peek_time()))
    net.run()
    return _observe(topo, net, log)


def _stoppable(topo, net):
    """``run_stoppable`` with callbacks that request a stop, engine
    events of priorities 0 to 2 at row instants, and deliveries at a
    host with no callback."""
    sim = net.sim
    hosts = topo.hosts
    log = []
    count = [0]

    def sink(msg, t):
        log.append((msg.tag, t))
        count[0] += 1
        if count[0] % 150 == 0:
            sim.stop_requested = True

    for h in hosts[1:]:
        net.on_deliver(h, sink)
    _dense_sends(net, hosts)
    for k in range(30):
        for priority in (0, 1, 2):
            sim.schedule_at(
                100.0 * k, lambda p=priority: log.append(("tick", p, sim.now)),
                priority=priority,
            )
    while sim.run_stoppable():
        log.append(("stopped", sim.now, sim.peek_time()))
    return _observe(topo, net, log)


def test_run_stoppable_and_priorities(monkeypatch, vector_windows):
    ref, new = _both(monkeypatch, _stoppable)
    assert vector_windows
    assert new == ref
    assert any(e[0] == "stopped" for e in ref["log"])


def _large_totals(topo, net):
    """Byte totals past 2**53, where float sums would round and depend
    on the order of addition: the windows' int64 sums must still equal
    the row-by-row ones."""
    nbytes = 2**50 + 1
    hosts = topo.hosts
    log = []
    for h in hosts:
        net.on_deliver(h, lambda m, t: log.append((m.tag, t)))
    # Two messages per host uplink (512 hops in all), each window as wide
    # as the minimum.
    for i, h in enumerate(hosts):
        for j in (1, 2):
            net.send(Message(h, hosts[i ^ j], nbytes, (i, j)))
    # The totals after the first window.
    net.sim.schedule_at(1.0, lambda: log.append(("tick", _stats(net.traffic))))
    net.run()
    return _observe(topo, net, log)


def test_large_integer_totals(monkeypatch, vector_windows):
    ref, new = _both(monkeypatch, _large_totals)
    assert vector_windows
    assert new == ref
    assert ref["traffic"][0] > 2**53 and type(new["traffic"][0]) is int


def test_partial_runs(monkeypatch, vector_windows):
    ref, new = _both(monkeypatch, _run_until_and_step)
    assert vector_windows
    assert new == ref


def _topology_changes(router):
    def scenario(topo, net):
        sim = net.sim
        hosts = topo.hosts
        log = []
        for h in hosts:
            net.on_deliver(h, lambda m, t: log.append((m.tag, t)))
        for r in range(3):
            for i, h in enumerate(hosts):
                for j in range(6):
                    net.send(Message(h, hosts[(i * 5 + 1 + r + j) % len(hosts)], 4096.0,
                                     (r, i, j)), at=1500.0 * r + (i % 4))
        sim.schedule_at(700.0, topo.set_link_rate, "l0", "s0", 40.0)
        sim.schedule_at(1200.0, topo.fail_link, "l1", "s1")
        sim.schedule_at(2600.0, topo.repair_link, "l1", "s1")
        net.run()
        out = _observe(topo, net, log)
        routes = net._rows._routes if net._rows is not None else None
        out["memos"] = (
            bool(net._next_hop_cache), bool(routes is not None and routes.memo),
        )
        return out
    return scenario


@pytest.mark.parametrize("router", ["shortest", "ecmp", "updown"])
def test_rate_change_and_fail_repair(monkeypatch, vector_windows, router):
    ref, new = _both(monkeypatch, _topology_changes(router), router=router,
                     topo_kw=dict(n_hosts=64, hosts_per_leaf=8, n_spines=4))
    assert vector_windows
    memos = new.pop("memos")
    ref.pop("memos")
    assert new == ref
    if router != "updown":    # up-down's closed form needs no memo
        # Each change cleared the memos; they filled again after it.
        assert memos == (True, True)


def test_memo_cleared_not_disabled_by_topology_events(monkeypatch):
    topo, net = _net(monkeypatch, True, router="shortest",
                     topo_kw=dict(n_hosts=16, hosts_per_leaf=4, n_spines=2))
    net.on_deliver("h9", lambda m, t: None)
    net.send(Message("h0", "h9", 100.0))
    net.run()
    assert net._next_hop_cache
    topo.set_link_rate("l0", "s0", 50.0)
    assert net._next_hop_cache == {}
    topo.fail_link("l0", "s0")
    topo.repair_link("l0", "s0")
    net.send(Message("h0", "h9", 100.0))
    net.run()
    assert net._next_hop_cache
    net.arm_faults()
    assert net._next_hop_cache is None
    topo.set_link_rate("l0", "s0", 100.0)
    assert net._next_hop_cache is None     # faults keep it off


def _storm_plus(extra_nbytes: float, dst: str = "h200"):
    """A storm wide enough for vector windows plus one odd message from
    a busy host, sent with the storm's first window."""
    def scenario(topo, net):
        hosts = topo.hosts
        log = []
        for h in hosts:
            net.on_deliver(h, lambda m, t: log.append((m.tag, t)))
        for i, h in enumerate(hosts):
            for j in (37, 61, 99, 140):
                net.send(Message(h, hosts[(i + j) % len(hosts)], 4096.0, (i, j)), at=0.0)
        err = None
        try:
            net.send(Message("h0", dst, extra_nbytes, "odd"), at=1.0)
        except ValueError as exc:
            err = str(exc)
        net.run()
        out = _observe(topo, net, log)
        out["err"] = err
        return out
    return scenario


def test_negative_size_raises_before_commit(monkeypatch, vector_windows):
    """A negative or fractional size raises at ``send``, before anything
    of it is committed."""
    for nbytes in (-1.0, 1000.5):
        vector_windows.clear()
        ref, new = _both(monkeypatch, _storm_plus(nbytes))
        assert vector_windows
        assert ref["err"] == new["err"]
        assert new["err"].startswith("message size must be non-negative")
        assert new == ref
        link = dict((k[0], k[1:]) for k in ref["links"])[("h0", "l0")]
        assert link[2] == 4            # only the storm messages committed


def test_zero_bytes_arrive_after_queue_and_latency(monkeypatch, vector_windows):
    ref, new = _both(monkeypatch, _storm_plus(0.0, dst="h1"))
    assert vector_windows
    assert new == ref
    # h0's uplink is busy with its four storm messages until
    # 4 x 4096 B / 12.5 B/ns; each hop then arrives at max(t, busy) + 0 +
    # latency (l0 -> h1 is idle then).
    busy = 0.0
    for _ in range(4):
        busy = busy + 4096.0 / 12.5
    at_leaf = max(1.0, busy) + 0.0 / 12.5 + 250.0
    assert dict(ref["log"])["odd"] == at_leaf + 0.0 / 12.5 + 250.0


def _dense_sends(net, hosts) -> None:
    """Six messages per host sent within 12 ns: wide enough that windows
    with deliveries run vectorized; then one message per flow."""
    for i, h in enumerate(hosts):
        for j in (17, 37, 60, 91, 140, 201):
            k = 6 * i + j
            net.send(Message(h, hosts[(i + j) % len(hosts)], 4096.0 + (k % 3), k),
                     at=2.0 * (k % 7))
    for j, flow in enumerate(FLOWS):
        net.send(Message(hosts[j], hosts[-1 - j], 1000.0, ("tagged", j), flow=flow),
                 at=6000.0)


def _trigger(action: str, at_delivery: int = 300):
    """A storm whose ``at_delivery``-th delivery callback does one thing
    the window contract covers, in the middle of a vector window."""
    def scenario(topo, net):
        sim = net.sim
        hosts = topo.hosts
        log = []
        seen = [0]
        rows = net._rows
        in_window = []

        def act(msg, t):
            in_window.append(rows is not None and rows.active is not None)
            if action == "traffic":
                stats = net.traffic
                log.append((stats.bytes_hops, stats.messages, len(stats.per_link)))
            elif action == "flow_stats":
                stats = net.flow_stats("f1")
                log.append((stats.bytes_hops, stats.messages, list(stats.per_link.items())))
            elif action == "traffic_extra":
                log.append(net.traffic_extra(flow="f2"))
            elif action == "link":
                link = topo.link("l3", "s1")
                log.append((link.busy_until, link.bytes_carried, link.messages_carried))
            elif action == "links":
                log.append([ln.messages_carried for ln in topo.links()])
            elif action == "send_now":
                net.send(Message(msg.dst, "h3", 512.0, "now", flow="f0"), at=t)
            elif action == "send_later":
                net.send(Message(msg.dst, "h3", 512.0, "later"), at=t + 5000.0)
            elif action == "burst_now":
                net.send_burst([Message(msg.dst, h, 256.0, ("b", h)) for h in hosts[:9]], at=t)
            elif action == "schedule_now":
                sim.schedule_at(t, lambda: log.append(("ev", sim.now)))
            elif action == "schedule_p0":
                sim.schedule_at(t + 1.0, lambda: log.append(("ev0", sim.now)), priority=0)
            elif action == "abandon":
                net.abandon_flow("f1")
            elif action == "remove":
                net.remove_flow("f2")
            elif action == "on_deliver":
                net.on_deliver("h5", lambda m, t: log.append(("h5", m.tag, t)))
            elif action == "weight":
                net.set_flow_weight("f0", 3.0)
            elif action == "rate":
                topo.set_link_rate("l2", "s0", 25.0)
            elif action == "fail":
                topo.fail_link("l1", "s3")
            elif action == "arm_faults":
                net.arm_faults()
            elif action == "peek":
                log.append((sim.peek_time(), sim.pending, len(list(sim.queued()))))
            elif action == "step":
                log.append(sim.step())
            elif action == "run_until":
                sim.run(until=t + 60.0)
                log.append(("ran", sim.now))
            elif action == "raise":
                raise RuntimeError("callback failed")
            else:  # pragma: no cover
                raise AssertionError(action)

        def sink(msg, t):
            log.append((msg.tag, t, sim.now))
            seen[0] += 1
            if seen[0] == at_delivery:
                act(msg, t)

        for h in hosts:
            net.on_deliver(h, sink)
        if action == "raise":
            # The failure surfaces mid-window; the run then goes on.
            sim.schedule_at(0.0, lambda: None)
        _dense_sends(net, hosts)
        try:
            net.run()
        except RuntimeError as exc:
            log.append(("raised", str(exc), sim.now))
            log.append(_observe(topo, net, [])["links"])
            net.run()
        out = _observe(topo, net, log)
        out.pop("events")     # an exception skips the run's event count
        out["in_window"] = in_window
        return out
    return scenario


@pytest.mark.parametrize("action", [
    "traffic", "flow_stats", "traffic_extra", "link", "links", "send_now",
    "send_later", "burst_now", "schedule_now", "schedule_p0", "abandon",
    "remove", "on_deliver", "weight", "rate", "fail", "arm_faults",
    "peek", "step", "run_until", "raise",
])
def test_mid_window_callback_contract(monkeypatch, action):
    router = "ecmp" if action in ("rate", "fail") else "updown"
    ref, new = _both(monkeypatch, _trigger(action), router=router)
    # The action ran inside a vector window on the window path.
    assert ref.pop("in_window") == [False] and new.pop("in_window") == [True]
    assert new == ref


# ----------------------------------------------------------------------
# Sends made while the engine is idle go straight into the hop rows
# ----------------------------------------------------------------------
@pytest.fixture
def pushes(monkeypatch):
    """Count the hops pushed into the rows while the engine was idle."""
    calls = []
    push = HopRows.push

    def counted(self, t, msg):
        calls.append(msg.tag)
        return push(self, t, msg)

    monkeypatch.setattr(HopRows, "push", counted)
    return calls


def _plain_sends(net, hosts, per_host: int = 4, at0: float = 0.0, tag="s") -> int:
    """``per_host`` plain messages per host on a 3 ns grid from ``at0``."""
    n = len(hosts)
    k = 0
    for i, h in enumerate(hosts):
        for j in range(per_host):
            net.send(Message(h, hosts[(i * 7 + 5 + 11 * j) % n], 4096.0, (tag, k)),
                     at=at0 + 3.0 * (k % 97))
            k += 1
    return k


def _first_access(first: str):
    """Idle sends and engine events, then one engine call before any
    run: the rows must already order with the events."""
    def scenario(topo, net):
        sim = net.sim
        hosts = topo.hosts
        log = []
        for h in hosts:
            net.on_deliver(h, lambda m, t: log.append((m.tag, t)))
        sim.schedule_at(3.0, lambda: log.append(("tick", sim.now)))
        _plain_sends(net, hosts)
        sim.schedule_at(0.0, lambda: log.append(("tick0", sim.now)), priority=0)
        sim.schedule_at(6.0, lambda: log.append(("tick2", sim.now)), priority=2)
        if first == "step":
            log.append([sim.step() for _ in range(40)] + [sim.now])
        elif first == "peek_time":
            log.append(sim.peek_time())
        elif first == "pending":
            log.append(sim.pending)
        elif first == "queued":
            log.append(_queue(sim))
        log.append((sim.peek_time(), sim.pending, len(_queue(sim))))
        net.run()
        return _observe(topo, net, log)
    return scenario


@pytest.mark.parametrize("first", ["step", "peek_time", "pending", "queued"])
def test_idle_rows_seen_by_first_engine_call(monkeypatch, vector_windows, pushes, first):
    ref, new = _both(monkeypatch, _first_access(first))
    assert vector_windows and pushes
    assert new == ref


def _idle_after_partial_run(topo, net):
    """A partial run leaves rows in flight and events queued; idle sends
    then join them, some dated before ``now``."""
    sim = net.sim
    hosts = topo.hosts
    log = []

    def sink(m, t):
        log.append((m.tag, t))
        if m.tag[0] == "s" and m.tag[1] % 9 == 0:
            net.send(Message(m.dst, m.src, 512.0, ("back", m.tag[1])), at=t + 900.0)

    for h in hosts:
        net.on_deliver(h, sink)
    _plain_sends(net, hosts)
    net.run(until=700.0)
    log.append(("until", sim.now, sim.pending))
    # Before now (run at now), at now, and later.
    _plain_sends(net, hosts, per_host=2, at0=400.0, tag="again")
    _plain_sends(net, hosts, per_host=2, at0=1800.0, tag="later")
    net.run(until=2000.0)
    log.append(("until", sim.now, sim.peek_time(), sim.pending))
    net.run()
    return _observe(topo, net, log)


def test_idle_sends_after_partial_run(monkeypatch, vector_windows, pushes):
    ref, new = _both(monkeypatch, _idle_after_partial_run)
    assert vector_windows
    assert not any(tag[0] == "back" for tag in pushes)
    assert new == ref


def _idle_mixed(topo, net):
    """Idle plain sends interleaved, at the same instants, with
    flow-tagged and burst sends and engine events of each
    priority (the seqs of the rows are not contiguous).  The last hosts
    send the odd ones, so each instant still opens with a wide run of
    plain rows."""
    sim = net.sim
    hosts = topo.hosts
    n = len(hosts)
    log = []
    for h in hosts:
        net.on_deliver(h, lambda m, t: log.append((m.tag, t)))
        for flow in FLOWS:
            net.on_deliver(h, lambda m, t: log.append(("f", m.tag, t)), flow=flow)
    k = 0
    for i, h in enumerate(hosts):
        for j in range(6):
            at = 2.0 * ((i + j) % 5)
            dst = hosts[(i * 3 + 1 + j) % n]
            net.send(Message(h, dst, 4096.0, ("plain", k)), at=at)
            if i >= n - 32:
                odd = k % 3
                if odd == 0:
                    net.send(Message(h, dst, 2048.0, ("flow", k),
                                     flow=FLOWS[k // 3 % 3]), at=at)
                elif odd == 1:
                    net.send_burst([Message(h, hosts[(i + 2) % n], 512.0, ("burst", k, b))
                                    for b in range(3)], at=at)
                else:
                    for priority in (0, 1, 2):
                        sim.schedule_at(
                            at, lambda p=priority: log.append(("tick", p, sim.now)),
                            priority=priority,
                        )
            k += 1
    net.run()
    return _observe(topo, net, log)


def test_idle_sends_mixed_with_per_event_hops(monkeypatch, vector_windows, pushes):
    ref, new = _both(monkeypatch, _idle_mixed)
    assert vector_windows
    assert all(tag[0] == "plain" for tag in pushes)
    events = new.pop("events") - ref.pop("events")
    assert events == -2 * sum(1 for t in ref["log"] if t[0][0] == "burst") // 3
    assert new == ref


def _change_before_run(change: str):
    def scenario(topo, net):
        log = []
        hosts = topo.hosts
        for h in hosts:
            net.on_deliver(h, lambda m, t: log.append((m.tag, t)))
        _plain_sends(net, hosts)
        if change == "arm_faults":
            net.arm_faults()
        elif change == "rate":
            topo.set_link_rate("l0", "s1", 20.0)
        elif change == "fail":
            topo.fail_link("l2", "s0")
        _plain_sends(net, hosts, per_host=1, tag="after")
        net.run()
        return _observe(topo, net, log)
    return scenario


@pytest.mark.parametrize("change", ["arm_faults", "rate", "fail"])
def test_changes_between_idle_sends_and_run(monkeypatch, pushes, change):
    router = "ecmp" if change in ("rate", "fail") else "updown"
    ref, new = _both(monkeypatch, _change_before_run(change), router=router)
    assert pushes
    assert new == ref


def test_send_from_callback_takes_engine_path(monkeypatch, vector_windows, pushes):
    """Relays sent by delivery callbacks are engine events (inside a
    window they take the window's seq accounting), not pushed rows."""
    def scenario(topo, net):
        hosts = topo.hosts
        log = []

        def relay(m, t):
            log.append((m.tag, t))
            if m.tag[0] == "s" and m.tag[1] % 3 == 0:
                net.send(Message(m.dst, m.src, 4096.0, ("relay", m.tag[1])), at=t)

        for h in hosts:
            net.on_deliver(h, relay)
        sent = _plain_sends(net, hosts)
        net.run()
        out = _observe(topo, net, log)
        out["sent"] = sent
        return out

    ref, new = _both(monkeypatch, scenario)
    assert vector_windows
    assert len(pushes) == new["sent"] and all(tag[0] == "s" for tag in pushes)
    assert any(e[0][0] == "relay" for e in ref["log"])
    assert new == ref


def test_narrow_idle_injection_builds_no_tables(monkeypatch, pushes):
    """Fewer than MIN_VECTOR_ROWS idle sends go back to the engine as
    plain hop events: no index built, no window run."""
    import repro.network.windows as windows

    def scenario(topo, net):
        log = []
        hosts = topo.hosts
        for h in hosts:
            net.on_deliver(h, lambda m, t: log.append((m.tag, t)))
        for i in range(40):
            net.send(Message(hosts[i], hosts[-1 - i], 4096.0, ("n", i)), at=float(i % 3))
        net.run()
        out = _observe(topo, net, log)
        out["index"] = net._rows is not None and net._rows._index is not None
        out["windowed"] = net.windowed_hops
        return out

    ref = scenario(*_net(monkeypatch, False))
    monkeypatch.setattr(windows, "build_index", lambda topo: pytest.fail("index built"))
    new = scenario(*_net(monkeypatch, True))
    assert len(pushes) == 40
    assert new == ref
    assert not new["index"] and new["windowed"] == 0


def test_windowed_hops_counts_vector_rows(monkeypatch, vector_windows):
    def scenario(topo, net):
        out = _storm(2)(topo, net)
        out["windowed"] = net.windowed_hops
        return out

    ref, new = _both(monkeypatch, scenario)
    assert ref.pop("windowed") == 0
    windowed = new.pop("windowed")
    assert 0 < windowed <= new["events"] and windowed >= sum(vector_windows) // 2
    assert new == ref


@pytest.mark.parametrize("scenario", ["storm", "callbacks", "partial"])
def test_runs_sorted_into_one_past_max_runs(monkeypatch, vector_windows, scenario):
    """Past MAX_RUNS live runs the rows are sorted into one run; with a
    bound of one that happens on every added run."""
    import repro.network.windows as windows

    monkeypatch.setattr(windows, "MAX_RUNS", 1)
    build = {"storm": _storm(7), "callbacks": _busy_callbacks,
             "partial": _run_until_and_step}[scenario]
    ref, new = _both(monkeypatch, build)
    assert vector_windows
    if scenario == "callbacks":
        ref["events"] -= 2 * 6 * 128          # bursts: one event each
    assert new == ref


@pytest.mark.parametrize("scenario", ["storm", "mixed", "partial"])
def test_windows_capped_at_max_rows(monkeypatch, vector_windows, scenario):
    """A window holding more than MAX_VECTOR_ROWS rows runs its earliest
    ones; the rest stay queued as a run of their own."""
    import repro.network.windows as windows

    monkeypatch.setattr(windows, "MAX_VECTOR_ROWS", 300)
    build = {"storm": _storm(11), "mixed": _idle_mixed,
             "partial": _idle_after_partial_run}[scenario]
    ref, new = _both(monkeypatch, build)
    assert vector_windows and max(vector_windows) == 300
    if scenario == "mixed":         # a burst is one event on the fast path
        assert new.pop("events") < ref.pop("events")
    assert new == ref
