"""Canonical provenance counter families and their collectors.

One module owns the *names* and the *collection code* for every counter
the provenance database records, so the parity guarantees are testable
as dict equality:

* :func:`collect_switch` reads a :class:`~repro.pspin.switch.PsPINSwitch`
  after a run.  The packet-train fast path commits the same telemetry
  as the per-packet DES (``TrainRunner.commit``): integer-valued
  families are bitwise-identical whichever tier simulated the run, and
  the cycle accumulators (``busy_cycles``, ``hpu_busy_cycles``,
  ``contention_wait_cycles``) agree to float addition-order tolerance —
  the fast-path parity suite pins both.
* :func:`collect_links` reads a :class:`~repro.network.simulator
  .NetworkSimulator` at quiescence.

Counter families (not individual names) are what the CI smoke gate
checks for: a run missing a whole family means a collection path broke.
"""

from __future__ import annotations

#: Switch-side counter families, the keys :func:`collect_switch` emits.
SWITCH_COUNTER_FAMILIES = (
    "hpu_busy_cycles",
    "hpu_handlers_run",
    "handler_invocations",
    "busy_cycles",
    "contention_wait_cycles",
    "icache_fills",
    "bytes_in",
    "bytes_out",
    "packets_in",
    "packets_out",
    "l1_peak_bytes",
    "l2_packet_peak_bytes",
    "l2_handler_peak_bytes",
    "l2_program_peak_bytes",
    "working_memory_peak_bytes",
    "input_buffer_peak_bytes",
    "deferred_arrivals",
    "stalled_admissions",
    "dropped_packets",
    "alloc_failures",
    "admission_rejections",
)

#: Link-side counter families :func:`collect_links` can emit (the
#: reliability counters appear only on fault-injection runs).
LINK_COUNTER_FAMILIES = (
    "bytes",
    "messages",
    "busy_ns",
    "queue_depth_peak",
    "drops",
    "duplicates",
)


def collect_switch(switch) -> dict:
    """Snapshot one simulated switch's provenance counters.

    Pure reads — safe to call mid-run or after; values are plain floats
    so the dict round-trips sqlite and JSON unchanged.
    """
    tel = switch.telemetry
    mem = switch.memories
    clusters = switch.clusters
    hpus = [hpu for cl in clusters for hpu in cl.hpus]
    deferred = float(tel.deferred_arrivals.value)
    stalled = float(tel.stalled_admissions.value)
    dropped = float(tel.dropped_packets.value)
    alloc_failures = float(
        mem.l2_packet.alloc_failures
        + mem.l2_handler.alloc_failures
        + mem.l2_program.alloc_failures
        + sum(cl.l1.alloc_failures for cl in clusters)
    )
    return {
        "hpu_busy_cycles": float(sum(h.busy_cycles for h in hpus)),
        "hpu_handlers_run": float(sum(h.handlers_run for h in hpus)),
        "handler_invocations": float(tel.handler_invocations.value),
        "busy_cycles": float(tel.busy_cycles.value),
        "contention_wait_cycles": float(tel.contention_wait_cycles.value),
        "icache_fills": float(tel.icache_fills.value),
        "bytes_in": float(tel.bytes_in.value),
        "bytes_out": float(tel.bytes_out.value),
        "packets_in": float(tel.packets_in.value),
        "packets_out": float(tel.packets_out.value),
        "l1_peak_bytes": float(max(
            (cl.l1.peak_bytes for cl in clusters), default=0
        )),
        "l2_packet_peak_bytes": float(mem.l2_packet.peak_bytes),
        "l2_handler_peak_bytes": float(mem.l2_handler.peak_bytes),
        "l2_program_peak_bytes": float(mem.l2_program.peak_bytes),
        "working_memory_peak_bytes": float(tel.working_memory_bytes.peak),
        "input_buffer_peak_bytes": float(mem.l2_packet.peak_bytes),
        "deferred_arrivals": deferred,
        "stalled_admissions": stalled,
        "dropped_packets": dropped,
        "alloc_failures": alloc_failures,
        # The paper's reject-and-fall-back behaviors in one number:
        # arrivals the switch could not take on time, for any reason.
        "admission_rejections": deferred + stalled + dropped + alloc_failures,
    }


def collect_links(net) -> list[tuple]:
    """Per-link provenance rows ``(src, dst, counter, value)``.

    Reads the network simulator at quiescence: bytes/messages from the
    link objects, busy time from each link's serialization
    occupancy, WFQ queue-depth peaks from the arbitration queues, and —
    on fault-injection runs — per-link drop/duplicate counts.  All-zero
    links are omitted to keep the database proportional to traffic, not
    to fabric size.
    """
    rows: list[tuple] = []
    peaks = net.queue_depth_peaks()
    traffic = net.traffic
    for link in net.topology.links():
        key = link.key
        counters = []
        if link.bytes_carried:
            counters.append(("bytes", float(link.bytes_carried)))
            counters.append(("messages", float(link.messages_carried)))
            counters.append(("busy_ns", float(link.busy_ns)))
        peak = peaks.get(key)
        if peak:
            counters.append(("queue_depth_peak", float(peak)))
        drops = traffic.link_drops.get(key)
        if drops:
            counters.append(("drops", float(drops)))
        dups = traffic.link_duplicates.get(key)
        if dups:
            counters.append(("duplicates", float(dups)))
        rows.extend((key[0], key[1], name, value) for name, value in counters)
    return rows


def link_rows_to_table(rows: list[tuple]) -> dict:
    """``(src, dst, counter, value)`` rows -> ``{(src, dst): {counter:
    value}}``, the shape the store reads back — lets the parity tests
    compare live collections against database round-trips directly."""
    out: dict[tuple, dict] = {}
    for src, dst, counter, value in rows:
        out.setdefault((src, dst), {})[counter] = value
    return out


def tenant_wire_bytes(fabric) -> dict:
    """Per-tenant wire bytes from the fabric's settled timeline (the
    energy model's per-tenant attribution basis)."""
    return {
        tenant: stats["wire_bytes"]
        for tenant, stats in fabric.tenant_stats().items()
        if tenant is not None and stats["wire_bytes"]
    }
