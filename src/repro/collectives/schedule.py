"""Collective schedules on the network simulator: the algorithms as data,
two interpreters that run them.

Every network allreduce of the registry is a schedule object built
once at plan time and issued any number of times into a (possibly
shared) :class:`~repro.network.simulator.NetworkSimulator`.  The
interpreters own what the algorithms share: host-subset validation,
payload reduction, the Sec. 4.1 duplicate filter,
completion counting and the :class:`CollectiveResult`.

* :class:`ExchangeTable` — host-based exchanges.  Per step it lists
  where each rank sends (``Step.dst``), which vector blocks each rank
  receives (``Step.recv``; a sender ships what its destination
  receives) and whether the receiver folds them into its own values
  (reduce-scatter) or copies them (allgather).  Message bytes and
  sub-chunk counts follow from the block counts, or from explicit
  per-step bytes for a size-only model; every message carries whole
  bytes (:func:`whole_bytes`).  ``pipelined`` says what a step
  waits for: a pipelined table (ring) forwards each sub-chunk the
  moment it lands; otherwise a rank processes a step only once every
  sub-chunk of it has landed and its previous step is done, then sends
  the whole next step (processing out of order would fold partials that
  miss earlier contributions).  Tables: ``ring``, ``swing``,
  ``butterfly``, ``rabenseifner`` and ``recursive_doubling``; SparCML's
  split allreduce is the ``rabenseifner`` table with the sparse message
  sizes of :func:`sparcml_round_bytes`.
* :class:`TreeSchedule` — Flare's in-network aggregation along an
  :class:`~repro.network.trees.AggregationTree`: hosts stream chunks to
  their switch, each switch forwards one aggregated chunk once all its
  children delivered it, the root multicasts the result down.  Flare
  dense and Flare sparse differ only in per-level chunk bytes and in
  whether payloads ride along.

With ``payloads`` a schedule reduces real data by one of two payload
programs (:func:`payload_program`, reported as
``extra["payload_program"]``), the two of :mod:`repro.core.fastpath`:

* ``"vectorized"`` — integer payloads under a builtin operator: any
  combine order gives the same bits, so ``issue`` reduces them once
  with a single ufunc call and the messages carry no data.
  :func:`check_coverage` proves, once per exchange table, that the
  steps combine every contribution exactly once.
* ``"order-replay"`` — floats and custom operators: the messages carry
  slices of per-rank working copies, combined in a fixed structural
  order (received value first, own value second; tree switches fold
  attached hosts first, child switches after, both in tree order), so
  every host ends with the bitwise-identical vector regardless of event
  timing, retransmissions or duplicate deliveries; exchange hosts must
  agree on it at the end.

Either way the values are taken at issue time, and timing is the same
with or without payloads: data rides the messages a size-only run sends.

Issue semantics: events start at ``net.now`` under flow id ``flow``;
``on_complete(result)`` fires inside the event loop when the last host
finishes, with times relative to the issue instant and traffic read
from the flow's own accounting — so collectives issued into one loop
interleave and still report per-tenant results.

See DESIGN.md, "Schedule tables".
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from repro.collectives.result import CollectiveResult
from repro.core.config import FlareConfig
from repro.core.ops import get_op, order_free_ufunc
from repro.network.simulator import Message
from repro.network.trees import AggregationTree
from repro.sparse.densify import (
    DENSE_ELEMENT_BYTES,
    SPARSE_ELEMENT_BYTES,
    expected_union,
)


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------
def split_slices(n_elements: int, n_parts: int) -> list[slice]:
    """Contiguous ``np.array_split``-compatible slices of a vector."""
    sizes = [n_elements // n_parts + (1 if i < n_elements % n_parts else 0)
             for i in range(n_parts)]
    out, start = [], 0
    for size in sizes:
        out.append(slice(start, start + size))
        start += size
    return out


def combine_payloads(op, acc: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``acc ⊕ values`` without mutating either input (messages may be
    duplicated by fault injection; in-place combines would corrupt)."""
    out = acc.copy()
    get_op(op).combine_into(out, values)
    return out


def resolve_hosts(topology, hosts=None) -> list:
    """The participants in rank order: ``hosts`` (a placement subset,
    validated against the topology) or every topology host."""
    if hosts is None:
        return list(topology.hosts)
    hosts = list(hosts)
    known = set(topology.hosts)
    for h in hosts:
        if h not in known:
            raise ValueError(f"unknown host {h}")
    return hosts


def payload_arrays(schedule, payloads) -> tuple[list, tuple]:
    """Flat views of the per-rank payloads (copied only where a payload
    is not contiguous), and their shape.

    Raises ``ValueError`` when ``schedule`` is size-only (its message
    sizes describe no dense vector) or when the payload count or size
    does not match what it was planned for: a plan sized for one vector
    must not silently time another.
    """
    if not schedule.carries_payloads:
        raise ValueError(
            f"{schedule.label} is a size-only schedule and does not "
            "reduce payload values; pass a byte size instead"
        )
    n_ranks, vector_bytes = len(schedule.hosts), schedule.vector_bytes
    arrays = [np.asarray(p).ravel() for p in payloads]
    if len(arrays) != n_ranks:
        raise ValueError(f"got {len(arrays)} payloads for {n_ranks} hosts")
    for i, a in enumerate(arrays):
        if a.nbytes != vector_bytes:
            raise ValueError(
                f"payload {i} has {a.size} elements ({a.nbytes} B); this plan "
                f"was sized for {vector_bytes:g} B — plan the new shape "
                "instead of reusing this one"
            )
    return arrays, np.shape(payloads[0])


#: The payload programs, named after those of :mod:`repro.core.fastpath`.
VECTORIZED, ORDER_REPLAY = "vectorized", "order-replay"


def payload_program(schedule, payloads, op) -> tuple[str, object, tuple]:
    """Validate ``payloads`` and pick how the schedule reduces them.

    Returns ``(program, data, shape)``.  ``VECTORIZED`` (integer
    payloads under a builtin operator, see
    :func:`~repro.core.ops.order_free_ufunc`): ``data`` is the flat
    reduced vector, computed here in one ufunc call — any combine order
    gives these bits, so the messages need not carry data.
    ``ORDER_REPLAY``: ``data`` is a flat working copy per rank, combined
    message by message in the schedule's structural order.  Either way
    the values are taken at issue time.
    """
    arrays, shape = payload_arrays(schedule, payloads)
    dtype = arrays[0].dtype
    ufunc = order_free_ufunc(op, dtype)
    if ufunc is None or any(a.dtype != dtype for a in arrays):
        return ORDER_REPLAY, [a.copy() for a in arrays], shape
    stacked = payloads if isinstance(payloads, np.ndarray) else arrays
    reduced = ufunc.reduce(np.reshape(stacked, (len(arrays), -1)), axis=0, dtype=dtype)
    return VECTORIZED, reduced, shape


def collective_result(
    net, flow, name: str, n_hosts: int, vector_bytes: float, time_ns: float,
    sent_bytes_per_host: int, extra: dict, output=None,
) -> CollectiveResult:
    """A finished schedule's result, traffic read from ``flow``."""
    extra = {**extra, **net.traffic_extra(flow=flow)}
    if output is not None:
        extra["output"] = output
    return CollectiveResult(
        name=name,
        n_hosts=n_hosts,
        vector_bytes=vector_bytes,
        time_ns=time_ns,
        traffic_bytes_hops=net.flow_stats(flow).bytes_hops,
        sent_bytes_per_host=sent_bytes_per_host,
        extra=extra,
    )


class Completion:
    """Counts finished hosts; the last one fixes the collective's end."""

    __slots__ = ("left", "finish")

    def __init__(self, n_hosts: int, base_time: float) -> None:
        self.left = n_hosts
        self.finish = base_time

    def host_done(self, t: float) -> bool:
        """Record one host finishing at ``t``; True for the last one."""
        if t > self.finish:
            self.finish = t
        self.left -= 1
        return self.left == 0


def repeated(net, seen: set, key) -> bool:
    """Sec. 4.1 bitmap: under armed faults, True for a repeat delivery
    of ``key`` (a duplicated chunk that must not count twice).  Armed-
    ness is read at delivery time: faults may be armed after issue."""
    if net.faults is None:
        return False
    if key in seen:
        return True
    seen.add(key)
    return False


# ----------------------------------------------------------------------
# Partner functions of the halving/doubling tables
# ----------------------------------------------------------------------
def butterfly_partner(rank: int, step: int, n_ranks: int) -> int:
    """Hypercube exchange, nearest first: flip bit ``step``."""
    return rank ^ (1 << step)


def rabenseifner_partner(rank: int, step: int, n_ranks: int) -> int:
    """Hypercube exchange, farthest first: distance ``P/2`` at step 0,
    so the lower rank of each pair keeps the lower half of the vector
    (Rabenseifner's recursive halving)."""
    return rank ^ (n_ranks >> (step + 1))


def swing_distance(step: int) -> int:
    """Swing's *signed* step-``s`` partner distance
    ``(1 - (-2)**(s+1)) / 3``: +1, -1, +3, -5, +11, -21, ...

    The alternating sign is essential — it is what swings consecutive
    exchanges to opposite sides of the logical ring so the distances
    compose into full coverage (an unsigned 1, 1, 3, 5, ... would pair
    the same ranks twice and never mix the halves).
    """
    return (1 - (-2) ** (step + 1)) // 3


def swing_partner(rank: int, step: int, n_ranks: int) -> int:
    """Swing exchange (arXiv 2401.09356): even ranks hop ``+delta``,
    odd ranks ``-delta``.  ``delta`` is always odd, so an even rank's
    partner is always odd and vice versa — every step is a perfect
    matching, and on a ring/torus rank mapping every exchange stays
    short (distance ``~2**s / 3`` where the butterfly has ``2**s``)."""
    delta = swing_distance(step)
    if rank % 2 == 0:
        return (rank + delta) % n_ranks
    return (rank - delta) % n_ranks


PARTNER_FUNCTIONS = {
    "butterfly": butterfly_partner,
    "rabenseifner": rabenseifner_partner,
    "swing": swing_partner,
}


def block_sets(partner_fn, n_ranks: int) -> list[list[frozenset]]:
    """``T[s][j]`` — blocks rank ``j`` owns before reduce-scatter step
    ``s`` — for ``s`` in ``0..L`` (``L = log2(n_ranks)``), from the
    recursion ``T(j, L) = {j}``; ``T(j, s) = T(j, s+1) ∪ T(partner, s+1)``.

    Validates the schedule: every step must be a perfect matching
    (``partner(partner(i)) == i``, never self), partners' level-``s+1``
    sets must be disjoint (no double-counted contributions), and
    ``T[0]`` must be the full block set (every contribution reaches
    every block).  Raises ``ValueError`` otherwise.
    """
    if n_ranks < 2 or n_ranks & (n_ranks - 1):
        raise ValueError(f"halving/doubling needs a power-of-two rank count, got {n_ranks}")
    L = int(math.log2(n_ranks))
    T: list[list[frozenset]] = [[frozenset()] * n_ranks for _ in range(L + 1)]
    T[L] = [frozenset({j}) for j in range(n_ranks)]
    for s in range(L - 1, -1, -1):
        for j in range(n_ranks):
            p = partner_fn(j, s, n_ranks)
            if p == j or not 0 <= p < n_ranks:
                raise ValueError(f"step {s}: rank {j} pairs with {p}")
            if partner_fn(p, s, n_ranks) != j:
                raise ValueError(f"step {s}: pairing {j}<->{p} is not symmetric")
            if T[s + 1][j] & T[s + 1][p]:
                raise ValueError(
                    f"step {s}: ranks {j} and {p} both own blocks "
                    f"{sorted(T[s + 1][j] & T[s + 1][p])}"
                )
            T[s][j] = T[s + 1][j] | T[s + 1][p]
    full = frozenset(range(n_ranks))
    for j in range(n_ranks):
        if T[0][j] != full:
            raise ValueError(
                f"rank {j} only reaches blocks {sorted(T[0][j])}; the "
                "partner schedule does not cover all ranks"
            )
    return T


# ----------------------------------------------------------------------
# Host exchanges
# ----------------------------------------------------------------------
class Step(NamedTuple):
    """One exchange step: rank ``i`` sends to ``dst[i]`` the blocks
    ``recv[dst[i]]``; the receiver folds them into its own values
    (``fold``) or copies them over."""

    dst: tuple
    recv: tuple
    fold: bool


def ring_steps(n_ranks: int) -> list[Step]:
    """2(P-1) steps to the ring successor, one Z/P block each: rank i
    receives block ``(i-1-k) mod P`` at step k, so block q is folded in
    fixed ring order q, q+1, ... and the fully reduced blocks then
    circulate once more."""
    if n_ranks < 2:
        raise ValueError("ring needs at least two hosts")
    succ = tuple((i + 1) % n_ranks for i in range(n_ranks))
    return [
        Step(succ, tuple(((i - 1 - k) % n_ranks,) for i in range(n_ranks)),
             fold=k < n_ranks - 1)
        for k in range(2 * (n_ranks - 1))
    ]


def halving_steps(partner_fn, n_ranks: int) -> list[Step]:
    """2 log2(P) steps over the ``block_sets`` of ``partner_fn``:
    reduce-scatter step s keeps ``T[s+1][i]`` (halving each rank's
    responsibility), the allgather replays the steps in reverse with the
    same partners, receiving what the partner has fully reduced."""
    T = block_sets(partner_fn, n_ranks)          # validates P and pairing
    L = len(T) - 1
    steps = []
    for k in range(2 * L):
        s = k if k < L else 2 * L - 1 - k
        dst = tuple(partner_fn(i, s, n_ranks) for i in range(n_ranks))
        own = tuple(tuple(sorted(T[s + 1][i])) for i in range(n_ranks))
        recv = own if k < L else tuple(own[p] for p in dst)
        steps.append(Step(dst, recv, fold=k < L))
    return steps


def doubling_steps(n_ranks: int) -> list[Step]:
    """log2(P) steps of full-vector pairwise folds, partner ``i XOR 2**s``
    (nearest first): latency-optimal, Z bytes per step."""
    if n_ranks < 2 or n_ranks & (n_ranks - 1):
        raise ValueError(
            f"recursive doubling needs a power-of-two rank count, got {n_ranks}"
        )
    everything = (tuple(range(n_ranks)),) * n_ranks
    return [
        Step(tuple(i ^ (1 << s) for i in range(n_ranks)), everything, fold=True)
        for s in range(n_ranks.bit_length() - 1)
    ]


#: Step builders of the registered host exchanges, and whether the
#: table is pipelined (see the module docstring).
EXCHANGES = {
    "ring": (ring_steps, True),
    "swing": (lambda p: halving_steps(swing_partner, p), False),
    "butterfly": (lambda p: halving_steps(butterfly_partner, p), False),
    "rabenseifner": (lambda p: halving_steps(rabenseifner_partner, p), False),
    "recursive_doubling": (doubling_steps, False),
}


def check_coverage(algorithm: str, steps: list, n_ranks: int) -> None:
    """Prove that ``steps`` leave every rank holding every rank's
    contribution to every block exactly once; ``ValueError`` otherwise.

    Replays the table over contributor sets: ``held[i][b]`` is the set
    (a bitmask) of ranks whose contribution rank i's block b includes.
    Every message of a step carries its sender's pre-step set; a fold
    adds it to the receiver's, a copy replaces it.  A fold of
    overlapping sets counts a contribution twice, and the value stays
    tainted until a copy overwrites it — a double count every host
    shares, which comparing the hosts' results would not catch.
    """
    full = (1 << n_ranks) - 1
    held = [[1 << i] * n_ranks for i in range(n_ranks)]
    twice: set = set()
    for step in steps:
        updates = []
        for src, i in enumerate(step.dst):
            for b in step.recv[i]:
                value, dup = held[src][b], (src, b) in twice
                if step.fold:
                    dup = dup or (i, b) in twice or bool(value & held[i][b])
                    value |= held[i][b]
                updates.append((i, b, value, dup))
        for i, b, value, dup in updates:
            held[i][b] = value
            if dup:
                twice.add((i, b))
            else:
                twice.discard((i, b))
    for i in range(n_ranks):
        for b in range(n_ranks):
            if (i, b) in twice:
                raise ValueError(f"{algorithm}: rank {i} ends counting a "
                                 f"contribution to block {b} twice")
            if held[i][b] != full:
                missing = [c for c in range(n_ranks) if not held[i][b] >> c & 1]
                raise ValueError(f"{algorithm}: rank {i} ends without the "
                                 f"contributions of ranks {missing} to block {b}")


def _pieces(runs: tuple, lo: int, hi: int):
    """``(array slice, data slice)`` pairs covering ``[lo, hi)`` of the
    concatenation of ``runs`` (element ranges of the vector)."""
    off = 0
    for a, b in runs:
        s, e = max(lo, off), min(hi, off + b - a)
        if s < e:
            yield slice(a + s - off, a + e - off), slice(s - lo, e - lo)
        off += b - a


def _runs(blocks: tuple, slices: list) -> tuple:
    """Element ranges of ``blocks``, adjacent blocks merged."""
    runs: list = []
    for b in blocks:
        sl = slices[b]
        if runs and runs[-1][1] == sl.start:
            runs[-1][1] = sl.stop
        else:
            runs.append([sl.start, sl.stop])
    return tuple((a, b) for a, b in runs)


class ExchangeTable:
    """A host-based allreduce as a per-step table (module docstring).

    ``step_bytes`` replaces the block-count message sizes with explicit
    per-step bytes (a size model such as :func:`sparcml_round_bytes`,
    its sub-chunks rounded up to whole bytes); such a table is size-only
    and refuses payloads, like a :class:`TreeSchedule` without
    ``carries_payloads``.
    """

    def __init__(
        self,
        algorithm: str,
        hosts,
        vector_bytes: float,
        *,
        sub_chunk_bytes: float = 128 * 1024,
        reduce_bytes_per_ns: float = 0.0,
        step_bytes: "tuple | list | None" = None,
        label: "str | None" = None,
    ) -> None:
        _check_chunk("sub_chunk_bytes", sub_chunk_bytes)
        build, self.pipelined = EXCHANGES[algorithm]
        self.hosts = tuple(hosts)
        P = len(self.hosts)
        self.steps = build(P)
        self.name = algorithm
        self.label = label or f"host-dense ({algorithm.replace('_', '-')})"
        self.vector_bytes = vector_bytes
        #: ``reduce_bytes_per_ns`` charges host reduction compute per
        #: folded byte (0 = fully overlapped, the bandwidth regime).
        self.reduce_bytes_per_ns = reduce_bytes_per_ns
        self.carries_payloads = step_bytes is None
        if step_bytes is None:
            block_bytes = Fraction(vector_bytes) / P
            step_bytes = [block_bytes * len(s.recv[0]) for s in self.steps]
        elif len(step_bytes) != len(self.steps):
            raise ValueError(f"{algorithm} has {len(self.steps)} steps on {P} "
                             f"hosts, got {len(step_bytes)} step sizes")
        self.n_sub = tuple(max(1, int(round(b / sub_chunk_bytes))) for b in step_bytes)
        #: Whole bytes per sub-chunk message, and per step what they add up to.
        self.sub_bytes = tuple(
            whole_bytes(b, n) for b, n in zip(step_bytes, self.n_sub)
        )
        self.step_bytes = tuple(b * n for b, n in zip(self.sub_bytes, self.n_sub))
        self.extra = {"steps": len(self.steps), "step_bytes": self.step_bytes,
                      "sub_chunks": self.n_sub, "pipelined": self.pipelined}
        self.rank_of = {h: i for i, h in enumerate(self.hosts)}
        for k, step in enumerate(self.steps):
            if sorted(step.dst) != list(range(P)) or any(
                d == i for i, d in enumerate(step.dst)
            ):
                raise ValueError(f"{algorithm} step {k}: destinations {step.dst} "
                                 "are not a fixed-point-free permutation")
            if self.pipelined and k and (
                tuple(step.recv[d] for d in step.dst) != self.steps[k - 1].recv
                or self.n_sub[k] != self.n_sub[k - 1]
            ):
                raise ValueError(f"{algorithm} step {k} does not forward the "
                                 f"chunks of step {k - 1}; it cannot pipeline")
        check_coverage(algorithm, self.steps, P)
        self._layouts: dict[int, list] = {}

    @property
    def setup(self) -> dict:
        """What planning decided, for ``plan.setup``."""
        return {**self.extra, "bytes_per_host": sum(self.step_bytes)}

    def layout(self, n_elements: int) -> list:
        """``[k][i]``: the element ranges rank i receives at step k, and
        their sub-chunk boundaries in message coordinates."""
        table = self._layouts.get(n_elements)
        if table is None:
            slices = split_slices(n_elements, len(self.hosts))
            table = self._layouts[n_elements] = []
            for step, n_sub in zip(self.steps, self.n_sub):
                row = []
                for blocks in step.recv:
                    runs = _runs(blocks, slices)
                    row.append((runs, split_slices(sum(b - a for a, b in runs), n_sub)))
                table.append(row)
        return table

    def issue(self, net, *, flow=None, payloads=None, op="sum", on_complete) -> None:
        """Issue one run of the table into ``net`` (module docstring)."""
        hosts, steps, n_sub = self.hosts, self.steps, self.n_sub
        name, rank_of = self.name, self.rank_of
        P, K = len(hosts), len(steps)
        base_time = net.now
        rate = self.reduce_bytes_per_ns
        sub_bytes = self.sub_bytes
        #: Host reduction time per processed unit: a sub-chunk when
        #: pipelined, a whole step otherwise.
        unit_bytes = sub_bytes if self.pipelined else self.step_bytes
        compute = [
            b / rate if rate > 0 and s.fold else 0.0 for b, s in zip(unit_bytes, steps)
        ]
        done = Completion(P, base_time)
        extra, carry, output = self.extra, False, None
        if payloads is not None:
            program, data, shape = payload_program(self, payloads, op)
            extra = {**extra, "payload_program": program}
            carry = program == ORDER_REPLAY
            if carry:
                arrays = data
                layout = self.layout(arrays[0].size)
                output = arrays[0]
            else:
                output = data

        def message(i: int, k: int, sub: int, data) -> Message:
            return Message(hosts[i], hosts[steps[k].dst[i]], sub_bytes[k],
                           tag=(name, k, sub), payload=data, flow=flow)

        def step_messages(i: int, k: int) -> list:
            """Rank i's whole step-k message, as sub-chunks."""
            if not carry:
                return [message(i, k, sub, None) for sub in range(n_sub[k])]
            runs, parts = layout[k][steps[k].dst[i]]
            data = np.concatenate([arrays[i][a:b] for a, b in runs])
            return [message(i, k, sub, data[sl]) for sub, sl in enumerate(parts)]

        def put(i: int, k: int, sub: int, data):
            """Fold or copy one received sub-chunk into rank i's values;
            returns the values written (what a pipelined rank forwards)."""
            runs, parts = layout[k][i]
            sl = parts[sub]
            piece = data
            for asl, dsl in _pieces(runs, sl.start, sl.stop):
                piece = data[dsl]
                if steps[k].fold:
                    piece = combine_payloads(op, piece, arrays[i][asl])
                arrays[i][asl] = piece
            return piece

        def finished() -> None:
            if carry:
                for other in arrays[1:]:
                    if not np.array_equal(arrays[0], other):
                        raise AssertionError(
                            f"{name} allreduce diverged: hosts disagree on "
                            "the reduced vector"
                        )
            on_complete(collective_result(
                net, flow, self.label, P, self.vector_bytes,
                done.finish - base_time, sum(self.step_bytes), extra,
                None if output is None else output.reshape(shape),
            ))

        #: Pipelined: sub-chunks each rank has processed, of ``expected``.
        expected = sum(n_sub)
        received = [0] * P
        seen: set = set()

        def on_chunk(msg: Message, now: float) -> None:
            """Pipelined: process and forward each sub-chunk on arrival."""
            _name, k, sub = msg.tag
            receiver = msg.dst
            if repeated(net, seen, (receiver, k, sub)):
                return
            i = rank_of[receiver]
            t = now + compute[k]
            data = put(i, k, sub, msg.payload) if carry else None
            if k + 1 < K:
                net.send(message(i, k + 1, sub, data), at=t)
            received[i] += 1
            if received[i] == expected and done.host_done(t):
                finished()

        #: Per-(rank, step) sub-chunks landed so far, and the next step
        #: each rank may process: a fast partner's step-k chunks buffer
        #: until the rank's own pipeline catches up.
        landed: dict = {}
        progress = [0] * P

        def drain(i: int, now: float) -> None:
            """Process rank i's steps in order while they are complete;
            a later step that landed first waits here for its turn."""
            t = now
            while progress[i] < K:
                k = progress[i]
                subs = landed.get((i, k))
                if subs is None or len(subs) < n_sub[k]:
                    return
                t += compute[k]
                if carry:
                    for sub in range(n_sub[k]):
                        put(i, k, sub, subs[sub])
                del landed[(i, k)]
                progress[i] = k + 1
                if k + 1 < K:
                    net.send_burst(step_messages(i, k + 1), at=t)
            if done.host_done(t):
                finished()

        def on_step(msg: Message, now: float) -> None:
            """Step-wise: process a step once all of it has landed."""
            _name, k, sub = msg.tag
            i = rank_of[msg.dst]
            if k < progress[i]:
                return                      # duplicate of a processed step
            subs = landed.setdefault((i, k), {})
            if sub in subs:
                return                      # duplicate (Sec. 4.1 bitmap)
            subs[sub] = msg.payload
            if k == progress[i]:
                drain(i, now)

        deliver = on_chunk if self.pipelined else on_step
        for h in hosts:
            net.on_deliver(h, deliver, flow=flow)
        # Every rank's first step leaves at the issue instant: one burst
        # event serializes them in rank order (identical timing to
        # per-message events, minus the per-event heap traffic).
        net.send_burst(
            [m for i in range(P) for m in step_messages(i, 0)], at=base_time
        )


# ----------------------------------------------------------------------
# In-network aggregation trees
# ----------------------------------------------------------------------
class TreeSchedule:
    """Flare's in-network allreduce along an aggregation tree.

    ``host_bytes`` is what each host streams up; ``up_bytes[switch]``
    what each switch forwards to its parent, the root's value also being
    the multicast size.  Each is cut into ``n_chunks`` (an ``int`` >= 1)
    pipelined chunks of whole bytes (:func:`whole_bytes`); a switch
    spends ``agg_latency_ns[switch]`` aggregating a chunk.  The builders
    pick the count: :func:`dense_tree` from a chunk size,
    :func:`sparse_tree` from packet-sized chunks of its largest stream.
    Payloads ride along only when ``carries_payloads`` (sizes that
    shrink with sparsity describe no dense vector).
    """

    def __init__(
        self,
        label: str,
        tree: AggregationTree,
        n_chunks: int,
        *,
        host_bytes: float,
        up_bytes: dict,
        agg_latency_ns: dict,
        vector_bytes: float,
        carries_payloads: bool,
    ) -> None:
        if (isinstance(n_chunks, bool) or not isinstance(n_chunks, int)
                or n_chunks < 1):
            raise ValueError(f"n_chunks must be an int >= 1, got {n_chunks!r}")
        self.label = label
        self.carries_payloads = carries_payloads
        self.tree = tree
        self.hosts = tree.all_hosts()
        self.n_chunks = n_chunks
        #: Whole bytes per chunk message; ``host_bytes`` is what a host's
        #: chunks add up to.
        self.host_chunk = whole_bytes(host_bytes, n_chunks)
        self.up_chunk = {s: whole_bytes(b, n_chunks) for s, b in up_bytes.items()}
        self.down_chunk = self.up_chunk[tree.root]
        self.host_bytes = self.host_chunk * n_chunks
        self.agg_latency_ns = agg_latency_ns
        self.vector_bytes = vector_bytes
        self.extra = {"n_chunks": n_chunks, "tree_root": tree.root,
                      "tree_depth": tree.depth()}

    @property
    def setup(self) -> dict:
        """What planning decided, for ``plan.setup``: the sizes and the
        tree's switches, links and root fan-in."""
        tree = self.tree
        return {
            **self.extra,
            "tree_switches": list(tree.switches()),
            "tree_links": [tuple(edge) for edge in tree.tree_links()],
            "root_fan_in": tree.fan_in(tree.root),
        }

    def issue(self, net, *, flow=None, payloads=None, op="sum", on_complete) -> None:
        """Issue one run into ``net`` (module docstring); with payloads,
        every switch folds its members in canonical tree order."""
        tree, hosts, n_chunks = self.tree, self.hosts, self.n_chunks
        down_chunk = self.down_chunk
        base_time = net.now
        #: Per-(switch, chunk) contributions by sender — counting senders,
        #: not messages, makes fan-in immune to duplicate deliveries.
        up_parts: dict = {}
        host_received = {h: 0 for h in hosts}
        host_seen: set = set()
        #: Duplicate "down" messages must not re-trigger subtree multicasts.
        down_seen: set = set()
        done = Completion(len(hosts), base_time)
        extra, carry, output = self.extra, False, None
        if payloads is not None:
            program, data, shape = payload_program(self, payloads, op)
            extra = {**extra, "payload_program": program}
            carry = program == ORDER_REPLAY
            if carry:
                chunk_slices = split_slices(data[0].size, n_chunks)
                input_of = dict(zip(hosts, data))
                output = np.empty_like(data[0])
            else:
                output = data

        def send_down(switch, chunk: int, at: float, data) -> None:
            # One burst event for the whole multicast fan-out of a chunk.
            net.send_burst(
                [
                    Message(switch, peer, down_chunk, tag=("down", chunk),
                            payload=data, flow=flow)
                    for peer in (*tree.children_of.get(switch, ()),
                                 *tree.hosts_of.get(switch, ()))
                ],
                at=at,
            )

        def on_switch(switch):
            fan_in = tree.fan_in(switch)
            parent = tree.parent_of(switch)
            up_chunk = self.up_chunk[switch]
            agg = self.agg_latency_ns[switch]
            members = (*tree.hosts_of.get(switch, ()),
                       *tree.children_of.get(switch, ()))

            def deliver(msg: Message, now: float) -> None:
                direction, chunk = msg.tag
                if direction == "down":     # the multicast continues down
                    if not repeated(net, down_seen, (switch, chunk)):
                        send_down(switch, chunk, now, msg.payload)
                    return
                parts = up_parts.get((switch, chunk))
                if parts is None:
                    parts = up_parts[(switch, chunk)] = {}
                if msg.src in parts:
                    return          # duplicate contribution, already counted
                parts[msg.src] = msg.payload
                if len(parts) < fan_in:
                    return
                data = None
                if carry:
                    data = parts[members[0]]
                    for member in members[1:]:
                        data = combine_payloads(op, data, parts[member])
                if parent is None:          # root: turn around, multicast
                    send_down(switch, chunk, now + agg, data)
                else:
                    net.send(Message(switch, parent, up_chunk, tag=("up", chunk),
                                     payload=data, flow=flow), at=now + agg)

            return deliver

        def on_host(host):
            def deliver(msg: Message, now: float) -> None:
                chunk = msg.tag[1]
                if repeated(net, host_seen, (host, chunk)):
                    return
                if carry:
                    output[chunk_slices[chunk]] = msg.payload
                host_received[host] += 1
                if host_received[host] == n_chunks and done.host_done(now):
                    on_complete(collective_result(
                        net, flow, self.label, len(hosts), self.vector_bytes,
                        done.finish - base_time, self.host_bytes, extra,
                        None if output is None else output.reshape(shape),
                    ))

            return deliver

        for switch in tree.switches():
            net.on_deliver(switch, on_switch(switch), flow=flow)
        for h in hosts:
            net.on_deliver(h, on_host(h), flow=flow)
        # Every host's upward chunk train leaves at once: one burst event.
        net.send_burst(
            [
                Message(h, tree.attach_of(h), self.host_chunk, tag=("up", c),
                        payload=input_of[h][chunk_slices[c]] if carry else None,
                        flow=flow)
                for h in hosts
                for c in range(n_chunks)
            ],
            at=base_time,
        )


def dense_tree(
    tree: AggregationTree, vector_bytes: float, chunk_bytes: float,
    agg_latency_ns: float, label: str = "Flare dense",
) -> TreeSchedule:
    """Flare dense: every host sends Z and receives Z, so every level
    moves the full vector (the 2x wire saving over the ring's ~2Z).
    Every switch spends the constant ``agg_latency_ns`` per chunk."""
    _check_chunk("chunk_bytes", chunk_bytes)
    n_chunks = max(1, int(round(vector_bytes / chunk_bytes)))
    return TreeSchedule(
        label, tree, n_chunks,
        host_bytes=vector_bytes,
        up_bytes={s: vector_bytes for s in tree.switches()},
        agg_latency_ns=dict.fromkeys(tree.switches(), agg_latency_ns),
        vector_bytes=vector_bytes,
        carries_payloads=True,
    )


#: Default sparse-tree chunks carry at least one packet of
#: ``FlareConfig``'s default size, at most this many per stream.
SPARSE_TREE_CHUNK_FLOOR = FlareConfig.packet_bytes
SPARSE_TREE_MAX_CHUNKS = 64


def sparse_tree_chunks(host_bytes: float, up_bytes: dict) -> int:
    """The default chunk count of a sparse tree: as many whole packets
    as its largest level stream holds, between 1 and
    ``SPARSE_TREE_MAX_CHUNKS``.  The simulator charges no per-message
    cost, so a sub-packet chunk only multiplies events and messages;
    Flare's switch streams whole packets (Sec. 4)."""
    largest = max(host_bytes, *up_bytes.values())
    return min(SPARSE_TREE_MAX_CHUNKS,
               max(1, int(largest // SPARSE_TREE_CHUNK_FLOOR)))


def whole_bytes(nbytes, parts: int = 1) -> int:
    """Each of ``parts`` messages carrying ``nbytes`` between them,
    rounded up to a whole byte: a size model's expected value may be
    fractional, a wire carries whole bytes.  Computed exactly, so a
    share that is already whole gains nothing."""
    return math.ceil(Fraction(nbytes) / parts)


def _check_chunk(name: str, nbytes: float) -> None:
    """A chunk is at least one whole byte, and finite."""
    if not 1 <= nbytes < math.inf:      # also rejects nan
        raise ValueError(f"{name} must be at least 1 byte and finite, got {nbytes!r}")


def _n_buckets(total_elements: float, bucket_span: float) -> float:
    if not 0 < bucket_span < math.inf:
        raise ValueError(f"bucket_span must be positive and finite, got {bucket_span!r}")
    return total_elements / bucket_span


def sparse_tree_bytes(
    tree: AggregationTree,
    total_elements: float,
    bucket_span: int = 512,
    nnz_per_bucket: float = 1.0,
) -> tuple[float, dict]:
    """(host bytes, per-switch upstream bytes) under the bucket model:
    a switch forwards the expected index union over its subtree's
    hosts, so sizes grow level by level as the partial sums densify."""
    n_buckets = _n_buckets(total_elements, bucket_span)
    host_bytes = n_buckets * nnz_per_bucket * SPARSE_ELEMENT_BYTES
    up_bytes = {
        s: n_buckets
        * expected_union(bucket_span, nnz_per_bucket, tree.subtree_hosts(s))
        * SPARSE_ELEMENT_BYTES
        for s in tree.switches()
    }
    return host_bytes, up_bytes


def sparcml_round_bytes(
    n_hosts: int,
    total_elements: float,
    bucket_span: int = 512,
    nnz_per_bucket: float = 1.0,
) -> list[float]:
    """Per-step message bytes of SparCML's split allreduce (SSAR), the
    Fig. 15 "Host-Based Sparse" baseline run as the ``rabenseifner``
    table: ``log2(P)`` recursive-halving reduce-scatter steps over the
    index space, then ``log2(P)`` recursive-doubling allgather steps.

    Sparse (index, value) messages grow as the partial aggregates
    densify under the bucket model (``nnz_per_bucket`` survivors per
    ``bucket_span`` elements per host; after combining m hosts a range
    holding fraction f of the index space carries
    ``f * span * (1 - (1-p)^m)`` expected non-zeros).  Like SparCML, a
    message switches to the dense representation when the sparse
    encoding would exceed the dense bytes of its range.
    """
    if n_hosts & (n_hosts - 1):
        raise ValueError("SSAR needs a power-of-two host count")
    k = int(math.log2(n_hosts))
    n_buckets = _n_buckets(total_elements, bucket_span)
    sizes: list[float] = []
    # Reduce-scatter (halving): before step r each rank has combined
    # 2^r hosts over a range fraction 2^-r; it ships half of that range.
    for r in range(k):
        union_per_bucket = expected_union(bucket_span, nnz_per_bucket, 2**r)
        ship = n_buckets * union_per_bucket * (2.0 ** -r) / 2.0
        dense_bytes = total_elements * (2.0 ** -(r + 1)) * DENSE_ELEMENT_BYTES
        sizes.append(min(ship * SPARSE_ELEMENT_BYTES, dense_bytes))
    # Allgather (doubling): a rank holds the fully reduced fraction 2^r / P.
    final_nnz = n_buckets * expected_union(bucket_span, nnz_per_bucket, n_hosts)
    for r in range(k):
        ship = final_nnz * (2.0**r) / n_hosts
        dense_bytes = total_elements * (2.0**r) / n_hosts * DENSE_ELEMENT_BYTES
        sizes.append(min(ship * SPARSE_ELEMENT_BYTES, dense_bytes))
    return sizes


def sparse_tree(
    tree: AggregationTree,
    total_elements: float,
    *,
    bucket_span: int = 512,
    nnz_per_bucket: float = 1.0,
    n_chunks: "int | None" = None,
    agg_latency_ns: float = 4000.0,
    level_bytes: "tuple[float, float, float] | None" = None,
    label: str = "Flare sparse",
) -> TreeSchedule:
    """Flare sparse: hosts send their sparsified vectors (nnz x 8 B),
    each switch forwards the union of its subtree, the root multicasts
    the global union — far fewer bytes than dense, and each datum
    crosses the tree once instead of bouncing between hosts log P times.

    ``level_bytes`` — measured (host, leaf, root) stream bytes, as the
    Fig. 15 driver derives from the synthetic gradients — replaces the
    bucket model; it only describes a two-level tree.

    ``n_chunks`` defaults to :func:`sparse_tree_chunks` of the level
    streams: packet-sized chunks of the largest one, at most 64.
    """
    if level_bytes is not None:
        if tree.depth() != 2:
            raise ValueError(
                "level_bytes describes a two-level tree; this tree has "
                f"depth {tree.depth()} — pass bucket parameters instead"
            )
        host_bytes, leaf_b, root_b = level_bytes
        up_bytes = {
            s: (root_b if tree.parent_of(s) is None else leaf_b)
            for s in tree.switches()
        }
    else:
        host_bytes, up_bytes = sparse_tree_bytes(
            tree, total_elements, bucket_span, nnz_per_bucket
        )
    if n_chunks is None:
        n_chunks = sparse_tree_chunks(host_bytes, up_bytes)
    schedule = TreeSchedule(
        label, tree, n_chunks,
        host_bytes=host_bytes,
        up_bytes=up_bytes,
        agg_latency_ns=dict.fromkeys(tree.switches(), agg_latency_ns),
        vector_bytes=total_elements * 4,
        carries_payloads=False,
    )
    # Representative per-level sizes for reporting, as carried: host,
    # first non-root switch level, root.
    first_leaf = next(
        (s for s in tree.switches() if tree.parent_of(s) is not None), tree.root
    )
    schedule.extra.update(
        host_bytes=schedule.host_bytes,
        leaf_bytes=schedule.up_chunk[first_leaf] * n_chunks,
        root_bytes=schedule.down_chunk * n_chunks,
    )
    return schedule
