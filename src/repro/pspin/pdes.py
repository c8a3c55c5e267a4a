"""Engine backends: sequential DES vs sharded conservative PDES.

The sequential :class:`~repro.pspin.engine.Simulator` stays the default
engine and the parity oracle; this module is the seam that lets the
fabric (and the bench harness) swap in the sharded parallel engine
without any caller-visible API change:

``build_engine(topology, workers=N, ...)`` returns a ``(sim, net)``
pair.  ``workers=0`` (the default) builds the classic pair.  ``workers
>= 1`` partitions the fabric (``repro.network.shard``), spins the
window-synchronized coordinator (``repro.network.parallel``), and
returns a :class:`ShardedSimulator` whose ``run``/``run_stoppable``/
``step`` drive the PDES barrier protocol — every existing driver loop
(``Fabric.run_until``, service engine, benches) works unchanged.

Synchronization is conservative time-stepping with the fabric's
minimum link latency as lookahead (the window protocol below); it is
the only strategy.  Any reason the sharded engine cannot engage — no
clean cut, more workers than edge switches, a non-cacheable routing
policy, an armed fault injector — degrades *gracefully*: a
``RuntimeWarning`` and the sequential engine, never an error.

Conservative window protocol (coordinator side)
-----------------------------------------------
The coordinator owns the driver loop.  Each barrier it computes the
global minimum next-event time ``T0`` (its own queue, worker-advertised
next events, undelivered cross-shard batches) and grants everyone the
window ``[T0, T0 + lookahead)``.  Any message generated at ``t >= T0``
reaches another shard no earlier than ``t + lookahead``, so every
event strictly inside the window is safe to execute without further
coordination — the classic lookahead argument, with the window length
fixed at exactly the lookahead.  When all workers are idle the
coordinator *free-runs* its local queue (no barriers) until it next
offloads work across a shard boundary — the dynamic
:attr:`~repro.pspin.engine.Simulator.local_bound` that ``run_window``
honors — which makes coordinator-heavy phases (plan execution, service
callbacks) cost nothing extra.
"""

from __future__ import annotations

import warnings

from repro.pspin.engine import Simulator


class ShardedSimulator(Simulator):
    """Drop-in :class:`Simulator` that interleaves local execution with
    PDES window barriers run by an attached coupler (the sharded
    network simulator).

    Uncoupled — or after the coupler disengages (fault recall, worker
    shutdown) — it behaves exactly like the sequential engine.
    """

    def __init__(self) -> None:
        super().__init__()
        self._coupler = None
        #: Granted local window bound (exclusive); persists across
        #: ``stop_requested`` interruptions so a window resumes rather
        #: than re-barriers.
        self._window_stop: float | None = None

    def attach_coupler(self, coupler) -> None:
        self._coupler = coupler

    # ------------------------------------------------------------------
    # Driver API overrides
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        c = self._coupler
        if c is None or not c.engaged:
            return super().run(until)
        while True:
            if self._window_stop is not None:
                self.run_window(self._window_stop)
                self._window_stop = None
            if not c.engaged:
                return super().run(until)
            nxt = c.advance(until)
            if not c.engaged:
                return super().run(until)
            if nxt is None:
                break
            self._window_stop = nxt
        if until is not None and until > self.now:
            self.now = until

    def run_stoppable(self) -> bool:
        c = self._coupler
        if c is None or not c.engaged:
            return super().run_stoppable()
        self.stop_requested = False
        while True:
            if self._window_stop is not None:
                self.run_window(self._window_stop, stoppable=True)
                if self.stop_requested:
                    return True
                self._window_stop = None
            if not c.engaged:
                return super().run_stoppable()
            nxt = c.advance(None)
            if not c.engaged:
                return super().run_stoppable()
            if nxt is None:
                return False
            self._window_stop = nxt

    def step(self) -> bool:
        c = self._coupler
        if c is None or not c.engaged:
            return super().step()
        while True:
            if self._window_stop is not None:
                t = self.peek_time()
                if t is not None and t < self._window_stop and t < self.local_bound:
                    return super().step()
                self._window_stop = None
            if not c.engaged:
                return super().step()
            nxt = c.advance(None)
            if not c.engaged:
                return super().step()
            if nxt is None:
                return False
            self._window_stop = nxt

    # ------------------------------------------------------------------
    # Introspection (merged across shards)
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        local = super().pending
        c = self._coupler
        if c is None or not c.engaged:
            return local
        return local + c.remote_pending()

    @property
    def events_processed(self) -> int:
        c = self._coupler
        extra = c.remote_events() if c is not None else 0
        return self._events_processed + extra


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
def _sequential(topology, router, routing_seed, arbitration):
    from repro.network.simulator import NetworkSimulator

    sim = Simulator()
    net = NetworkSimulator(
        topology, router=router, routing_seed=routing_seed,
        sim=sim, arbitration=arbitration,
    )
    return sim, net


def _window_backend(
    topology, router, routing_seed, arbitration, workers, coordinator_hosts
):
    from repro.network.parallel import ShardedNetworkSimulator
    from repro.network.routing import build_router
    from repro.network.shard import ShardingError, plan_shards

    policy = build_router(router, topology, seed=routing_seed)
    if not policy.cacheable:
        raise ShardingError(
            f"routing policy {policy.name!r} consults live cross-shard link "
            "state and cannot be partitioned"
        )
    plan = plan_shards(topology, workers, coordinator_hosts=coordinator_hosts)
    sim = ShardedSimulator()
    net = ShardedNetworkSimulator(
        topology,
        router=policy,
        routing_seed=routing_seed,
        sim=sim,
        arbitration=arbitration,
        plan=plan,
    )
    return sim, net


def build_engine(
    topology,
    workers: int = 0,
    router=None,
    routing_seed: int = 0,
    arbitration: str = "wfq",
    coordinator_hosts: bool = True,
):
    """Build a ``(sim, net)`` engine pair, sharded when requested.

    Every sharding failure degrades to the sequential engine with a
    :class:`RuntimeWarning` naming the reason — callers never have to
    guard ``workers=N`` against topology shape.
    """
    if workers and workers > 0:
        try:
            return _window_backend(
                topology, router, routing_seed, arbitration,
                workers, coordinator_hosts,
            )
        except Exception as exc:  # ShardingError and friends
            from repro.network.shard import ShardingError

            if not isinstance(exc, ShardingError):
                raise
            warnings.warn(
                f"sharded engine unavailable ({exc}); "
                "falling back to the sequential engine",
                RuntimeWarning,
                stacklevel=2,
            )
    return _sequential(topology, router, routing_seed, arbitration)
