"""Futures for non-blocking collectives — simulation-native.

``Communicator.iallreduce`` returns a :class:`CollectiveFuture`
immediately; the collective's events are *issued* into the owning
:class:`~repro.comm.fabric.Fabric`'s single discrete-event loop, where
in-flight collectives from every attached tenant interleave and contend
for links and switch resources.  ``future.result()`` drives that shared
loop until the collective completes — no worker threads, no private
simulations, the NCCL/torch.distributed ``async_op`` usage pattern on
top of one fabric-wide clock.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.collectives.result import CollectiveResult
from repro.comm.registry import CommError
from repro.comm.request import CollectiveRequest


class CollectiveError(CommError):
    """A waited-on collective failed.

    Carries the failing request's context — :attr:`index` into the
    waited sequence, :attr:`algorithm`, and the :attr:`request` (shape,
    host count, operator) — with the original failure chained as
    ``__cause__``.
    """

    index: Optional[int] = None
    algorithm: Optional[str] = None
    request: Optional[CollectiveRequest] = None


class CollectiveFuture:
    """Handle to one in-flight collective on a fabric.

    ``timeout`` parameters are accepted for API familiarity but carry
    no meaning: completion is a simulation event, reached by driving
    the fabric's event loop, not by waiting wall-clock time.
    """

    def __init__(
        self,
        request: CollectiveRequest,
        algorithm: str,
        *,
        fabric=None,
        tenant: Optional[str] = None,
    ) -> None:
        self.request = request
        self.algorithm = algorithm
        self.tenant = tenant
        self._fabric = fabric
        self._done = False
        self._result: Optional[CollectiveResult] = None
        self._exception: Optional[BaseException] = None
        self._callbacks: list[Callable[["CollectiveFuture"], None]] = []

    # ------------------------------------------------------------------
    # Completion (called by the fabric, inside the event loop)
    # ------------------------------------------------------------------
    def _settle(
        self,
        result: Optional[CollectiveResult] = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        if self._done:
            raise RuntimeError("future already settled")
        self._done = True
        self._result = result
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    # ------------------------------------------------------------------
    # Waiting
    # ------------------------------------------------------------------
    def result(self, timeout: Optional[float] = None) -> CollectiveResult:
        """Drive the fabric until this collective completes; return its
        result (re-raising its failure, if any)."""
        if not self._done and self._fabric is not None:
            self._fabric.run_until(self)
        if not self._done:
            raise CollectiveError(
                f"collective {self.algorithm!r} was never issued into a "
                "fabric and cannot complete"
            )
        if self._exception is not None:
            raise self._exception
        return self._result

    def wait(self, timeout: Optional[float] = None) -> "CollectiveFuture":
        """MPI-style wait; returns self for chaining."""
        self.result(timeout=timeout)
        return self

    def done(self) -> bool:
        return self._done

    def running(self) -> bool:
        return not self._done

    def cancel(self) -> bool:
        """Issued events cannot be recalled from the loop; always False."""
        return False

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        if not self._done and self._fabric is not None:
            self._fabric.run_until(self)
        return self._exception

    def add_done_callback(self, fn: Callable[["CollectiveFuture"], None]) -> None:
        """Run ``fn(self)`` on completion (immediately if already done)."""
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)


def _context_error(index: int, future: CollectiveFuture, exc: BaseException) -> CollectiveError:
    req = future.request
    err = CollectiveError(
        f"collective #{index} failed: algorithm={future.algorithm!r}, "
        f"shape={int(req.nbytes)} B x {req.n_hosts} hosts, "
        f"op={req.op_name!r}"
        + (f", tenant={future.tenant!r}" if future.tenant else "")
        + f" ({exc})"
    )
    err.index = index
    err.algorithm = future.algorithm
    err.request = req
    return err


def wait_all(
    futures: Sequence[CollectiveFuture], timeout: Optional[float] = None
) -> list[CollectiveResult]:
    """Wait for every future (issue order) and return their results.

    A failure re-raises as :class:`CollectiveError` carrying the
    failing request's algorithm and shape, with the original exception
    chained as ``__cause__``.
    """
    results: list[CollectiveResult] = []
    for i, f in enumerate(futures):
        try:
            results.append(f.result(timeout=timeout))
        except Exception as exc:
            raise _context_error(i, f, exc) from exc
    return results


def wait_any(
    futures: Sequence[CollectiveFuture], timeout: Optional[float] = None
) -> tuple[int, CollectiveResult]:
    """Drive until *some* collective completes; return (index, result).

    Completion order is simulation order: the future whose finishing
    event fires first wins, which under contention is genuinely
    workload-dependent (unlike issue order).  Failures carry the same
    context as :func:`wait_all`.
    """
    if not futures:
        raise ValueError("wait_any() needs at least one future")
    while True:
        for i, f in enumerate(futures):
            if f.done():
                try:
                    return i, f.result(timeout=timeout)
                except Exception as exc:
                    raise _context_error(i, f, exc) from exc
        progressed = False
        stepped: set[int] = set()
        for f in futures:
            if f.done() or f._fabric is None or id(f._fabric) in stepped:
                continue
            stepped.add(id(f._fabric))
            if f._fabric.step():
                progressed = True
                break
        if not progressed:
            raise CollectiveError(
                "wait_any(): no pending future can make progress "
                "(event loops drained or futures never issued)"
            )
