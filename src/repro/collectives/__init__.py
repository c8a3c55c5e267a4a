"""Host-based and in-network collectives on the network simulator.

:mod:`repro.collectives.schedule` holds the algorithms as data: host
exchange tables (``ring``, ``swing``, ``butterfly``, ``rabenseifner``,
``recursive_doubling``, and SparCML's split allreduce as a size-only
``rabenseifner`` table) and in-network aggregation trees
(``flare_dense``, ``flare_sparse``), each run by one interpreter that
owns payload carriage, the Sec. 4.1 duplicate filter, completion and
the result.  They produce the completion times and traffic volumes of
Fig. 15 and reduce real payloads bitwise.

All of them are registered in the :mod:`repro.comm` algorithm
registry; use them through ``repro.comm.Communicator``.
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "CollectiveResult": "repro.collectives.result",
    "ExchangeTable": "repro.collectives.schedule",
    "TreeSchedule": "repro.collectives.schedule",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
