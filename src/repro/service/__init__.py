"""Long-running service mode: workloads, placement, queueing, SLOs.

The subsystem that turns the one-shot collective library into a
steady-state serving system::

    from repro.comm.fabric import Fabric
    from repro.service import FabricService, PoissonWorkload, TenantClass

    fabric = Fabric(n_hosts=32, max_allreduces_per_switch=2)
    workload = PoissonWorkload(
        [TenantClass("prod", weight=4.0, rate_per_s=2000, n_hosts=8),
         TenantClass("batch", weight=1.0, rate_per_s=500, n_hosts=8)],
        seed=7, duration_ns=5e6,
    )
    report = FabricService(fabric, workload).run()
    print(report["fairness"], report["classes"]["prod"]["p99_ns"])

See README "Service mode" for the CLI entry point
(``flare-repro service``) and the trace-file schema.
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "AdmissionQueue": "repro.service.queueing",
    "FabricService": "repro.service.engine",
    "Job": "repro.service.workload",
    "JobScheduler": "repro.service.scheduler",
    "LocalityPackScheduler": "repro.service.scheduler",
    "LoadSpreadScheduler": "repro.service.scheduler",
    "PlacementError": "repro.service.scheduler",
    "PoissonWorkload": "repro.service.workload",
    "SLOStats": "repro.service.slo",
    "TenantClass": "repro.service.workload",
    "TraceWorkload": "repro.service.workload",
    "TRACE_SCHEMA_VERSION": "repro.service.workload",
    "build_scheduler": "repro.service.scheduler",
    "jain_fairness": "repro.service.slo",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
