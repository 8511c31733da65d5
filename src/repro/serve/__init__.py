"""repro.serve — the multi-tenant serving layer.

Admits concurrent SQL/graph/MapReduce clients onto one shared
disaggregated platform, schedules the memory pool's pushdown slots under
pluggable queueing policies, and decides push-down-vs-compute-local per
request from live runtime state. See DESIGN.md §8.

Exports resolve lazily: the microbenchmark imports ``interleave`` from
:mod:`repro.serve.scheduler`, and an eager import of the tenant manager
here would drag the whole db/graph/mapreduce stack into every
microbenchmark import.
"""

_EXPORTS = {
    "Scheduler": "repro.serve.scheduler",
    "Task": "repro.serve.scheduler",
    "TaskState": "repro.serve.scheduler",
    "interleave": "repro.serve.scheduler",
    "PoolScheduler": "repro.serve.pool",
    "QueuePolicy": "repro.serve.pool",
    "QueuedRequest": "repro.serve.pool",
    "TenantShare": "repro.serve.pool",
    "OffloadController": "repro.serve.offload",
    "OffloadPolicy": "repro.serve.offload",
    "OffloadRequest": "repro.serve.offload",
    "Server": "repro.serve.tenant",
    "ServeReport": "repro.serve.tenant",
    "Tenant": "repro.serve.tenant",
    "RequestRecord": "repro.serve.tenant",
    "sql_workload": "repro.serve.adapters",
    "graph_workload": "repro.serve.adapters",
    "mapreduce_workload": "repro.serve.adapters",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
