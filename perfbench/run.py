"""Host-time benchmark of the TELEPORT simulator, with checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload olap --seed 1 --seconds 20 --trace 0

``--trace 0`` runs one warm-up pass and then whole passes over the
workload's units until ``--seconds`` have elapsed, and reports the
end-to-end metrics: medians over the timed passes of the set-up and
simulation host seconds (calibrated, see ``harness.calibrate``), and the
peak resident memory of the process after its first pass.

``--trace 1`` runs one untraced pass (for counts, virtual quantities and
the untraced simulation time) and then traced passes until ``--seconds``
have elapsed, and reports the per-layer metrics. It also writes the first
traced pass as Chrome trace-event JSON to ``perfbench/out/``.

Every unit's answer is checked against a reference; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import ctypes
import hashlib
import json
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import harness  # noqa: E402
import instrument  # noqa: E402
import spans  # noqa: E402
import units  # noqa: E402

OUT = HERE / "out"

#: glibc's ``mallopt`` parameter for the mmap threshold.
M_MMAP_THRESHOLD = -3


def pin_mmap_threshold():
    """Keep glibc's mmap threshold at its 128 KiB default.

    glibc raises the threshold after the first large free; from then on
    freed arrays stay in the heap, and peak resident memory depends on
    heap fragmentation (it moved by a third between seeds and even between
    launch paths) rather than on the memory the workload holds live.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024)

#: Module-level functions the units call, wrapped as spans when traced.
ENTRY_POINTS = (
    ("db", units, "generate"),
    ("graph", units, "social_graph"),
    ("graph", units, "sssp"),
    ("graph", units, "connected_components"),
    ("mapreduce", units, "make_corpus"),
    ("micro", units, "run_micro"),
)

LAYERS = ("sim", "mem", "ddc", "teleport", "db", "graph", "mapreduce",
          "micro", "serve", "bench")

END_TO_END = (
    ("setup_s", "s"),
    ("sim_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _share(part, base):
    return part / base if base else 0.0


def timed_passes(workload, seconds):
    """A warm-up pass, then timed passes until ``seconds`` have elapsed
    since the start; also the peak resident memory after the warm-up pass,
    which allocates exactly what any pass of the workload allocates."""
    start = time.perf_counter()
    warm = harness.run_pass(workload)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = {r.name: r.digest for r in warm.records}
    timed = []
    while not timed or time.perf_counter() - start < seconds:
        timed.append(harness.run_pass(workload, first_digests=digests))
    return warm, timed, rss_mib


def traced_passes(workload, seconds):
    """One untraced pass, then traced passes until ``seconds`` have elapsed
    since the start."""
    start = time.perf_counter()
    base = harness.run_pass(workload)
    digests = {r.name: r.digest for r in base.records}
    traced = []
    while not traced or time.perf_counter() - start < seconds:
        tracer, patcher = spans.Tracer(), spans.Patcher()
        instrument.install(tracer, patcher, ENTRY_POINTS)
        try:
            result = harness.run_pass(workload, tracer, first_digests=digests)
        finally:
            patcher.restore()
        traced.append((result, tracer))
    return base, traced


def end_to_end_metrics(timed, rss_mib):
    return {
        "setup_s": statistics.median(p.setup_s for p in timed),
        "sim_s": statistics.median(p.sim_s for p in timed),
        "peak_rss_mib": rss_mib,
    }


def model_metrics(base):
    """Simulated quantities of the untraced pass; they repeat exactly."""
    metrics = {}
    for kind in units.KINDS:
        metrics[f"model.virtual_s.{kind}"] = sum(
            r.outcome.virtual_ns for r in base.records
            if r.kind == kind and r.outcome is not None) / 1e9
    metrics["model.digest"] = pass_digest(base)
    return metrics


def pass_digest(result):
    """First 48 bits of a hash over every unit's digest, as an integer."""
    combined = "".join(f"{r.name}={r.digest};" for r in result.records)
    return int(hashlib.sha256(combined.encode()).hexdigest()[:12], 16)


def count_metrics(base):
    """Per-layer counts and virtual quantities of the untraced pass."""
    stats = base.stats()
    counts = {}
    latencies = []
    for record in base.records:
        if record.outcome is None:
            continue
        latencies.extend(record.outcome.detail.get("latencies_ns", ()))
        for key, value in record.outcome.counts.items():
            counts[key] = counts.get(key, 0) + value
    lookups = stats.cache_hits + stats.cache_misses
    requests = counts.get("serve.requests", 0)
    return {
        "ddc.hit_ratio": _share(stats.cache_hits, lookups),
        "ddc.cache_lookups": lookups,
        "ddc.remote_pages": stats.remote_pages_in + stats.remote_pages_out,
        "ddc.dirty_writebacks": stats.dirty_writebacks,
        "mem.storage_faults": stats.storage_faults,
        "sim.messages": stats.rpc_messages,
        "sim.network_mb": stats.network_bytes / 1e6,
        "teleport.pushdowns": stats.pushdown_calls,
        "teleport.coherence_msgs": stats.coherence_messages,
        "teleport.v_overhead_ms": sum(r.overhead_ns for r in base.records) / 1e6,
        "teleport.retries": stats.pushdown_retries,
        "teleport.fallbacks": stats.pushdown_fallbacks,
        "db.operators": counts.get("db.operators", 0),
        "db.pushed_share": _share(counts.get("db.pushed", 0), counts.get("db.operators", 0)),
        "serve.requests": requests,
        "serve.pushed_share": _share(counts.get("serve.pushed", 0), requests),
        "serve.v_queue_ms": counts.get("serve.queue_ns", 0) / 1e6,
        "serve.v_p50_ms": float(np.percentile(latencies, 50)) / 1e6 if latencies else 0.0,
        "serve.v_p99_ms": float(np.percentile(latencies, 99)) / 1e6 if latencies else 0.0,
    }


def trace_metrics(base, traced):
    """Host-time rollups of the traced passes (calibrated medians), and the
    counts the first traced pass made at the access methods."""
    first = traced[0][1]
    counts = first.accesses
    accesses = counts.seq_pages + counts.random
    mr_random, mr_writes, mr_sampled = first.engine_accesses.get("mapreduce", (0, 0, 0))

    def keys(prefix, names=None):
        return [key for key, record in first.records.items() if key.startswith(prefix)
                and (names is None or record.name.split(".")[-1] in names)]

    access_keys = keys("ddc:ExecutionContext.", instrument.ACCESS_METHODS)
    alloc_keys = keys("mem:Process.", ("alloc_array", "alloc", "alloc_like"))
    coherence_keys = keys("teleport:CoherenceProtocol.")

    def calls(keys_):
        return sum(first.records[key].calls for key in keys_)

    def median(fn):
        """Median over traced passes of ``fn(tracer)``, calibrated."""
        return statistics.median(fn(tracer) * result.scale for result, tracer in traced)

    def total(tracer, keys_):
        return sum(tracer.records[key].total for key in keys_ if key in tracer.records)

    metrics = {
        "ddc.calls": calls(access_keys),
        "ddc.accesses": accesses,
        "ddc.random_accesses": counts.random,
        "ddc.sampled_share": _share(counts.sampled, counts.random),
        "ddc.read_share": _share(counts.random - counts.writes, counts.random),
        "ddc.host_ns_per_access": median(lambda t: _share(total(t, access_keys), accesses) * 1e9),
        "mem.cache_calls": calls(keys("mem:PageCache.")),
        "mem.swap_calls": calls(keys("mem:SwapDevice.")),
        "mem.alloc_s": median(lambda t: total(t, alloc_keys)),
        "teleport.coherence_s": median(lambda t: total(t, coherence_keys)),
        "mapreduce.random_accesses": mr_random,
        "mapreduce.write_share": _share(mr_writes, mr_random),
        "mapreduce.sampled_share": _share(mr_sampled, mr_random),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = median(lambda t: t.layer_self().get(layer, 0.0))
    traced_sim = statistics.median(result.sim_s for result, _tracer in traced)
    metrics.update({
        "trace.sim_s": traced_sim,
        "trace.base_sim_s": base.sim_s,
        "trace.overhead": _share(traced_sim, base.sim_s),
        "trace.self_residual": max(
            record.self_residual for result, _tracer in traced for record in result.records),
        "trace.events": len(first.events),
        "host.setup_wall_s": base.raw_setup_s,
        "host.sim_wall_s": base.raw_sim_s,
        "host.calibration_ms": statistics.median(base.calibrations) * 1e3,
    })
    return metrics


def workload_property(name, base, metrics):
    """Whether the property the workload was chosen for holds."""
    if name == "olap":
        return metrics["ddc.sampled_share"] > 0.5 and metrics["ddc.read_share"] > 0.5
    if name == "shuffle":
        return (metrics["mapreduce.random_accesses"] > 0
                and metrics["mapreduce.write_share"] == 1.0
                and metrics["mapreduce.sampled_share"] == 0.0)
    if name == "contention":
        return base.setup_s > base.sim_s
    if name == "serve":
        return metrics["serve.v_queue_ms"] > 0.0
    return False


#: Units of the per-layer metrics; any name not listed is in seconds.
PER_LAYER_UNITS = {
    "ddc.calls": "count", "ddc.accesses": "count", "ddc.random_accesses": "count",
    "ddc.host_ns_per_access": "ns", "ddc.sampled_share": "ratio",
    "ddc.read_share": "ratio", "ddc.hit_ratio": "ratio", "ddc.cache_lookups": "count",
    "ddc.remote_pages": "count", "ddc.dirty_writebacks": "count",
    "mem.cache_calls": "count", "mem.swap_calls": "count", "mem.storage_faults": "count",
    "sim.messages": "count", "sim.network_mb": "MB",
    "teleport.pushdowns": "count", "teleport.coherence_msgs": "count",
    "teleport.v_overhead_ms": "ms", "teleport.retries": "count",
    "teleport.fallbacks": "count",
    "db.operators": "count", "db.pushed_share": "ratio",
    "mapreduce.random_accesses": "count", "mapreduce.write_share": "ratio",
    "mapreduce.sampled_share": "ratio",
    "serve.requests": "count", "serve.pushed_share": "ratio",
    "serve.v_queue_ms": "ms", "serve.v_p50_ms": "ms", "serve.v_p99_ms": "ms",
    "model.digest": "hash", "trace.overhead": "ratio", "trace.self_residual": "ratio",
    "trace.events": "count", "property.holds": "bool", "host.calibration_ms": "ms",
}


def unit_of(name):
    return dict(END_TO_END).get(name) or PER_LAYER_UNITS.get(name, "s")


def write_trace(workload, seed, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(tracer.chrome_trace({"workload": workload, "seed": seed})))
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(units.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_mmap_threshold()

    workload = units.WORKLOADS[args.workload](args.seed, units.SIZES)
    if args.trace:
        base, traced = traced_passes(workload, args.seconds)
        passes = [base] + [result for result, _tracer in traced]
        metrics = count_metrics(base)
        metrics.update(model_metrics(base))
        metrics.update(trace_metrics(base, traced))
        metrics["property.holds"] = int(workload_property(args.workload, base, metrics))
        path = write_trace(args.workload, args.seed, traced[0][1])
        print(f"trace: {path.relative_to(HERE.parent)} ({len(traced)} traced passes)")
    else:
        warm, timed, rss_mib = timed_passes(workload, args.seconds)
        passes = [warm] + timed
        metrics = end_to_end_metrics(timed, rss_mib)
        print(f"timed passes: {len(timed)} (after one warm-up pass); "
              f"model.digest: {pass_digest(warm)}")

    attempted = sum(len(p.records) for p in passes)
    failures = [r for p in passes for r in p.failed]
    print(f"failed_share: {_share(len(failures), attempted):.4f} "
          f"({len(failures)} of {attempted} unit runs)")
    for record in failures[:10]:
        print(f"  FAILED {record.name}: {record.error}")
    for name, value in metrics.items():
        print(f"{name}: {value} {unit_of(name)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
