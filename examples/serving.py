"""Serving: many tenants, one disaggregated platform, adaptive pushdown.

Admits a mixed-residency tenant mix — a cache-hot SQL client, a cold
MapReduce client streaming a corpus, a graph client answering k-hop
queries — and serves them under each offload policy. The memory pool runs
one pushdown per TELEPORT instance (one by default), so pushdowns queue
under the configured admission policy; the adaptive controller decides per request whether
pushing down beats faulting the data into the compute pool.

Run:  python examples/serving.py
"""

from repro.bench.serving import serve_mixed
from repro.serve import OffloadPolicy, QueuePolicy


def main():
    print("Mixed-residency tenant mix (sql-hot / mr-cold / mr-burst / graph)")
    print("on one TELEPORT instance, weighted-fair admission.\n")
    totals = {}
    for offload in (OffloadPolicy.NEVER, OffloadPolicy.ALWAYS,
                    OffloadPolicy.ADAPTIVE):
        report = serve_mixed(offload, QueuePolicy.FAIR)
        totals[offload.value] = report.total_completion_ns
        print(f"== offload={offload.value}  "
              f"(pushed {report.pushed}/{len(report.records)} requests, "
              f"{report.throughput_rps:.0f} req/s) ==")
        print(report.latency_table())
        delays = {name: f"{ns / 1e6:.3f}ms"
                  for name, ns in report.queue_delays_ns().items() if ns > 0}
        if delays:
            print(f"queue delays: {delays}")
        print()

    best = min(totals, key=totals.get)
    print("total completion time (sum over tenants):")
    for name, total in totals.items():
        marker = "  <-- best" if name == best else ""
        print(f"  {name:9s} {total / 1e6:9.3f} ms{marker}")


if __name__ == "__main__":
    main()
