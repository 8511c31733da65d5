"""The benchmark's workloads: units of simulator work, each with a check.

A unit is one (input, platform or mode) pair. Inputs come from the
benchmark seed alone; the program receives only the generated inputs.
Every unit returns its simulated time, the virtual quantities it pins and
its application answer; the answer is checked against a reference that
does not use the simulator.
"""

import dataclasses
import heapq

import numpy as np

from repro.db import QueryExecutor
from repro.db.tpch import (
    build_q1,
    build_q3,
    build_q6,
    build_q9,
    generate,
    reference_q1,
    reference_q3,
    reference_q6,
    reference_q9,
)
from repro.ddc import make_platform
from repro.graph import GraphEngine, connected_components, social_graph, sssp
from repro.mapreduce import GrepJob, MapReduceEngine, WordCountJob, make_corpus
from repro.micro import MicroSpec, run_micro
from repro.serve.adapters import graph_workload, mapreduce_workload, sql_workload
from repro.serve.offload import OffloadPolicy
from repro.serve.pool import QueuePolicy
from repro.serve.tenant import Server
from repro.sim.config import DdcConfig, scaled_config
from repro.sim.units import MIB

KINDS = ("local", "ddc", "teleport")

#: Operators pushed down on TELEPORT, as in Fig 13: the paper's most
#: bandwidth-intensive operator kinds (Section 7.1).
TPCH_PUSHDOWN = ("selection", "projection", "hashjoin", "aggregation", "group")
GRAPH_PUSHDOWN = ("finalize", "gather", "scatter")
MR_PUSHDOWN = ("map_shuffle",)

QUERIES = (("Q1", build_q1), ("Q3", build_q3), ("Q6", build_q6), ("Q9", build_q9))

#: Grep for the 25 hottest words, as the figures do, so the shuffle of
#: matches is large enough to thrash the scaled cache.
GREP_TOKENS = range(25)

#: Input sizes: the figures' quick effort.
SIZES = dict(
    tpch_sf=6.0, graph_vertices=4_000, graph_degree=10,
    corpus_tokens=400_000, corpus_vocabulary=50_000,
    micro_space_mib=192, micro_accesses=20_000,
    sql_rows=40_000, sql_requests=5, mr_tokens=1_500_000, mr_splits=6,
    serve_graph_vertices=4096, graph_requests=4, serve_cache_bytes=2 * MIB,
)

#: Relative tolerance for floating-point answers whose summation order
#: differs between the engine (numpy reductions) and the reference.
RTOL = 1e-9


class CheckFailed(Exception):
    """A unit's output disagreed with its reference."""


@dataclasses.dataclass
class Outcome:
    """What one unit produced.

    ``virtual_ns`` is the simulated time, ``detail`` any further virtual
    quantities that must repeat exactly, ``answer`` the application output
    and ``counts`` the per-layer counts the unit exposes.
    """

    virtual_ns: float
    detail: dict
    answer: object
    counts: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Unit:
    name: str
    #: Platform kind the simulated time is summed under.
    kind: str
    #: ``run(state) -> Outcome``; ``state`` holds the pass's shared inputs.
    run: object
    #: ``check(outcome, state)`` raises :class:`CheckFailed` on a wrong
    #: answer.
    check: object


def _shared(state, key, make):
    """An input generated once per pass and shared by its units."""
    if key not in state:
        state[key] = make()
    return state[key]


def _close(got, expected):
    return bool(np.isclose(got, expected, rtol=RTOL, atol=0.0))


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


class Workload:
    """Base: a named list of units plus checks across units."""

    name = ""

    def __init__(self, seed, sizes):
        self.seed = seed
        self.size = sizes
        self._references = {}

    def reference(self, key, make):
        """A reference answer, computed once per run from the inputs."""
        if key not in self._references:
            self._references[key] = make()
        return self._references[key]

    def units(self):
        raise NotImplementedError

    def cross_check(self, outcomes):
        """Checks spanning units; returns ``{unit name: message}``."""
        return {}


# ----------------------------------------------------------------------
# olap: TPC-H Q1, Q3, Q6 and Q9 on local, ddc and teleport
# ----------------------------------------------------------------------
def _q1_answer(value):
    keys = value.keys.region.array[: value.keys.length]
    values = value.values.region.array[: value.values.length]
    return dict(zip(keys.tolist(), values.tolist()))


class Olap(Workload):
    """The paper's headline workload and the roadmap's hot path: read-mostly,
    with most random accesses in batches the ``ddc`` layer stride-samples.
    Each platform kind runs all four queries in one session, as Fig 13."""

    name = "olap"

    def _dataset(self, state):
        return _shared(state, "tpch", lambda: generate(
            scale_factor=self.size["tpch_sf"], seed=self.seed))

    def units(self):
        return [Unit(f"olap/{kind}", kind, self._runner(kind), self._check)
                for kind in KINDS]

    def _runner(self, kind):
        def run(state):
            dataset = self._dataset(state)
            config = scaled_config(dataset.nbytes, cache_ratio=0.02, seed=self.seed)
            platform = make_platform(kind, config)
            process = platform.new_process()
            tables = dataset.load_into(process)
            ctx = platform.main_context(process)
            executor = QueryExecutor(
                ctx, pushdown=TPCH_PUSHDOWN if kind == "teleport" else None)
            answers, times, operators, pushed = {}, {}, 0, 0
            for query, build in QUERIES:
                result = executor.execute(build(tables))
                value = result.value
                answers[query] = _q1_answer(value) if query == "Q1" else value
                times[query] = result.time_ns
                operators += len(result.profiles)
                pushed += sum(1 for profile in result.profiles if profile.pushed_down)
            return Outcome(
                virtual_ns=sum(times.values()), detail={"query_ns": times},
                answer=answers,
                counts={"db.operators": operators, "db.pushed": pushed},
            )
        return run

    def _check(self, outcome, state):
        dataset = self._dataset(state)
        refs = self.reference("tpch", lambda: {
            "Q1": reference_q1(dataset), "Q3": reference_q3(dataset),
            "Q6": reference_q6(dataset), "Q9": reference_q9(dataset)})
        got = outcome.answer
        for query in ("Q1", "Q9"):
            answer = dict(got[query])
            _require(set(answer) == set(refs[query]),
                     f"{query}: groups differ from the reference")
            for key, expected in refs[query].items():
                _require(_close(answer[key], expected),
                         f"{query}: group {key} is {answer[key]}, reference {expected}")
        ranked = sorted(got["Q3"], key=lambda kv: (-kv[1], kv[0]))
        _require(len(ranked) == len(refs["Q3"]), "Q3: row count differs from the reference")
        for (_key, value), (_ref_key, expected) in zip(ranked, refs["Q3"]):
            _require(_close(value, expected), f"Q3: revenue {value}, reference {expected}")
        _require(_close(got["Q6"], refs["Q6"]), f"Q6: {got['Q6']}, reference {refs['Q6']}")

    def cross_check(self, outcomes):
        answers = {name: outcome.answer for name, outcome in outcomes.items()}
        first = next(iter(answers.values()), None)
        return {name: "answers differ across platforms"
                for name, answer in answers.items() if answer != first}


# ----------------------------------------------------------------------
# shuffle: WordCount, Grep, SSSP and CC on local, ddc and teleport
# ----------------------------------------------------------------------
def dijkstra(n, src, dst, weight, source):
    """Plain-Python shortest paths (the SSSP reference)."""
    adjacency = [[] for _ in range(n)]
    for u, v, w in zip(src.tolist(), dst.tolist(), weight.tolist()):
        adjacency[u].append((v, w))
    dist = [float("inf")] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adjacency[u]:
            candidate = d + w
            if candidate < dist[v]:
                dist[v] = candidate
                heapq.heappush(heap, (candidate, v))
    return np.asarray(dist)


def component_labels(n, src, dst):
    """Plain-Python connected components, each labelled by its least vertex."""
    adjacency = [[] for _ in range(n)]
    for u, v in zip(src.tolist(), dst.tolist()):
        adjacency[u].append(v)
        adjacency[v].append(u)
    labels = [-1] * n
    for root in range(n):
        if labels[root] >= 0:
            continue
        labels[root] = root
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for v in adjacency[u]:
                if labels[v] < 0:
                    labels[v] = root
                    frontier.append(v)
    return np.asarray(labels, dtype=np.int64)


def token_counts(corpus, tokens=None):
    """Numpy count of each token in the corpus (the MapReduce reference)."""
    counts = np.bincount(corpus)
    keys = np.nonzero(counts)[0]
    if tokens is not None:
        keys = keys[np.isin(keys, np.asarray(list(tokens)))]
    return dict(zip(keys.tolist(), counts[keys].tolist()))


class Shuffle(Workload):
    """The ``ddc`` and ``mem`` layers used the other way: MapReduce accesses
    are all writes in batches below the sampling threshold (every access is
    exact), with dirty write-backs, evictions and memory-side coherence."""

    name = "shuffle"

    JOBS = ("WC", "Grep", "SSSP", "CC")

    def units(self):
        return [Unit(f"shuffle/{job}/{kind}", kind, self._runner(job, kind),
                     self._checker(job))
                for job in self.JOBS for kind in KINDS]

    def _corpus(self, state):
        return _shared(state, "corpus", lambda: make_corpus(
            self.size["corpus_tokens"], vocabulary=self.size["corpus_vocabulary"],
            seed=self.seed))

    def _graph(self, state):
        return _shared(state, "graph", lambda: social_graph(
            self.size["graph_vertices"], avg_degree=self.size["graph_degree"],
            seed=self.seed))

    def _runner(self, job, kind):
        def run(state):
            if job in ("WC", "Grep"):
                corpus = self._corpus(state)
                config = scaled_config(corpus.nbytes * 4, cache_ratio=0.02, seed=self.seed)
                ctx = make_platform(kind, config).main_context()
                engine = MapReduceEngine(
                    ctx, corpus, pushdown=MR_PUSHDOWN if kind == "teleport" else ())
                answer = engine.run(WordCountJob() if job == "WC" else GrepJob(GREP_TOKENS))
            else:
                n = self.size["graph_vertices"]
                src, dst, weight = self._graph(state)
                nbytes = src.nbytes + dst.nbytes + weight.nbytes + 4 * n * 8
                config = scaled_config(nbytes, cache_ratio=0.02, seed=self.seed)
                ctx = make_platform(kind, config).main_context()
                engine = GraphEngine(ctx, n, src, dst, weight,
                                     pushdown=GRAPH_PUSHDOWN if kind == "teleport" else ())
                answer = sssp(engine, 0) if job == "SSSP" else connected_components(engine)
            phases = {name: profile.time_ns for name, profile in engine.profiles.items()}
            return Outcome(virtual_ns=engine.total_time_ns(),
                           detail={"phase_ns": phases}, answer=answer)
        return run

    def _checker(self, job):
        def check(outcome, state):
            got = outcome.answer
            if job in ("WC", "Grep"):
                corpus = self._corpus(state)
                expected = self.reference(job, lambda: token_counts(
                    corpus, None if job == "WC" else GREP_TOKENS))
                _require(got == expected, f"{job}: counts differ from the numpy count")
                return
            n = self.size["graph_vertices"]
            src, dst, weight = self._graph(state)
            if job == "SSSP":
                expected = self.reference("SSSP", lambda: dijkstra(n, src, dst, weight, 0))
                finite = np.isfinite(expected)
                _require(np.array_equal(np.isfinite(got), finite)
                         and np.allclose(got[finite], expected[finite], rtol=RTOL, atol=0.0),
                         "SSSP: distances differ from Dijkstra")
            else:
                expected = self.reference("CC", lambda: component_labels(n, src, dst))
                _require(np.array_equal(got, expected), "CC: labels differ from BFS")
        return check

    def cross_check(self, outcomes):
        failures = {}
        for job in ("SSSP", "CC"):
            names = [f"shuffle/{job}/{kind}" for kind in KINDS]
            present = [name for name in names if name in outcomes]
            answers = [outcomes[name].answer for name in present]
            if answers and any(not np.array_equal(a, answers[0]) for a in answers):
                failures.update({name: f"{job}: answers differ across platforms"
                                 for name in present})
        return failures


# ----------------------------------------------------------------------
# contention: the two-thread microbenchmark at three contention rates
# ----------------------------------------------------------------------
class Contention(Workload):
    """Set-up of a 192 MiB space with per-page PTEs is a large share of each
    unit; the run stresses the sequential warm-up, the interleaving
    scheduler and the coherence protocol, and leaves the engines idle."""

    name = "contention"

    RATES = (1e-6, 1e-3, 1e-2)
    MODES = ("base_ddc", "teleport_coherence", "teleport_relaxed")

    def units(self):
        return [Unit(f"contention/{rate:g}/{mode}",
                     "ddc" if mode == "base_ddc" else "teleport",
                     self._runner(rate, mode), lambda outcome, state: None)
                for rate in self.RATES for mode in self.MODES]

    def _runner(self, rate, mode):
        accesses = self.size["micro_accesses"]
        spec = MicroSpec(
            mem_space_bytes=self.size["micro_space_mib"] * MIB,
            n_accesses=accesses,
            ops_per_access=350,
            # Both threads take equal time locally, as in Figs 21-22.
            compute_ops=int(accesses * 267 * 2.1),
            step_size=max(1000, accesses // 20),
            contention_rate=rate,
        )

        def run(state):
            config = scaled_config(spec.mem_space_bytes, cache_ratio=0.02, seed=self.seed)
            result = run_micro(spec, config, mode)
            return Outcome(virtual_ns=result.total_ns,
                           detail=dataclasses.asdict(result), answer=result)
        return run

    def cross_check(self, outcomes):
        failures = {}
        for rate in self.RATES:
            strict = outcomes.get(f"contention/{rate:g}/teleport_coherence")
            relaxed = outcomes.get(f"contention/{rate:g}/teleport_relaxed")
            if strict is None or relaxed is None:
                continue
            if relaxed.answer.coherence_messages > strict.answer.coherence_messages:
                failures[f"contention/{rate:g}/teleport_relaxed"] = (
                    "weak ordering sent more coherence messages than MESI")
        return failures


# ----------------------------------------------------------------------
# serve: the serve-policies tenant mix under three policy cells
# ----------------------------------------------------------------------
class Serve(Workload):
    """The only path through ``serve`` (scheduler, pool queue, offload
    controller) and the most pushdowns per unit of work; the always/fair
    cell puts work in the admission queue."""

    name = "serve"

    CELLS = (
        (OffloadPolicy.ADAPTIVE, QueuePolicy.FIFO),
        (OffloadPolicy.ADAPTIVE, QueuePolicy.FAIR),
        (OffloadPolicy.ALWAYS, QueuePolicy.FAIR),
    )

    def units(self):
        return [Unit(f"serve/{offload.value}/{queue.value}", "teleport",
                     self._runner(offload, queue), self._check)
                for offload, queue in self.CELLS]

    def _expected_requests(self):
        size = self.size
        return {"sql-hot": size["sql_requests"], "mr-cold": size["mr_splits"],
                "mr-burst": size["mr_splits"], "graph": size["graph_requests"]}

    def _runner(self, offload, queue):
        size = self.size
        seed = self.seed

        def run(state):
            config = DdcConfig(compute_cache_bytes=size["serve_cache_bytes"], seed=seed)
            server = Server(config, offload=offload, queue_policy=queue)
            server.admit("sql-hot", sql_workload(
                n_rows=size["sql_rows"], n_requests=size["sql_requests"], seed=seed),
                arrival_ns=0.0, weight=2.0)
            server.admit("mr-cold", mapreduce_workload(
                n_tokens=size["mr_tokens"], n_splits=size["mr_splits"], seed=seed),
                arrival_ns=1e6)
            # A lighter cold tenant arriving mid-stream keeps the admission
            # queue contended, so FIFO and fair share differ.
            server.admit("mr-burst", mapreduce_workload(
                n_tokens=size["mr_tokens"] // 2, n_splits=size["mr_splits"],
                seed=seed + 1), arrival_ns=1.5e6, weight=0.5)
            server.admit("graph", graph_workload(
                n_vertices=size["serve_graph_vertices"],
                n_requests=size["graph_requests"], seed=seed), arrival_ns=2e6)
            report = server.run()
            latencies = report.latencies_ns()
            finished = {t.name: t.finished_ns is not None for t in report.tenants}
            completed = {}
            for record in report.records:
                completed[record.tenant] = completed.get(record.tenant, 0) + 1
            queue_ns = sum(report.queue_delays_ns().values())
            return Outcome(
                virtual_ns=report.makespan_ns,
                detail={"total_completion_ns": report.total_completion_ns,
                        "latencies_ns": latencies, "pushed": report.pushed,
                        "queue_delay_ns": queue_ns},
                answer={"finished": finished, "completed": completed},
                counts={"serve.requests": len(report.records),
                        "serve.pushed": report.pushed,
                        "serve.queue_ns": queue_ns},
            )
        return run

    def _check(self, outcome, state):
        expected = self._expected_requests()
        finished = outcome.answer["finished"]
        completed = outcome.answer["completed"]
        _require(set(finished) == set(expected) and all(finished.values()),
                 "serve: a tenant did not finish")
        for tenant, count in expected.items():
            _require(completed.get(tenant, 0) == count,
                     f"serve: {tenant} completed {completed.get(tenant, 0)} of {count} requests")


WORKLOADS = {cls.name: cls for cls in (Olap, Shuffle, Contention, Serve)}
