"""One benchmark run: set up a workload, measure it, check every answer.

Load shape: a closed loop with one client. The next query is issued when
the previous ``search()`` returns; the simulated network is charged to
the latency clock, not slept, so a query's latency is its simulated
network time plus the measured wall time of the call.
"""
from __future__ import annotations

import math
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from repro.cloud.blobstore import BlobStore
from perfbench import layers
from perfbench.oracle import Oracle
from perfbench.tracer import Tracer
from perfbench.workloads import (
    TARGETS,
    Workload,
    builder_config,
    dnf_queries,
    latency_for,
    make_corpus,
    select_by_answer_size,
    uniform_queries,
)

#: Opens per run; ``open_ms`` is their median.
OPENS = 101
#: Latency-stream ids of opens start here; queries use their index below it.
OPEN_OPS = 1 << 23
#: Queries generated per query kept; the kept ones span the answer sizes.
POOL = 5


@dataclass
class Samples:
    """Per-operation measurements of one timed phase."""

    qids: list[int] = field(default_factory=list)  # query index of each sample
    net_ms: list[float] = field(default_factory=list)
    cpu_ms: list[float] = field(default_factory=list)
    bytes: list[int] = field(default_factory=list)
    gets: list[int] = field(default_factory=list)
    open_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)


def _check(results, answer: frozenset, k: int | None) -> str | None:
    """None if ``results`` is a correct answer, else what is wrong."""
    got = [(r.blob, r.posting.offset, r.posting.length) for r in results]
    found = set(got)
    if len(found) != len(got):
        return "duplicate results"
    if any(len(r.text.encode("utf-8")) != r.posting.length for r in results):
        return "result text does not match its byte range"
    if k is None and found != answer:
        return f"{len(found - answer)} extra, {len(answer - found)} missing"
    if k is not None and not (found <= answer and len(found) >= min(k, len(answer))):
        return f"top-{k}: {len(found - answer)} extra, {len(found)} of {len(answer)} returned"
    return None


@dataclass
class Setup:
    w: Workload
    seed: int
    store: BlobStore
    corpus: object
    queries: list
    answers: list
    target: object
    corpus_bytes: int
    build_s: float = 0.0  # the fastest of the set-up builds
    index_bytes_ratio: float = 0.0
    searcher_mem_mb: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)  # set-up time by phase


def setup(spark, w: Workload, seed: int, work_dir) -> Setup:
    """Corpus, query stream and its oracle answers, and the index builds."""
    phases: dict[str, float] = {}
    t = time.perf_counter()
    store = BlobStore(work_dir / "store")
    corpus = make_corpus(spark, store, w, seed)
    phases["corpus_s"] = time.perf_counter() - t
    t = time.perf_counter()
    oracle = Oracle(corpus.df.toPandas())
    try:
        rng = np.random.default_rng([seed, 1])
        if w.queries == "uniform":
            pool = uniform_queries(oracle.vocabulary(), POOL * w.n_queries, rng)
        else:
            pool = dnf_queries(*oracle.token_frequencies(), POOL * w.n_queries, rng)
        queries, answers = select_by_answer_size(pool, oracle.answers(pool), w.n_queries, rng)
        config = builder_config(oracle.profile())
    finally:
        oracle.close()
    phases["oracle_s"] = time.perf_counter() - t
    s = Setup(
        w, seed, store, corpus, queries, answers,
        target=TARGETS[w.engine](spark, store, config),
        corpus_bytes=store.total_bytes(corpus.name + "/"),
        phases=phases,
    )
    t = time.perf_counter()
    s.build_s = min(build_index(s, f"index-{i}", spark)["build_s"] for i in range(w.builds))
    phases["builds_s"] = time.perf_counter() - t
    return s


def _op(tracer: Tracer | None, kind: str, op_id: int):
    """The tracer's scope for one operation, or none when untraced."""
    return tracer.op(kind, op_id) if tracer else nullcontext()


def build_index(s: Setup, index: str, spark, tracer: Tracer | None = None) -> dict:
    """One timed build; returns its wall time and Spark job and task counts."""
    sc = spark.sparkContext
    sc.setJobGroup(index, f"build {index}")
    t = time.perf_counter()
    with _op(tracer, "build", 0):
        s.target.build(s.corpus.df, index)
    elapsed = time.perf_counter() - t
    sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(index)
    tasks = 0
    for j in jobs:
        info = tracker.getJobInfo(j)
        for sid in info.stageIds if info else ():
            stage = tracker.getStageInfo(sid)
            tasks += stage.numCompletedTasks if stage else 0
    s.index_bytes_ratio = s.store.total_bytes(index + "/") / s.corpus_bytes
    return {"build_s": elapsed, "spark.jobs": len(jobs), "spark.tasks": tasks}


def open_index(s: Setup, samples: Samples, tracer: Tracer | None = None) -> None:
    """Open the index ``OPENS`` times; each sample is simulated header
    fetch plus measured wall time."""
    for j in range(OPENS):
        s.target.client.model = latency_for(s.seed, OPEN_OPS + j)
        t = time.perf_counter()
        with _op(tracer, "open", j):
            sim_ms = s.target.open()
        samples.open_ms.append(sim_ms + (time.perf_counter() - t) * 1e3)


def searcher_memory_mb(s: Setup) -> float:
    """Python heap held by a freshly opened searcher (untimed pass)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        s.target.open()
        return (tracemalloc.get_traced_memory()[0] - before) / (1 << 20)
    finally:
        tracemalloc.stop()


def query_pass(s: Setup, samples: Samples, tracer: Tracer | None = None) -> None:
    """Every query of the stream once, in order, each checked."""
    for qi, (clauses, answer) in enumerate(zip(s.queries, s.answers)):
        s.target.client.model = latency_for(s.seed, qi)
        samples.attempted += 1
        try:
            t = time.perf_counter()
            with _op(tracer, "query", qi):
                results, stats = s.target.search(clauses, s.w.k)
            cpu_ms = (time.perf_counter() - t) * 1e3
        except Exception as e:  # a failed query is counted, not fatal
            samples.fail(f"query {qi} {clauses}: {type(e).__name__}: {e}")
            continue
        problem = _check(results, answer, s.w.k)
        if problem:
            samples.fail(f"query {qi} {clauses}: {problem}")
            continue
        samples.qids.append(qi)
        samples.net_ms.append(stats.total_ms)
        samples.cpu_ms.append(cpu_ms)
        samples.bytes.append(stats.bytes_fetched)
        samples.gets.append(stats.round_trips)


def measure(s: Setup, spark, seconds: float, tracer: Tracer | None = None) -> tuple[Samples, dict | None]:
    """The timed phase: ``OPENS`` opens of the index, then whole passes over
    the query stream until ``seconds`` of querying have passed. A query's
    CPU time is its minimum over the passes. A traced phase builds the
    index once more first, so that the build's layers are traced too."""
    samples = Samples()
    build = build_index(s, "index-traced", spark, tracer) if tracer else None
    open_index(s, samples, tracer)
    start = time.perf_counter()
    while True:
        query_pass(s, samples, tracer)
        if time.perf_counter() - start >= seconds:
            break
    s.searcher_mem_mb = searcher_memory_mb(s)
    return samples, build


# -- metrics -------------------------------------------------------------------------


def _exact_mean(values) -> float:
    """Mean computed exactly, so it repeats to the last digit whenever the
    multiset of values does up to whole repetitions of the stream."""
    return float(sum(map(Fraction, values)) / len(values))


def per_query(samples: Samples) -> tuple[np.ndarray, np.ndarray]:
    """Each query's simulated network time (mean over passes) and CPU time
    (minimum over passes: other load on the host only ever adds time)."""
    net: dict[int, list[float]] = {}
    cpu: dict[int, float] = {}
    for qi, n, c in zip(samples.qids, samples.net_ms, samples.cpu_ms):
        net.setdefault(qi, []).append(n)
        cpu[qi] = min(c, cpu.get(qi, math.inf))
    order = sorted(cpu)
    return np.array([_exact_mean(net[q]) for q in order]), np.array([cpu[q] for q in order])


def cpu_summary(samples: Samples) -> dict[str, float]:
    """The measured CPU side of the queries: median wall time of
    ``search()`` and the queries one client completes per second of it."""
    cpu = per_query(samples)[1]
    return {"cpu_ms.p50": float(np.median(cpu)), "qps": len(cpu) / (math.fsum(cpu) / 1e3)}


def end_to_end(s: Setup, samples: Samples, setup_s: float, pct: float) -> dict[str, float]:
    net, cpu = per_query(samples)
    query_ms = net + cpu
    return {
        "query_ms.p50": float(np.percentile(query_ms, 50)),
        f"query_ms.p{pct:g}": float(np.percentile(query_ms, pct)),
        "net_ms.mean": _exact_mean(samples.net_ms),
        "bytes_per_query": _exact_mean(samples.bytes),
        "gets_per_query": _exact_mean(samples.gets),
        "open_ms": float(np.median(samples.open_ms)),
        "searcher_mem_mb": s.searcher_mem_mb,
        "index_bytes_ratio": s.index_bytes_ratio,
        "setup_s": setup_s,
        "builder.build_s": s.build_s,
        **cpu_summary(samples),
    }


def traced(s: Setup, spark, seconds: float) -> tuple[dict[str, float], Samples, Tracer]:
    """Half the time untraced, half traced: per-layer metrics from the
    traced half, the untraced CPU figures, and the tracing overhead as the
    difference of the two halves."""
    plain, _ = measure(s, spark, seconds / 2)
    tracer = Tracer()
    layers.install(tracer)
    tracer.enabled = True
    try:
        samples, build = measure(s, spark, seconds / 2, tracer)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    out = layers.per_layer(tracer)
    root = tracer.summary("query")["query"]
    out["trace.query_ms"] = root["total_ms"]
    out["trace.unaccounted_ms"] = root["ms"]
    cpu = cpu_summary(plain)
    out["search.cpu_ms.p50"] = cpu["cpu_ms.p50"]
    out["search.qps"] = cpu["qps"]
    out["trace.overhead_ms"] = cpu_summary(samples)["cpu_ms.p50"] - cpu["cpu_ms.p50"]
    out["builder.build_s"] = s.build_s
    out["spark.jobs"] = build["spark.jobs"]
    out["spark.tasks"] = build["spark.tasks"]
    plain.attempted += samples.attempted
    plain.failed += samples.failed
    plain.errors += samples.errors
    return out, plain, tracer


def report_errors(samples: Samples) -> None:
    for e in samples.errors:
        print(f"FAILED {e}", file=sys.stderr)
