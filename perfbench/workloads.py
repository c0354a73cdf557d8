"""The workloads: generated corpus, index, query stream, and the engine
adapters that drive the program's public API.

Every input is derived from the workload seed: the corpus (the
generator's seed), the query stream, and the simulated-latency stream,
which is forked per operation so a query's network time depends only on
(seed, query index) and not on what ran before it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.engines import LuceneLike
from repro.cloud.blobstore import BlobStore
from repro.cloud.client import CloudClient
from repro.cloud.latency import REGIONS, LatencyModel
from repro.core.builder import AirphantBuilder, BuilderConfig
from repro.core.searcher import AirphantSearcher, Query
from repro.corpora import generators as gen
from repro.harness import CorpusStats, default_config


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "hdfs" | "cranfield"
    n_docs: int
    engine: str  # "airphant" | "lucene"
    queries: str  # "uniform" (single words) | "dnf" (a; a AND b; (a AND b) OR c)
    k: int | None  # top-K; None returns every match
    n_queries: int  # queries in one pass of the stream
    # Index builds in set-up; builder.build_s is the fastest. The first
    # Airphant build in a process is about twice as slow as later ones
    # (Spark starts its Python workers, the JVM compiles), so the Builder's
    # workload builds twice to time a warm build.
    builds: int


HDFS_DOCS = 10_000

WORKLOADS = {
    w.name: w
    for w in [
        Workload("build-search-uniform-hdfs", "hdfs", HDFS_DOCS, "airphant", "uniform", 10, 200, 2),
        Workload("search-dnf-cranfield", "cranfield", 1398, "airphant", "dnf", None, 201, 1),
        Workload("search-skiplist-hdfs", "hdfs", HDFS_DOCS, "lucene", "uniform", 10, 400, 1),
    ]
}


def make_corpus(spark, store: BlobStore, w: Workload, seed: int):
    if w.corpus == "hdfs":
        return gen.hdfs_like(spark, store, n_docs=w.n_docs, seed=seed)
    return gen.cranfield_like(spark, store, n_docs=w.n_docs, seed=seed)


def builder_config(profile: dict) -> BuilderConfig:
    """The experiments' default configuration (auto-sized B, F0 = 1)."""
    counts = profile["doc_word_counts"]
    return default_config(
        CorpusStats(
            n_docs=profile["n_docs"],
            n_terms=profile["n_terms"],
            total_words=profile["total_words"],
            mean_wi=sum(counts) / len(counts),
            doc_word_counts=counts,
        )
    )


# -- query streams ---------------------------------------------------------------


def _stratified(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` uniforms in [0, 1), one per equal slice, in random order, so
    every seed's stream has the same distribution of draws."""
    u = (np.arange(n) + rng.random(n)) / n
    rng.shuffle(u)
    return u


def uniform_queries(vocab: list[str], n: int, rng: np.random.Generator) -> list[list[list[str]]]:
    """Single words drawn uniformly from the vocabulary (the paper's prior)."""
    idx = np.minimum((_stratified(n, rng) * len(vocab)).astype(np.int64), len(vocab) - 1)
    return [[[vocab[i]]] for i in idx]


def dnf_queries(
    words: list[str], counts: list[int], n: int, rng: np.random.Generator
) -> list[list[list[str]]]:
    """Equal thirds of ``a``, ``a AND b`` and ``(a AND b) OR c``. Each word
    position of each shape is drawn (stratified) in proportion to token
    frequency; words are distinct within a query."""
    cdf = np.cumsum(np.asarray(counts, dtype=np.float64))
    cdf /= cdf[-1]
    queries = []
    for n_words in (1, 2, 3):
        columns = [np.searchsorted(cdf, _stratified(n // 3, rng), side="right") for _ in range(n_words)]
        for row in zip(*columns):
            picked: list[int] = []
            for i in row:
                while i in picked:
                    i = np.searchsorted(cdf, rng.random(), side="right")
                picked.append(int(i))
            ws = [words[i] for i in picked]
            queries.append([ws] if n_words < 3 else [ws[:2], ws[2:]])
    return queries


def select_by_answer_size(pool: list, answers: list, n: int, rng: np.random.Generator):
    """``n`` queries of ``pool``: for each query shape, the middle query of
    each of equal-count strata of answer size, so that every seed's stream
    spans the same result sizes. Returns the queries and their answers in
    random order."""
    by_shape: dict[tuple, list[int]] = {}
    for i, clauses in enumerate(pool):
        by_shape.setdefault(tuple(map(len, clauses)), []).append(i)
    picked = []
    for idx in by_shape.values():
        ranked = sorted(idx, key=lambda i: (len(answers[i]), pool[i]))
        picked += [int(stratum[len(stratum) // 2]) for stratum in np.array_split(ranked, n // len(by_shape))]
    picked = [picked[i] for i in rng.permutation(len(picked))]
    return [pool[i] for i in picked], [answers[i] for i in picked]


# -- engines -----------------------------------------------------------------------


def latency_for(seed: int, op: int) -> LatencyModel:
    """The simulated network of one operation: the paper's US region with
    a jitter stream that depends only on (workload seed, operation)."""
    return REGIONS["us"].fork(seed=(seed << 24) + op)


class AirphantTarget:
    """IoU Sketch Builder + Searcher over the simulated cloud client."""

    def __init__(self, spark, store: BlobStore, config: BuilderConfig):
        self.spark, self.store, self.config = spark, store, config
        self.client = CloudClient(store, latency_for(0, 0), threads=32)
        self.index = None
        self.searcher = None

    def build(self, df, index: str) -> None:
        AirphantBuilder(self.spark, self.store, self.config).build(df, index)
        self.index = index

    def open(self) -> float:
        """Open a fresh searcher; returns the simulated header fetch in ms."""
        self.searcher = AirphantSearcher(self.client, self.index)
        return self.searcher.open().total_ms

    def search(self, clauses: list[list[str]], k: int | None):
        return self.searcher.search(Query(clauses), k=k)


class LuceneTarget:
    """The skip-list baseline (Lucene stand-in) over the same client."""

    def __init__(self, spark, store: BlobStore, config: BuilderConfig):
        self.spark, self.store = spark, store
        self.client = CloudClient(store, latency_for(0, 0), threads=32)
        self.engine = None
        self.index = None

    def build(self, df, index: str) -> None:
        LuceneLike(self.spark, self.store, self.client).build(df, index)
        self.index = index

    def open(self) -> float:
        self.engine = LuceneLike(self.spark, self.store, self.client)
        self.engine.index_name = self.index
        self.engine.open()
        return self.client.ledger.elapsed_ms

    def search(self, clauses: list[list[str]], k: int | None):
        if len(clauses) != 1 or len(clauses[0]) != 1:
            raise ValueError("the skip-list engine answers single-word queries")
        return self.engine.search(clauses[0][0], k=k)


TARGETS = {"airphant": AirphantTarget, "lucene": LuceneTarget}
