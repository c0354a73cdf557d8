"""Experiment harness shared by jobs/, tests/, and benchmarks/.

Provides the corpus registry (the 7 datasets of Table II at their
documented scale-down factors), engine construction with per-engine
independent-but-deterministic latency jitter, uniform query-word
sampling (the paper's query prior, §IV-B), and the mean/p99 summaries
the figures report.
"""
from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.baselines.engines import ENGINE_CLASSES, Engine
from repro.cloud.blobstore import BlobStore
from repro.cloud.client import CloudClient
from repro.cloud.latency import REGIONS
from repro.core.builder import BuilderConfig, auto_bins, doc_word_pairs
from repro.core.hashing import hash64
from repro.corpora import generators as gen
from repro.corpora.generators import CorpusHandle

#: The engines in the paper's Fig 6 order.
ENGINE_ORDER = ["airphant", "lucene", "elasticsearch", "sqlite", "hashtable"]

#: Corpus display order of Fig 6 / Table II.
CORPUS_ORDER = ["diag", "unif", "zipf", "cranfield", "hdfs", "windows", "spark"]

#: Synthetic-family scale: the paper's (8,8,1) tuples use nd=nw=1e8;
#: we run (log10 nd, log10 nw) = (5, 5) — a 1000x scale-down.
SYNTH_DOCS = 100_000
SYNTH_WORDS = 100_000
SYNTH_LINE = 10


def make_corpus(
    spark: SparkSession, store: BlobStore, name: str, seed: int = 0
) -> CorpusHandle:
    """Instantiate one of the 7 evaluation corpora (Table II, scaled)."""
    if name == "diag":
        return gen.diag(spark, store, SYNTH_DOCS, seed=seed)
    if name == "unif":
        return gen.unif(spark, store, SYNTH_DOCS, SYNTH_WORDS, SYNTH_LINE, seed=seed)
    if name == "zipf":
        return gen.zipf(spark, store, SYNTH_DOCS, SYNTH_WORDS, SYNTH_LINE, seed=seed)
    if name == "cranfield":
        return gen.cranfield_like(spark, store, seed=seed)
    if name == "hdfs":
        return gen.hdfs_like(spark, store, seed=seed)
    if name == "windows":
        return gen.windows_like(spark, store, seed=seed)
    if name == "spark":
        return gen.spark_like(spark, store, seed=seed)
    raise ValueError(f"unknown corpus {name!r}")


@dataclass
class CorpusStats:
    """Quick pre-build profile used to size B (DESIGN.md §5)."""

    n_docs: int
    n_terms: int
    total_words: int
    mean_wi: float
    doc_word_counts: list[int]


def quick_profile(corpus: DataFrame) -> CorpusStats:
    """One Spark pass: the statistics needed to size the bin budget,
    including the |W_i| histogram (feasibility is driven by the longest
    documents, not the mean)."""
    pairs = doc_word_pairs(corpus)
    hist = (
        pairs.groupBy("doc_id")
        .agg(F.count("*").alias("wi"))
        .groupBy("wi")
        .agg(F.count("*").alias("n"))
        .collect()
    )
    counts: list[int] = []
    for row in hist:
        counts.extend([int(row["wi"])] * int(row["n"]))
    n_terms = pairs.select("word").distinct().count()
    total = corpus.select(
        F.sum(F.size(F.split(F.trim("text"), r"\s+"))).alias("t")
    ).collect()[0]["t"]
    return CorpusStats(
        n_docs=len(counts),
        n_terms=n_terms,
        total_words=int(total),
        mean_wi=sum(counts) / len(counts),
        doc_word_counts=counts,
    )


def default_config(stats: CorpusStats, f0: float = 1.0, **overrides) -> BuilderConfig:
    """The experiments' default BuilderConfig: auto-sized B, F0=1, 1%
    common-word bins — the §V-A parameter set, scaled. B is grown (1.3x
    steps) until Algorithm 1 accepts the actual |W_i| profile, since the
    closed-form sizing can miss when document lengths are heavy-tailed."""
    from repro.core.optimizer import InfeasibleError, minimize_layers

    bins = auto_bins(stats.n_docs, stats.mean_wi, f0)
    if "bins" not in overrides:
        for _ in range(20):
            b_iou = bins - int(0.01 * bins)
            try:
                minimize_layers(b_iou, f0, stats.doc_word_counts, n_terms=stats.n_terms)
                break
            except InfeasibleError:
                bins = int(math.ceil(bins * 1.3))
    kwargs = dict(bins=bins, f0=f0)
    kwargs.update(overrides)
    return BuilderConfig(**kwargs)


#: OS/gcsfuse page-cache budget for the file-backed engines (Lucene,
#: SQLite), per corpus. At paper scale only Cranfield (~1 MB corpus)
#: fits the 2 GB VM's page cache — the reason Lucene is ~8x *faster*
#: than Airphant on Cranfield yet slower everywhere else (§V-B0a). A
#: scaled corpus must scale its cache identically, and 2 GB / 1000+
#: rounds to nothing, so every scaled corpus gets 0 (DESIGN.md §2).
#: Airphant/HashTable spend their memory budget on the in-memory MHT;
#: Elasticsearch's searchable-snapshot chunk cache is modelled
#: separately (cold per query).
PAGE_CACHE_BYTES = {"cranfield": 256 << 20}


def make_engine(
    kind: str,
    spark: SparkSession,
    store: BlobStore,
    region: str = "us",
    threads: int = 32,
    config: BuilderConfig | None = None,
    jitter_seed: int = 0,
    cache_bytes: int = 0,
) -> Engine:
    """Construct an engine with its own independently-seeded latency clock
    (so per-engine jitter streams are deterministic yet uncorrelated)."""
    # hash64 (not Python's hash) so jitter streams survive PYTHONHASHSEED
    model = REGIONS[region].fork(
        seed=hash64(f"{kind}|{region}", jitter_seed) & 0x7FFFFFFF
    )
    cache = cache_bytes if kind in ("lucene", "sqlite") else 0
    client = CloudClient(store, model, threads=threads, cache_bytes=cache)
    cls = ENGINE_CLASSES[kind]
    if kind in ("airphant", "hashtable"):
        return cls(spark, store, client, config=config)
    return cls(spark, store, client)


def sample_query_words(corpus: DataFrame, n: int, seed: int = 0) -> list[str]:
    """Uniform sample (with replacement) over the corpus vocabulary — the
    paper's default query-word distribution p_w = 1/|W| (§IV-B)."""
    vocab = [r["word"] for r in doc_word_pairs(corpus).select("word").distinct().collect()]
    vocab.sort()
    g = np.random.default_rng(seed)
    return [vocab[i] for i in g.integers(0, len(vocab), n)]


def run_queries(engine: Engine, words: list[str], k: int | None = 10) -> pd.DataFrame:
    """Run end-to-end searches; one row of QueryStats per query."""
    rows = []
    for w in words:
        _, stats = engine.search(w, k=k)
        rows.append(vars(stats))
    return pd.DataFrame(rows)


def run_lookups(engine: Engine, words: list[str]) -> pd.DataFrame:
    """Term-index lookups only (Fig 14's workload)."""
    rows = []
    for w in words:
        _, stats = engine.lookup(w)
        rows.append(vars(stats))
    return pd.DataFrame(rows)


def summarize(stats: pd.DataFrame, col: str = "total_ms") -> dict[str, float]:
    """The summary every latency figure reports: mean + 99th percentile."""
    return {
        "mean_ms": float(stats[col].mean()),
        "p99_ms": float(np.percentile(stats[col], 99)),
    }


def build_all_engines(
    spark: SparkSession,
    store: BlobStore,
    corpus: CorpusHandle,
    engines: list[str] | None = None,
    region: str = "us",
    f0: float = 1.0,
    jitter_seed: int = 0,
    cache_bytes: int | None = None,
) -> dict[str, Engine]:
    """Build + open every requested engine over one corpus (Fig 6 setup).

    ``cache_bytes`` overrides the per-corpus page-cache policy (used by
    the Fig 15 size sweep, where the cache budget must stay fixed while
    the corpus outgrows it)."""
    corpus.df.cache()  # five engines profile/aggregate the same corpus
    stats = quick_profile(corpus.df)
    config = default_config(stats, f0=f0)
    cache = (
        cache_bytes
        if cache_bytes is not None
        else PAGE_CACHE_BYTES.get(corpus.name.split("-")[0], 0)
    )
    out: dict[str, Engine] = {}
    for kind in engines or ENGINE_ORDER:
        eng = make_engine(
            kind,
            spark,
            store,
            region=region,
            config=config,
            jitter_seed=jitter_seed,
            cache_bytes=cache,
        )
        eng.build(corpus.df, f"{corpus.name}--{kind}")
        eng.open()
        out[kind] = eng
    return out
