"""Synthetic corpora matching the paper's datasets at laptop scale.

Every generator writes the raw corpus to a :class:`BlobStore` as
newline-delimited document blobs (the paper's default corpus layout,
§III-A) and returns a :class:`CorpusHandle` whose Spark DataFrame has one
row per document: ``(doc_id, blob, offset, length, text)`` — the byte
range is exactly what a posting records.

Synthetic families from §V-A (size tuple (log10 nd, log10 nw, log10 nl)):

* ``diag`` — document i contains only word w_i (n_l = 1);
* ``unif`` — each word uniform over an n_w-word dictionary;
* ``zipf`` — Zipfian with exponent 1.07.

Real-corpus stand-ins (offline substitution, DESIGN.md §2): generators
whose (#docs, #terms, words/doc) ratios follow Table II's shape:

* ``cranfield_like`` — natural-text Zipf abstracts: 1398 docs, ~5.3e3
  terms, ~86 words/doc (matches Table II at full scale);
* ``hdfs_like`` / ``windows_like`` / ``spark_like`` — templated log
  lines (constant template words + variable entity IDs), scaled down by
  the documented factor while preserving the terms/docs ratio and
  words-per-line of the Loghub originals.

Generation is numpy-on-driver then ``spark.createDataFrame``, which is
appropriate for the <= 2e5-doc scale here; profiling and index building
downstream are fully Spark.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.cloud.blobstore import BlobStore

#: Per-corpus scale-down factors vs the paper (documents). Table II sizes
#: divided by these give our defaults below; EXPERIMENTS.md reports them.
#: The factors are chosen so each stand-in keeps its defining regime:
#: #terms exceeds the (auto-scaled) bin budget, so bins really merge many
#: words and the L=1 HashTable pays the paper's false-positive penalty.
SCALE_FACTORS = {
    "cranfield": 1,  # full scale — the paper's smallest corpus
    "hdfs": 110,  # 1.1e7 -> 1.0e5 documents
    "windows": 110,  # 1.1e8 -> 1.0e6 documents
    "spark": 165,  # 3.3e7 -> 2.0e5 documents
}


@dataclass
class CorpusHandle:
    """A generated corpus: its name, Spark view, and storage location."""

    name: str
    df: DataFrame  # (doc_id, blob, offset, length, text)
    store: BlobStore
    n_docs: int


def write_corpus(
    spark: SparkSession,
    store: BlobStore,
    name: str,
    texts: "list[str] | pd.Series",
    docs_per_blob: int = 20_000,
) -> CorpusHandle:
    """Pack documents into newline-delimited blobs and return the handle.

    Documents must not contain newlines (the corpus-document delimiter).
    Offsets/lengths are computed vectorized so million-document corpora
    pack in seconds.
    """
    texts = pd.Series(texts, dtype="string").reset_index(drop=True)
    if texts.str.contains("\n").any():
        raise ValueError("documents must be newline-free")
    lengths = texts.str.len().to_numpy(dtype=np.int64)  # ASCII generators
    n = len(texts)
    frames = []
    for start in range(0, n, docs_per_blob):
        stop = min(start + docs_per_blob, n)
        blob_name = f"{name}/corpus-{start // docs_per_blob:05d}.txt"
        chunk_len = lengths[start:stop]
        offsets = np.concatenate([[0], np.cumsum(chunk_len[:-1] + 1)])
        payload = ("\n".join(texts.iloc[start:stop]) + "\n").encode("utf-8")
        store.put(blob_name, payload)
        frames.append(
            pd.DataFrame(
                {
                    "doc_id": np.arange(start, stop, dtype=np.int64),
                    "blob": blob_name,
                    "offset": offsets,
                    "length": chunk_len,
                    "text": texts.iloc[start:stop].to_numpy(),
                }
            )
        )
    pdf = pd.concat(frames, ignore_index=True)
    df = spark.createDataFrame(pdf)
    return CorpusHandle(name=name, df=df, store=store, n_docs=n)


# -- synthetic families (§V-A) ------------------------------------------------


def _vocab(n_words: int) -> np.ndarray:
    return np.array([f"w{i}" for i in range(n_words)])


def diag(spark: SparkSession, store: BlobStore, n_docs: int, seed: int = 0) -> CorpusHandle:
    """diag(x, x, 0): document i contains exactly the single word w_i."""
    texts = [f"w{i}" for i in range(n_docs)]
    return write_corpus(spark, store, f"diag-{n_docs}", texts)


def unif(
    spark: SparkSession,
    store: BlobStore,
    n_docs: int,
    n_words: int,
    words_per_doc: int,
    seed: int = 0,
) -> CorpusHandle:
    """unif: every word sampled uniformly from an ``n_words`` dictionary."""
    g = np.random.default_rng(seed)
    vocab = _vocab(n_words)
    idx = g.integers(0, n_words, size=(n_docs, words_per_doc))
    texts = [" ".join(vocab[row]) for row in idx]
    return write_corpus(spark, store, f"unif-{n_docs}", texts)


def _zipf_probs(n_words: int, alpha: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n_words + 1) ** alpha
    return p / p.sum()


def zipf(
    spark: SparkSession,
    store: BlobStore,
    n_docs: int,
    n_words: int,
    words_per_doc: int,
    alpha: float = 1.07,
    seed: int = 0,
    name: str | None = None,
) -> CorpusHandle:
    """zipf: word j drawn with probability ∝ 1/j^alpha (paper uses 1.07)."""
    g = np.random.default_rng(seed)
    vocab = _vocab(n_words)
    idx = g.choice(n_words, size=(n_docs, words_per_doc), p=_zipf_probs(n_words, alpha))
    texts = [" ".join(vocab[row]) for row in idx]
    return write_corpus(spark, store, name or f"zipf-{n_docs}", texts)


# -- real-corpus stand-ins -----------------------------------------------------


def cranfield_like(
    spark: SparkSession, store: BlobStore, n_docs: int = 1398, seed: int = 0
) -> CorpusHandle:
    """Cranfield 1400 stand-in: aerodynamics abstracts → Zipf natural text.

    Targets Table II: 1.4e3 docs, 5.3e3 terms, 1.2e5 total words
    (~86 words/doc), sigma_X ~= 0.51. Doc lengths are lognormal around 86.
    """
    g = np.random.default_rng(seed)
    n_vocab = 5_300
    vocab = np.array([f"t{i}" for i in range(n_vocab)])
    probs = _zipf_probs(n_vocab, 1.0)
    lengths = np.clip(g.lognormal(mean=np.log(80), sigma=0.45, size=n_docs), 10, 400)
    texts = [
        " ".join(vocab[g.choice(n_vocab, size=int(ln), p=probs)]) for ln in lengths
    ]
    return write_corpus(spark, store, "cranfield", texts)


def _log_like(
    store_name: str,
    spark: SparkSession,
    store: BlobStore,
    n_docs: int,
    n_templates: int,
    template_len: int,
    entity_prefixes: list[str],
    entity_pool: int,
    entities_per_line: int,
    seed: int,
) -> CorpusHandle:
    """Templated log corpus: each line = one template's constant words plus
    a few variable entity tokens (block ids, session ids, task ids).

    Term count ~= template vocabulary + ``entity_pool`` × prefixes, so the
    terms/docs ratio is controlled by ``entity_pool`` — exactly why HDFS
    has many terms (block ids ~ docs) while Windows has few (Table II).
    """
    g = np.random.default_rng(seed)
    # Template vocabulary: per-template constant words, with some shared
    # level words (INFO/WARN/ERROR) as extremely common words (§IV-E fodder).
    levels = np.array(["INFO", "WARN", "ERROR"])
    templates = np.array(
        [
            " ".join(
                [f"{store_name}.comp{t % 12}", f"ev{t}"]
                + [f"m{t}_{j}" for j in range(template_len - 3)]
            )
            for t in range(n_templates)
        ]
    )
    # Fully vectorized assembly (windows-scale corpora reach 1e6 lines).
    parts = pd.Series(levels[g.integers(0, 3, n_docs)]) + " "
    parts = parts + pd.Series(templates[g.integers(0, n_templates, n_docs)])
    for j in range(entities_per_line):
        prefix = entity_prefixes[j % len(entity_prefixes)]
        ids = g.integers(0, entity_pool, n_docs)
        parts = parts + (" " + prefix) + pd.Series(ids).astype(str)
    return write_corpus(spark, store, store_name, parts.tolist())


def hdfs_like(
    spark: SparkSession, store: BlobStore, n_docs: int = 100_000, seed: int = 1
) -> CorpusHandle:
    """HDFS stand-in (paper: 1.1e7 docs, 3.6e6 terms — terms/docs ~ 0.33,
    ~13 words/line; block ids dominate the vocabulary)."""
    return _log_like(
        "hdfs", spark, store, n_docs,
        n_templates=30, template_len=9,
        entity_prefixes=["blk_"], entity_pool=max(1, n_docs // 3),
        entities_per_line=2, seed=seed,
    )


def windows_like(
    spark: SparkSession, store: BlobStore, n_docs: int = 1_000_000, seed: int = 2
) -> CorpusHandle:
    """Windows stand-in (paper: 1.1e8 docs, 8.3e5 terms — terms/docs ~
    0.0075, ~15 words/line; small session-id vocabulary, high repetition).
    The largest corpus here as in the paper: its #terms must exceed the
    bin budget for the HashTable baseline to show its worst case."""
    return _log_like(
        "windows", spark, store, n_docs,
        n_templates=50, template_len=12,
        entity_prefixes=["sess_", "cbs_"], entity_pool=max(1, int(n_docs * 0.0034)),
        entities_per_line=2, seed=seed,
    )


def spark_like(
    spark: SparkSession, store: BlobStore, n_docs: int = 200_000, seed: int = 3
) -> CorpusHandle:
    """Spark-log stand-in (paper: 3.3e7 docs, 5.2e6 terms — terms/docs ~
    0.157, ~11 words/line; task/stage ids in the middle of the skew)."""
    return _log_like(
        "spark", spark, store, n_docs,
        n_templates=40, template_len=8,
        entity_prefixes=["task_", "stage_"], entity_pool=max(1, int(n_docs * 0.078)),
        entities_per_line=2, seed=seed,
    )
