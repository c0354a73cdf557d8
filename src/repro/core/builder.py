"""Airphant Builder: parse → profile → optimize → persist (§III-C, Fig 3).

The Builder is a Spark pipeline over the corpus DataFrame
``(doc_id, blob, offset, length, text)``:

1. **Parse** — the document-word parser (Catalyst ``split``/``explode``)
   extracts distinct (word, posting) pairs.
2. **Profile** — one pass of DataFrame aggregations collects the corpus
   statistics of §IV-B: total documents/words, distinct terms, the |W_i|
   multiset (as a value-count histogram, so only O(#distinct lengths)
   rows reach the driver), and per-word document frequencies.
3. **Optimize** — Algorithm 1 picks the minimal L for the configured
   (B, F0); the user may instead pin L manually, skipping profiling-based
   optimization exactly as the paper allows.
4. **Persist** — the most common words (1% of the bin budget, §IV-E) get
   exact postings lists; every remaining word is hashed into one bin per
   layer (a vectorized pandas UDF evaluating the same keyed hash as the
   Searcher), bins are aggregated with ``collect_set``, and the driver
   streams the sorted bins through the :class:`SuperpostWriter` into
   compacted block blobs, finally writing the header block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, LongType

from repro.cloud.blobstore import BlobStore
from repro.core.hashing import HashFamily
from repro.core.optimizer import OptimizationResult, minimize_layers
from repro.core.sketch import expected_false_positives
from repro.core.postings import Posting, StringTable, encode_postings
from repro.core.superpost import (
    EMPTY_BIN,
    IndexHeader,
    SuperpostWriter,
    encode_header,
    header_blob_name,
)
from repro.corpora.parsers import tokenize_col


@dataclass(frozen=True)
class BuilderConfig:
    """User-facing Builder configuration (§III-C "Configuring Builder")."""

    bins: int = 1000  # B: total bin budget, common bins included
    f0: float = 1.0  # accuracy: expected false positives per query
    common_fraction: float = 0.01  # share of B reserved for common words
    n_layers: int | None = None  # manual L (skips the optimizer) or None
    seed: int = 0  # base seed for the hash family
    block_size: int = 4 << 20  # superpost block cut size
    extra_layers: int = 0  # L+ replication layers (§IV-G)

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if not 0 <= self.common_fraction < 1:
            raise ValueError("common_fraction must be in [0, 1)")
        if self.n_layers is not None and self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.extra_layers < 0:
            raise ValueError("extra_layers must be >= 0")


@dataclass
class CorpusProfile:
    """Statistics from the profiling pass (§IV-B; Table II columns)."""

    n_docs: int
    n_terms: int
    total_words: int
    doc_word_counts: list[int]  # |W_i| multiset, expanded from the histogram
    sum_wi: int = field(init=False)

    def __post_init__(self):
        self.sum_wi = int(sum(self.doc_word_counts))


@dataclass
class BuildReport:
    """What the Builder hands back: profile, chosen structure, sizes."""

    index_name: str
    profile: CorpusProfile
    n_layers: int
    bins_per_layer: int
    n_common: int
    optimization: OptimizationResult | None
    index_bytes: int
    header_bytes: int
    n_blocks: int


def doc_word_pairs(corpus: DataFrame) -> DataFrame:
    """Distinct (word, blob, offset, length) pairs — the parse step.

    ``doc_id`` is carried along for tests/oracles but the posting itself
    is purely physical (blob + byte range), as in the paper.
    """
    return (
        corpus.select(
            "doc_id",
            "blob",
            "offset",
            "length",
            F.explode(tokenize_col("text")).alias("word"),
        )
        .dropDuplicates(["word", "blob", "offset", "length"])
    )


def profile_corpus(corpus: DataFrame, pairs: DataFrame | None = None) -> CorpusProfile:
    """The single-profiling-pass statistics (§IV-B) via DataFrame aggregates."""
    if pairs is None:
        pairs = doc_word_pairs(corpus)
    n_docs = corpus.count()
    totals = corpus.select(
        F.sum(F.size(tokenize_col("text"))).alias("total_words")
    ).collect()[0]
    n_terms = pairs.select("word").distinct().count()
    # |W_i| histogram: (distinct-words-per-doc, #docs with that count)
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
    return CorpusProfile(
        n_docs=n_docs,
        n_terms=n_terms,
        total_words=int(totals["total_words"] or 0),
        doc_word_counts=counts,
    )


def _encode_postings_pdf(pdf: pd.DataFrame, blob_ids: dict[str, int]) -> bytes:
    """Serialize one group's (blob, offset, length) rows as a superpost.
    Runs on executors; ``encode_postings`` dedupes and delta-encodes."""
    return encode_postings(
        [
            Posting(blob_ids[b], int(o), int(l))
            for b, o, l in zip(pdf["blob"], pdf["offset"], pdf["length"])
        ]
    )


def corpus_string_table(corpus: DataFrame) -> StringTable:
    """String table over the corpus's blob names (sorted for determinism).
    Built up-front so executors can compress blob names to integer ids."""
    names = [r["blob"] for r in corpus.select("blob").distinct().orderBy("blob").collect()]
    return StringTable(names)


def _layer_bins_udf(family: HashFamily):
    """Pandas UDF word → [bin_0..bin_{L-1}]: :meth:`HashFamily.bins` on
    each word, so Builder and Searcher share one word→bin hash."""

    @F.pandas_udf(ArrayType(LongType()))
    def layer_bins(words: pd.Series) -> pd.Series:
        return words.map(family.bins)

    return layer_bins


class AirphantBuilder:
    """Creates one IoU Sketch per corpus and persists it to cloud storage."""

    def __init__(self, spark: SparkSession, store: BlobStore, config: BuilderConfig):
        self.spark = spark
        self.store = store
        self.config = config

    def build(
        self,
        corpus: DataFrame,
        index_name: str,
        profile: CorpusProfile | None = None,
        common_pool: list[str] | None = None,
    ) -> BuildReport:
        """Run the full Builder workflow; returns the build report.

        ``corpus`` must have columns (doc_id, blob, offset, length, text);
        the raw document blobs must already exist in the store (the
        generators in :mod:`repro.corpora.generators` guarantee both).
        ``profile`` and ``common_pool`` (terms pre-sorted by descending
        document frequency) let structure sweeps skip re-profiling the
        same corpus for every (B, L) point.
        """
        cfg = self.config
        pairs = doc_word_pairs(corpus).cache()
        try:
            if profile is None:
                profile = profile_corpus(corpus, pairs)

            n_common = min(int(cfg.common_fraction * cfg.bins), profile.n_terms)
            b_iou = cfg.bins - n_common
            if b_iou < 1:
                raise ValueError("no bins left for IoU layers after common words")

            # Common words: exact postings lists for the most frequent terms.
            common_words: list[str] = []
            if n_common > 0:
                if common_pool is not None and len(common_pool) >= n_common:
                    common_words = list(common_pool[:n_common])
                else:
                    common_words = [
                        r["word"]
                        for r in pairs.groupBy("word")
                        .agg(F.count("*").alias("df"))
                        .orderBy(F.desc("df"), "word")
                        .limit(n_common)
                        .collect()
                    ]
            common_set = set(common_words)

            opt: OptimizationResult | None = None
            if cfg.n_layers is not None:
                n_layers = cfg.n_layers
            else:
                opt = minimize_layers(
                    b_iou, cfg.f0, profile.doc_word_counts, n_terms=profile.n_terms
                )
                n_layers = opt.n_layers
            n_layers_total = n_layers + cfg.extra_layers
            bins_per_layer = max(1, b_iou // n_layers_total)

            family = HashFamily.create(n_layers_total, bins_per_layer, cfg.seed)
            rare = pairs
            if common_set:
                rare = pairs.join(
                    F.broadcast(
                        self.spark.createDataFrame(
                            pd.DataFrame({"word": common_words})
                        )
                    ),
                    on="word",
                    how="left_anti",
                )

            # Superposts are serialized on executors (applyInPandas): the
            # driver streams only (layer, bin, payload) triples, not the
            # tens of millions of raw postings.
            strings = corpus_string_table(corpus)
            blob_ids = {n: i for i, n in enumerate(strings.names())}

            def encode_bin(key, pdf):
                return pd.DataFrame(
                    {
                        "layer": [key[0]],
                        "bin": [key[1]],
                        "payload": [_encode_postings_pdf(pdf, blob_ids)],
                    }
                )

            binned = (
                rare.select(
                    F.posexplode(
                        _layer_bins_udf(family)(F.col("word"))
                    ).alias("layer", "bin"),
                    "blob",
                    "offset",
                    "length",
                )
                .groupBy("layer", "bin")
                .applyInPandas(encode_bin, "layer long, bin long, payload binary")
                .orderBy("layer", "bin")
            )

            writer = SuperpostWriter(self.store, index_name, cfg.block_size)
            pointers = [EMPTY_BIN] * (n_layers_total * bins_per_layer)
            for row in binned.toLocalIterator():
                ptr = writer.append(bytes(row["payload"]))
                pointers[int(row["layer"]) * bins_per_layer + int(row["bin"])] = ptr

            common_ptrs: dict[str, object] = {}
            if common_set:

                def encode_word(key, pdf):
                    return pd.DataFrame(
                        {"word": [key[0]], "payload": [_encode_postings_pdf(pdf, blob_ids)]}
                    )

                common_rows = (
                    pairs.join(
                        F.broadcast(
                            self.spark.createDataFrame(
                                pd.DataFrame({"word": common_words})
                            )
                        ),
                        on="word",
                        how="inner",
                    )
                    .groupBy("word")
                    .applyInPandas(encode_word, "word string, payload binary")
                    .orderBy("word")
                )
                for row in common_rows.toLocalIterator():
                    common_ptrs[row["word"]] = writer.append(bytes(row["payload"]))

            n_blocks = writer.finish()
            # The structure's actual expected false positives (Eq 2) at the
            # realized (B, L) — drives top-K sample sizing (§IV-D). For the
            # L=1 HashTable this is what makes it fetch (almost) everything.
            expected_fp = expected_false_positives(
                float(n_layers_total),
                float(bins_per_layer * n_layers_total),
                profile.doc_word_counts,
                n_terms=profile.n_terms,
            )
            header = IndexHeader(
                seeds=family.seeds,
                bins_per_layer=bins_per_layer,
                pointers=pointers,
                common=common_ptrs,
                string_table=strings,
                n_blocks=n_blocks,
                n_docs=profile.n_docs,
                n_terms=profile.n_terms,
                total_words=profile.total_words,
                f0=cfg.f0,
                meta={
                    "base_layers": float(n_layers),
                    "extra_layers": float(cfg.extra_layers),
                    "bins_total": float(cfg.bins),
                    "sum_wi": float(profile.sum_wi),
                    "expected_fp": float(expected_fp),
                },
            )
            header_bytes = encode_header(header)
            self.store.put(header_blob_name(index_name), header_bytes)

            return BuildReport(
                index_name=index_name,
                profile=profile,
                n_layers=n_layers_total,
                bins_per_layer=bins_per_layer,
                n_common=len(common_ptrs),
                optimization=opt,
                index_bytes=self.store.total_bytes(index_name + "/"),
                header_bytes=len(header_bytes),
                n_blocks=n_blocks,
            )
        finally:
            pairs.unpersist()


def auto_bins(n_docs: int, mean_wi: float, f0: float = 1.0, minimum: int = 64) -> int:
    """Scale the paper's B=1e5 bin budget to a scaled-down corpus.

    Preserving both of the paper's regimes exactly is impossible once
    n_docs shrinks 100-1000x (DESIGN.md §5), so we pin the quantity that
    controls the *shape*: B ~= 0.5 * mean|W_i| * sqrt(n/F0) puts the
    optimizer in the paper's operating point — F(L) crosses F0 at small
    L* (the paper reports L* <= 3 at F0=1; we land at 3-5) while the
    L=1 HashTable still suffers ~2*sqrt(n*F0) false positives per query,
    preserving the Fig 6 ordering and the Fig 10 L-sweep shape.

    A feasibility floor (Lemma 1: min_L F ~= n 2^{-B ln2 / |W_i|}) keeps
    tiny corpora solvable, where the sqrt term alone would reject.
    """
    ratio = max(2.0, n_docs / f0)
    feasible_floor = 1.9 * mean_wi * math.log2(ratio)
    shape_target = 0.5 * mean_wi * math.sqrt(n_docs / f0)
    return max(minimum, int(math.ceil(max(feasible_floor, shape_target))))
