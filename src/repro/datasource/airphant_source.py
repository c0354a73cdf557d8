"""``airphant`` — a Spark Python Data Source over the IoU Sketch index.

Usage::

    register(spark)
    df = (
        spark.read.format("airphant")
        .option("path", "/path/to/blobstore/root")
        .option("index", "my-corpus-index")
        .option("query", "hello world OR airphant")   # DNF: OR of AND-clauses
        .load()
    )

Planning (driver): download the header block, reconstruct the MHT, fetch
all required superposts in one concurrent batch, and intersect/union —
exactly the Searcher's lookup. The resulting candidate postings are
split into ``numPartitions`` chunks, one :class:`InputPartition` each.

Scan (executors): every task opens the blob store and range-reads its
chunk of candidate documents — the paper's parallel asynchronous
document retrieval expressed as Spark scan tasks — then filters false
positives by content, so the returned rows are exact matches.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql.datasource import DataSource, DataSourceReader, InputPartition
from pyspark.sql.types import (
    IntegerType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.core.postings import PostingArray, StringTable

SCHEMA = StructType(
    [
        StructField("blob", StringType(), False),
        StructField("offset", LongType(), False),
        StructField("length", LongType(), False),
        StructField("content", StringType(), False),
        StructField("part", IntegerType(), False),
    ]
)


def parse_query(text: str) -> list[list[str]]:
    """Parse a DNF query string: ``OR``-separated clauses of whitespace
    (implicit AND) separated words — e.g. ``"a b OR c"`` → ``[[a,b],[c]]``."""
    clauses = []
    for clause in text.split(" OR "):
        words = [w for w in clause.split() if w and w != "AND"]
        if words:
            clauses.append(words)
    if not clauses:
        raise ValueError(f"empty query: {text!r}")
    return clauses


@dataclass
class _DocPartition(InputPartition):
    """One chunk of candidate documents; self-contained and picklable."""

    part_id: int
    root: str
    strings: StringTable  # blob names of the index
    postings: PostingArray
    clauses: list[list[str]]


class AirphantDataSource(DataSource):
    """Data source entry point (name: ``airphant``)."""

    @classmethod
    def name(cls) -> str:
        return "airphant"

    def schema(self) -> StructType:
        return SCHEMA

    def reader(self, schema: StructType) -> "AirphantReader":
        return AirphantReader(self.options)


class AirphantReader(DataSourceReader):
    """Driver-side lookup + executor-side parallel document scan."""

    def __init__(self, options: dict):
        self.root = options.get("path")
        self.index = options.get("index")
        query = options.get("query")
        if not self.root or not self.index or not query:
            raise ValueError("airphant source requires options: path, index, query")
        self.clauses = parse_query(query)
        self.num_partitions = int(options.get("numpartitions", 4))

    def partitions(self) -> list[InputPartition]:
        # Imports are local so the class pickles cleanly to executors.
        # Planning and scanning measure nothing: the latency experiments
        # go through the engines, not the data source.
        from repro.cloud.blobstore import BlobStore
        from repro.cloud.client import zero_latency_client
        from repro.core.searcher import AirphantSearcher, Query

        searcher = AirphantSearcher(zero_latency_client(BlobStore(self.root)), self.index)
        searcher.open()
        postings = searcher.lookup(Query(self.clauses))
        n_parts = max(1, min(self.num_partitions, len(postings)))
        return [
            _DocPartition(
                part_id=i,
                root=self.root,
                strings=searcher.header.string_table,
                postings=postings[i::n_parts],
                clauses=self.clauses,
            )
            for i in range(n_parts)
        ]

    def read(self, partition: _DocPartition):
        from repro.cloud.blobstore import BlobStore
        from repro.cloud.client import zero_latency_client
        from repro.core.searcher import Query, retrieve_documents

        chunk = partition.postings
        results, _ = retrieve_documents(
            zero_latency_client(BlobStore(partition.root)),
            partition.strings,
            Query(partition.clauses),
            chunk,
            chunk,
        )
        for r in results:
            yield (r.blob, r.posting.offset, r.posting.length, r.text, partition.part_id)


def register(spark) -> None:
    """Register the ``airphant`` format on a SparkSession."""
    spark.dataSource.register(AirphantDataSource)
