"""Spark tests for the `airphant` Python Data Source (V2): keyword search
as a distributed scan, checked against the DuckDB oracle."""
import duckdb
import pytest
from pyspark.sql import functions as F

from repro.cloud.blobstore import BlobStore
from repro.cloud.client import zero_latency_client
from repro.core.builder import AirphantBuilder, BuilderConfig
from repro.core.searcher import AirphantSearcher, Query
from repro.corpora import generators as gen
from repro.datasource.airphant_source import parse_query, register
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def indexed(spark, tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    store = BlobStore(root)
    corpus = gen.zipf(spark, store, 250, 200, 7, seed=9)
    AirphantBuilder(spark, store, BuilderConfig(bins=120, f0=1.0, seed=1)).build(
        corpus.df, "dsidx"
    )
    register(spark)
    return str(root), corpus


def _read(spark, root, query, **opts):
    reader = (
        spark.read.format("airphant")
        .option("path", root)
        .option("index", "dsidx")
        .option("query", query)
    )
    for k, v in opts.items():
        reader = reader.option(k, v)
    return reader.load()


class TestParseQuery:
    def test_single_word(self):
        assert parse_query("hello") == [["hello"]]

    def test_implicit_and(self):
        assert parse_query("a b c") == [["a", "b", "c"]]

    def test_or_clauses(self):
        assert parse_query("a b OR c") == [["a", "b"], ["c"]]

    def test_explicit_and_keyword(self):
        assert parse_query("a AND b OR c") == [["a", "b"], ["c"]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_query("   ")


class TestScan:
    def test_single_word_matches_oracle(self, spark, indexed):
        root, corpus = indexed
        word = corpus.df.select("text").first()["text"].split()[0]
        got = _read(spark, root, word).select("blob", "offset", "length")
        assert_equivalent(
            got,
            f"""
            SELECT blob, "offset", "length" FROM corpus
            WHERE list_contains(string_split(text, ' '), '{word}')
            """,
            corpus=corpus.df,
        )

    def test_content_column_is_document(self, spark, indexed):
        root, corpus = indexed
        word = corpus.df.select("text").first()["text"].split()[0]
        rows = _read(spark, root, word).collect()
        texts = {r["text"] for r in corpus.df.collect()}
        assert rows
        for r in rows:
            assert r["content"] in texts
            assert word in r["content"].split()

    def test_and_query(self, spark, indexed):
        root, corpus = indexed
        toks = corpus.df.select("text").first()["text"].split()
        w1, w2 = toks[0], toks[-1]
        got = _read(spark, root, f"{w1} {w2}").select("blob", "offset")
        assert_equivalent(
            got,
            f"""
            SELECT blob, "offset" FROM corpus
            WHERE list_contains(string_split(text, ' '), '{w1}')
              AND list_contains(string_split(text, ' '), '{w2}')
            """,
            corpus=corpus.df,
        )

    def test_or_query(self, spark, indexed):
        root, corpus = indexed
        rows = corpus.df.select("text").take(3)
        w1 = rows[1]["text"].split()[0]
        w2 = rows[2]["text"].split()[0]
        got = _read(spark, root, f"{w1} OR {w2}").select("blob", "offset")
        assert_equivalent(
            got,
            f"""
            SELECT blob, "offset" FROM corpus
            WHERE list_contains(string_split(text, ' '), '{w1}')
               OR list_contains(string_split(text, ' '), '{w2}')
            """,
            corpus=corpus.df,
        )

    def test_scan_equals_searcher(self, spark, indexed):
        # The scan and AirphantSearcher.search return the same documents.
        root, corpus = indexed
        rows = corpus.df.select("text").take(3)
        first = rows[0]["text"].split()
        w1, w2, w3 = first[0], first[-1], rows[2]["text"].split()[0]
        searcher = AirphantSearcher(zero_latency_client(BlobStore(root)), "dsidx")
        searcher.open()
        for text in (w1, f"{w1} {w2}", f"{w1} OR {w3}"):
            got = {
                (r["blob"], r["offset"], r["length"])
                for r in _read(spark, root, text).collect()
            }
            results, _ = searcher.search(Query(parse_query(text)))
            want = {(r.blob, r.posting.offset, r.posting.length) for r in results}
            assert want
            assert got == want

    def test_absent_word_empty_scan(self, spark, indexed):
        root, _ = indexed
        assert _read(spark, root, "no-such-word").count() == 0

    def test_partitioned_scan(self, spark, indexed):
        # parallel async scan tasks: rows spread over several partitions
        root, corpus = indexed
        word = max(
            {w for r in corpus.df.collect() for w in r["text"].split()},
            key=lambda w: sum(w in r["text"].split() for r in corpus.df.collect()),
        )
        df = _read(spark, root, word, numpartitions="4")
        parts = df.select("part").distinct().count()
        assert parts >= 2
        assert df.count() == _read(spark, root, word, numpartitions="1").count()

    def test_missing_options_rejected(self, spark, indexed):
        root, _ = indexed
        with pytest.raises(Exception):
            spark.read.format("airphant").option("path", root).load().count()

    def test_no_false_positives_in_scan(self, spark, indexed):
        root, corpus = indexed
        vocab = sorted({w for r in corpus.df.collect() for w in r["text"].split()})
        for word in vocab[::37]:
            for r in _read(spark, root, word).collect():
                assert word in r["content"].split()
