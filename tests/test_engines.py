"""Spark tests for the five engines: identical results, paper-shaped
access patterns (§V-A / §V-B)."""
import duckdb
import pytest

from repro.baselines.engines import (
    AirphantEngine,
    ElasticLike,
    HashTableEngine,
    LuceneLike,
    SQLiteLike,
    _decode_meta,
    _encode_meta,
)
from repro.cloud.blobstore import BlobStore
from repro.cloud.client import CloudClient
from repro.cloud.latency import LatencyModel
from repro.core.builder import BuilderConfig
from repro.core.postings import StringTable
from repro.corpora import generators as gen

CFG = BuilderConfig(bins=150, f0=1.0, seed=3)


def _client(store, cache_bytes=0):
    return CloudClient(
        store,
        LatencyModel(first_byte_ms=30.0, stream_mbps=40.0, link_mbps=240.0,
                     jitter_sigma=0.0, seed=0),
        cache_bytes=cache_bytes,
    )


@pytest.fixture(scope="module")
def world(spark, tmp_path_factory):
    """One corpus with all five engines built and opened."""
    store = BlobStore(tmp_path_factory.mktemp("eng"))
    corpus = gen.zipf(spark, store, 300, 250, 7, seed=5)
    engines = {}
    for name, cls, kw in [
        ("airphant", AirphantEngine, {"config": CFG}),
        ("lucene", LuceneLike, {}),
        ("elasticsearch", ElasticLike, {}),
        ("sqlite", SQLiteLike, {}),
        ("hashtable", HashTableEngine, {"config": CFG}),
    ]:
        eng = cls(spark, store, _client(store), **kw)
        eng.build(corpus.df, f"z--{name}")
        eng.open()
        engines[name] = eng
    pdf = corpus.df.toPandas()
    return engines, pdf


def _oracle_docs(pdf, word):
    con = duckdb.connect()
    con.register("corpus", pdf)
    rows = con.execute(
        "SELECT doc_id FROM corpus WHERE list_contains(string_split(text, ' '), ?)",
        [word],
    ).fetchall()
    con.close()
    return {r[0] for r in rows}


def _doc_ids(pdf, results):
    by_span = {(r.blob, r.offset): r.doc_id for r in pdf.itertuples()}
    return {by_span[(r.blob, r.posting.offset)] for r in results}


def _probe_words(pdf, step=31):
    return sorted({w for t in pdf.text for w in t.split()})[::step]


class TestResultEquality:
    """All five engines must return exactly the oracle's documents."""

    @pytest.mark.parametrize(
        "name", ["airphant", "lucene", "elasticsearch", "sqlite", "hashtable"]
    )
    def test_engine_matches_oracle(self, world, name):
        engines, pdf = world
        for word in _probe_words(pdf):
            results, stats = engines[name].search(word)
            assert _doc_ids(pdf, results) == _oracle_docs(pdf, word), (name, word)

    def test_all_engines_agree(self, world):
        engines, pdf = world
        for word in _probe_words(pdf, step=47):
            outs = {
                name: _doc_ids(pdf, eng.search(word)[0])
                for name, eng in engines.items()
            }
            assert len({frozenset(v) for v in outs.values()}) == 1

    @pytest.mark.parametrize("name", ["airphant", "lucene", "sqlite"])
    def test_absent_word(self, world, name):
        engines, _ = world
        results, _ = engines[name].search("no-such-token")
        assert results == []

    @pytest.mark.parametrize(
        "name", ["airphant", "lucene", "elasticsearch", "sqlite", "hashtable"]
    )
    def test_topk(self, world, name):
        engines, pdf = world
        word = max(
            {w for t in pdf.text for w in t.split()},
            key=lambda w: len(_oracle_docs(pdf, w)),
        )
        truth = _oracle_docs(pdf, word)
        k = min(3, len(truth))
        results, stats = engines[name].search(word, k=k)
        got = _doc_ids(pdf, results)
        assert len(got) >= k
        assert got <= truth


class TestLookup:
    @pytest.mark.parametrize(
        "name", ["airphant", "lucene", "elasticsearch", "sqlite", "hashtable"]
    )
    def test_lookup_superset_of_truth(self, world, name):
        engines, pdf = world
        eng = engines[name]
        for word in _probe_words(pdf, step=53):
            postings, stats = eng.lookup(word)
            truth = _oracle_docs(pdf, word)
            assert stats.n_candidates == len(postings)
            assert len(postings) >= len(truth)

    def test_exact_baselines_have_no_lookup_fp(self, world):
        engines, pdf = world
        for name in ("lucene", "sqlite", "elasticsearch"):
            for word in _probe_words(pdf, step=53):
                postings, _ = engines[name].lookup(word)
                assert len(postings) == len(_oracle_docs(pdf, word))


class TestAccessPatterns:
    """The latency-shape invariants behind Fig 6 / Fig 8."""

    def test_airphant_lookup_single_batch(self, world):
        engines, pdf = world
        word = next(
            w for w in _probe_words(pdf) if w not in engines["airphant"].searcher.mht.common
        )
        _, stats = engines["airphant"].lookup(word)
        assert stats.lookup_ms <= 45.0  # one batched RTT

    def test_lucene_lookup_is_dependent_reads(self, world):
        engines, pdf = world
        word = _probe_words(pdf)[3]
        _, air = engines["airphant"].lookup(word)
        _, luc = engines["lucene"].lookup(word)
        assert luc.round_trips > air.round_trips
        assert luc.lookup_ms > 2 * air.lookup_ms

    def test_sqlite_between(self, world):
        engines, pdf = world
        words = _probe_words(pdf, step=41)
        air = sum(engines["airphant"].search(w, k=10)[1].total_ms for w in words)
        sqn = sum(engines["sqlite"].search(w, k=10)[1].total_ms for w in words)
        luc = sum(engines["lucene"].search(w, k=10)[1].total_ms for w in words)
        assert air < sqn < luc  # Fig 6 ordering (within-region, no cache)

    def test_hashtable_fetches_more_docs(self, world):
        engines, pdf = world
        words = _probe_words(pdf, step=19)
        ht = sum(engines["hashtable"].search(w)[1].n_fetched for w in words)
        air = sum(engines["airphant"].search(w)[1].n_fetched for w in words)
        assert ht > air  # L=1 has far more false positives to fetch

    def test_hashtable_is_single_layer(self, world):
        engines, _ = world
        assert engines["hashtable"].report.n_layers == 1

    def test_elastic_downloads_chunks(self, world):
        engines, pdf = world
        word = _probe_words(pdf)[5]
        _, es = engines["elasticsearch"].search(word)
        _, luc = engines["lucene"].search(word)
        assert es.bytes_fetched > 5 * luc.bytes_fetched  # 2 MB cache regions

    def test_index_bytes_reported(self, world):
        engines, _ = world
        for eng in engines.values():
            assert eng.index_bytes() > 0


class TestPageCacheEffect:
    def test_cached_lucene_beats_airphant_on_tiny_corpus(self, spark, tmp_path):
        # the Cranfield effect (§V-B0a): with the whole index resident in
        # the page cache, Lucene's traversal is free while Airphant still
        # pays its round trips.
        store = BlobStore(tmp_path)
        corpus = gen.zipf(spark, store, 120, 100, 6, seed=8)
        air = AirphantEngine(spark, store, _client(store), config=CFG)
        air.build(corpus.df, "c--air")
        air.open()
        luc = LuceneLike(spark, store, _client(store, cache_bytes=256 << 20))
        luc.build(corpus.df, "c--luc")
        luc.open()
        pdf = corpus.df.toPandas()
        words = _probe_words(pdf, step=13)
        # warm pass, then measure
        for w in words:
            luc.search(w, k=10)
        luc_ms = sum(luc.search(w, k=10)[1].total_ms for w in words)
        air_ms = sum(air.search(w, k=10)[1].total_ms for w in words)
        assert luc_ms < air_ms


class TestMetaCodec:
    @pytest.mark.parametrize(
        "names, ints, raw",
        [
            (
                ["a", "é"],
                {"seed": [3], "heads": [300, 1]},
                b"\x02\x01a\x02\xc3\xa9\x02\x05heads\x02\xac\x02\x01\x04seed\x01\x03",
            ),
            ([], {}, b"\x00\x00"),
        ],
    )
    def test_roundtrip_pins_bytes(self, names, ints, raw):
        # meta.bin layout: blob names, then named integer lists in key
        # order — pinned so index sizes and open() costs cannot drift.
        assert _encode_meta(StringTable(names), ints) == raw
        strings, got = _decode_meta(raw)
        assert strings.names() == names
        assert got == ints
