"""Spark tests for the Airphant Searcher: correctness against the DuckDB
oracle (no false negatives; perfect precision after filtering), top-K,
boolean queries, and replication."""
import duckdb
import pandas as pd
import pytest

from repro.cloud.blobstore import BlobStore
from repro.cloud.client import CloudClient, zero_latency_client
from repro.cloud.latency import LatencyModel
from repro.core.builder import AirphantBuilder, BuilderConfig
from repro.core.searcher import AirphantSearcher, Query
from repro.corpora import generators as gen

CFG = BuilderConfig(bins=150, f0=1.0, seed=2)


def _timed_client(store, seed=0):
    return CloudClient(
        store,
        LatencyModel(first_byte_ms=30.0, stream_mbps=40.0, link_mbps=240.0,
                     jitter_sigma=0.0, seed=seed),
    )


@pytest.fixture(scope="module")
def built(spark, tmp_path_factory):
    """One built index shared by this module's tests."""
    store = BlobStore(tmp_path_factory.mktemp("idx"))
    corpus = gen.zipf(spark, store, 400, 300, 8, seed=4)
    AirphantBuilder(spark, store, CFG).build(corpus.df, "z")
    pdf = corpus.df.toPandas()
    return store, pdf


def _oracle_docs(pdf: pd.DataFrame, word: str) -> set[int]:
    con = duckdb.connect()
    con.register("corpus", pdf)
    rows = con.execute(
        "SELECT doc_id FROM corpus WHERE list_contains(string_split(text, ' '), ?)",
        [word],
    ).fetchall()
    con.close()
    return {r[0] for r in rows}


def _result_doc_ids(pdf: pd.DataFrame, results) -> set[int]:
    by_span = {(r.blob, r.offset): r.doc_id for r in pdf.itertuples()}
    return {by_span[(r.blob, r.posting.offset)] for r in results}


def _open_searcher(store) -> AirphantSearcher:
    s = AirphantSearcher(zero_latency_client(store), "z")
    s.open()
    return s


class TestCorrectness:
    def test_search_equals_oracle_for_many_words(self, built):
        store, pdf = built
        s = _open_searcher(store)
        vocab = sorted({w for t in pdf.text for w in t.split()})
        for word in vocab[::17]:
            results, stats = s.search(word)
            assert _result_doc_ids(pdf, results) == _oracle_docs(pdf, word)
            assert stats.n_results == len(results)

    def test_lookup_is_superset_of_truth(self, built):
        # no false negatives at the postings level (before doc filtering)
        store, pdf = built
        s = _open_searcher(store)
        vocab = sorted({w for t in pdf.text for w in t.split()})
        for word in vocab[::29]:
            postings = s.lookup(word)
            spans = {
                (s.header.string_table.name(p.blob_id), p.offset) for p in postings
            }
            truth = {
                (r.blob, r.offset)
                for r in pdf.itertuples()
                if word in r.text.split()
            }
            assert truth <= spans

    def test_false_positives_filtered(self, built):
        store, pdf = built
        s = _open_searcher(store)
        vocab = sorted({w for t in pdf.text for w in t.split()})
        total_fp = 0
        for word in vocab[::23]:
            results, stats = s.search(word)
            for r in results:
                assert word in r.text.split()  # perfect precision
            total_fp += stats.n_false_positives
        # the sketch was built at F0=1: a handful of FPs is expected and
        # they never leak into results.
        assert total_fp >= 0

    def test_unseen_word_returns_empty(self, built):
        store, _ = built
        s = _open_searcher(store)
        results, stats = s.search("never-a-word")
        assert results == []

    def test_common_word_path_exact(self, built):
        store, pdf = built
        s = _open_searcher(store)
        common = sorted(s.mht.common)
        assert common, "zipf corpus must have common words at 1% bins"
        word = common[0]
        results, stats = s.search(word)
        assert _result_doc_ids(pdf, results) == _oracle_docs(pdf, word)
        assert stats.n_false_positives == 0  # exact postings list


class TestQueryShape:
    def test_single_batch_lookup(self, built):
        # the paper's core property: term lookup is ONE batch of
        # concurrent requests, regardless of L.
        store, pdf = built
        s = AirphantSearcher(_timed_client(store), "z")
        s.open()
        vocab = sorted({w for t in pdf.text for w in t.split()})
        word = next(w for w in vocab if w not in s.mht.common)
        ledger = s.client.begin_query()
        s.lookup(word)
        assert ledger.batches <= 1
        assert ledger.elapsed_ms <= 45.0  # ~1 RTT, not L RTTs

    def test_search_two_batches(self, built):
        store, pdf = built
        s = AirphantSearcher(_timed_client(store), "z")
        s.open()
        word = pdf.text.iloc[0].split()[0]
        _, stats = s.search(word)
        assert stats.round_trips >= 2
        assert stats.total_ms == pytest.approx(stats.lookup_ms + stats.doc_ms)

    def test_open_is_single_request(self, built):
        store, _ = built
        s = AirphantSearcher(_timed_client(store), "z")
        stats = s.open()
        assert stats.round_trips == 1

    def test_search_before_open_rejected(self, built):
        store, _ = built
        s = AirphantSearcher(zero_latency_client(store), "z")
        with pytest.raises(RuntimeError):
            s.search("x")


class TestTopK:
    def test_topk_returns_at_least_k_when_available(self, built):
        store, pdf = built
        s = _open_searcher(store)
        # pick a word with many relevant docs (a common one)
        word = max(
            {w for t in pdf.text for w in t.split()},
            key=lambda w: len(_oracle_docs(pdf, w)),
        )
        truth = _oracle_docs(pdf, word)
        k = min(5, len(truth))
        results, stats = s.search(word, k=k)
        assert len(results) >= k
        assert stats.n_fetched <= stats.n_candidates

    def test_topk_fetches_fewer_docs(self, built):
        store, pdf = built
        s = _open_searcher(store)
        word = max(
            {w for t in pdf.text for w in t.split()},
            key=lambda w: len(_oracle_docs(pdf, w)),
        )
        _, full = s.search(word)
        _, top = s.search(word, k=2)
        assert top.n_fetched <= full.n_fetched

    def test_topk_results_are_exact_matches(self, built):
        store, pdf = built
        s = _open_searcher(store)
        results, _ = s.search(pdf.text.iloc[3].split()[0], k=3)
        for r in results:
            assert r.text in set(pdf.text)


class TestBooleanQueries:
    def test_and_query(self, built):
        store, pdf = built
        s = _open_searcher(store)
        w1, w2 = pdf.text.iloc[0].split()[0], pdf.text.iloc[0].split()[-1]
        results, _ = s.search(Query([[w1, w2]]))
        got = _result_doc_ids(pdf, results)
        truth = _oracle_docs(pdf, w1) & _oracle_docs(pdf, w2)
        assert got == truth

    def test_or_query(self, built):
        store, pdf = built
        s = _open_searcher(store)
        w1 = pdf.text.iloc[1].split()[0]
        w2 = pdf.text.iloc[2].split()[0]
        results, _ = s.search(Query([[w1], [w2]]))
        assert _result_doc_ids(pdf, results) == _oracle_docs(pdf, w1) | _oracle_docs(pdf, w2)

    def test_dnf_query(self, built):
        store, pdf = built
        s = _open_searcher(store)
        t0, t1 = pdf.text.iloc[0].split(), pdf.text.iloc[5].split()
        q = Query([[t0[0], t0[1]], [t1[0]]])
        results, _ = s.search(q)
        truth = (_oracle_docs(pdf, t0[0]) & _oracle_docs(pdf, t0[1])) | _oracle_docs(
            pdf, t1[0]
        )
        assert _result_doc_ids(pdf, results) == truth

    def test_boolean_single_batch(self, built):
        store, pdf = built
        s = AirphantSearcher(_timed_client(store), "z")
        s.open()
        w1 = pdf.text.iloc[1].split()[0]
        w2 = pdf.text.iloc[2].split()[0]
        ledger = s.client.begin_query()
        s.lookup(Query([[w1, w2]]))
        assert ledger.batches <= 1  # all words' superposts in one batch

    def test_query_words_dedup(self):
        q = Query([["a", "b"], ["b", "c"]])
        assert q.words == ["a", "b", "c"]

    def test_query_matches(self):
        q = Query([["a", "b"], ["c"]])
        assert q.matches({"a", "b", "x"})
        assert q.matches({"c"})
        assert not q.matches({"a", "x"})


class TestReplication:
    def test_wait_for_l_of_lplus(self, spark, tmp_path):
        # build with 2 extra layers; waiting for the base L keeps recall
        store = BlobStore(tmp_path)
        corpus = gen.zipf(spark, store, 150, 120, 6, seed=6)
        cfg = BuilderConfig(bins=150, n_layers=2, extra_layers=2, seed=1)
        AirphantBuilder(spark, store, cfg).build(corpus.df, "r")
        pdf = corpus.df.toPandas()
        s = AirphantSearcher(zero_latency_client(store), "r")
        s.open()
        vocab = sorted({w for t in pdf.text for w in t.split() if w not in s.mht.common})
        for word in vocab[::11]:
            results, _ = s.search(word, wait_for=2)
            assert _result_doc_ids(pdf, results) == _oracle_docs(pdf, word)

    def test_wait_for_validation(self, built):
        store, pdf = built
        s = _open_searcher(store)
        word = pdf.text.iloc[0].split()[0]
        with pytest.raises(ValueError):
            s.search(Query([[word], ["zzz"]]), wait_for=1)
