"""End-to-end integration: every corpus generator → build → search →
DuckDB oracle equality, plus sketch-analysis consistency on real builds."""
import duckdb
import pytest

from repro.cloud.blobstore import BlobStore
from repro.cloud.client import zero_latency_client
from repro.core.builder import AirphantBuilder, BuilderConfig, profile_corpus
from repro.core.searcher import AirphantSearcher
from repro.core.sketch import expected_false_positives, sigma_x
from repro.corpora import generators as gen
from repro.harness import sample_query_words


def _oracle(pdf, word):
    con = duckdb.connect()
    con.register("corpus", pdf)
    rows = con.execute(
        'SELECT blob, "offset" FROM corpus WHERE list_contains(string_split(text, \' \'), ?)',
        [word],
    ).fetchall()
    con.close()
    return set(rows)


MAKERS = {
    "diag": lambda s, st: gen.diag(s, st, 400),
    "unif": lambda s, st: gen.unif(s, st, 300, 300, 8, seed=1),
    "zipf": lambda s, st: gen.zipf(s, st, 300, 300, 8, seed=2),
    "cranfield": lambda s, st: gen.cranfield_like(s, st, n_docs=200, seed=3),
    "hdfs": lambda s, st: gen.hdfs_like(s, st, n_docs=400, seed=4),
    "windows": lambda s, st: gen.windows_like(s, st, n_docs=400, seed=5),
    "spark": lambda s, st: gen.spark_like(s, st, n_docs=400, seed=6),
}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_build_search_oracle_roundtrip(spark, tmp_path, name):
    """For every corpus family: Airphant search == exact DuckDB matching."""
    from repro.harness import default_config, quick_profile

    store = BlobStore(tmp_path)
    corpus = MAKERS[name](spark, store)
    cfg = default_config(quick_profile(corpus.df), seed=1)
    AirphantBuilder(spark, store, cfg).build(corpus.df, "it")
    pdf = corpus.df.toPandas()
    searcher = AirphantSearcher(zero_latency_client(store), "it")
    searcher.open()
    words = sample_query_words(corpus.df, 12, seed=9)
    for word in words:
        results, stats = searcher.search(word)
        got = {(r.blob, r.posting.offset) for r in results}
        assert got == _oracle(pdf, word), (name, word)
        assert stats.n_results == len(got)


def test_observed_fp_matches_expectation(spark, tmp_path):
    """Fig 5's claim: the measured FP count per query concentrates around
    the analytic F(L) (Eq 2), within the Hoeffding band (Eq 5)."""
    store = BlobStore(tmp_path)
    corpus = gen.unif(spark, store, 400, 500, 8, seed=11)
    cfg = BuilderConfig(bins=120, n_layers=2, common_fraction=0.0, seed=2)
    report = AirphantBuilder(spark, store, cfg).build(corpus.df, "fp")
    profile = report.profile
    searcher = AirphantSearcher(zero_latency_client(store), "fp")
    searcher.open()
    pdf = corpus.df.toPandas()
    words = sample_query_words(corpus.df, 150, seed=3)
    fps = []
    for word in words:
        candidates = searcher.lookup(word)
        truth = _oracle(pdf, word)
        fps.append(len(candidates) - len(truth))
    observed = sum(fps) / len(fps)
    expected = expected_false_positives(
        report.n_layers,
        report.bins_per_layer * report.n_layers,
        profile.doc_word_counts,
        n_terms=profile.n_terms,
    )
    sig = sigma_x(profile.n_docs, profile.n_terms, profile.doc_word_counts)
    # generous band: sampling 150 words + per-build hash randomness
    assert observed == pytest.approx(expected, abs=max(3.0, 5 * sig))


def test_layer_sweep_shape(spark, tmp_path):
    """Fig 5 / Fig 10a shape on a real build: L=1 has far more observed
    false positives than the optimal L, at fixed B."""
    store = BlobStore(tmp_path)
    corpus = gen.unif(spark, store, 400, 500, 8, seed=12)
    pdf = corpus.df.toPandas()
    words = sample_query_words(corpus.df, 60, seed=4)

    def avg_fp(n_layers):
        cfg = BuilderConfig(bins=120, n_layers=n_layers, common_fraction=0.0, seed=3)
        AirphantBuilder(spark, store, cfg).build(corpus.df, f"sw{n_layers}")
        s = AirphantSearcher(zero_latency_client(store), f"sw{n_layers}")
        s.open()
        total = 0
        for w in words:
            total += len(s.lookup(w)) - len(_oracle(pdf, w))
        return total / len(words)

    assert avg_fp(1) > 5 * max(avg_fp(3), 0.05)


def test_header_fits_searcher_memory_budget(spark, tmp_path):
    """§IV-A: Searcher memory is O(B) — the MHT stays small."""
    store = BlobStore(tmp_path)
    corpus = gen.zipf(spark, store, 300, 300, 8, seed=13)
    AirphantBuilder(spark, store, BuilderConfig(bins=500, f0=1.0)).build(corpus.df, "m")
    s = AirphantSearcher(zero_latency_client(store), "m")
    s.open()
    assert s.mht.memory_bytes() < 64 << 10  # ~12 B/pointer * 500 bins + dict
    # and far smaller than the index itself
    assert s.mht.memory_bytes() < store.total_bytes("m/")
