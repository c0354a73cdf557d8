"""Which public functions of which layer the traced run wraps, and the
counts taken at each boundary.

Every function is wrapped where it is *bound*: ``searcher.py`` does
``from repro.core.postings import decode_postings``, so the searcher's
name is patched as well as the defining module's. Nothing called from
inside a Spark UDF is wrapped: UDFs run in worker processes, whose time
is the Builder's own (``builder.build`` self time).

A span's ``.ms`` metric is its self time: its duration minus the time its
traced children cover. Query-path metrics are per query, build metrics per
timed build, ``*.open.ms`` per open. Which end-to-end metric each layer
should move, and on which workload:

=====================  ==========================================  ==========================  ==========================
layer                  per-layer metrics                           should move                 on
=====================  ==========================================  ==========================  ==========================
core.postings          postings.decode_postings / intersect /      cpu_ms.p50, qps,            build-search-uniform-hdfs
                       union, postings.decoded, kept_ratio         query_ms.p50
cloud.blobstore        blobstore.get_range, bytes_read;            cpu_ms.p50, qps; setup_s    search-dnf-cranfield;
                       blobstore.put, bytes_written                                            build-search-uniform-hdfs
cloud.latency          latency.request_cost (simulator CPU)        cpu_ms.p50, qps             search-dnf-cranfield
cloud.client           client.fetch_batch / fetch, sim_wait_ms,    net_ms.mean, query_ms.p90,  all
                       sim_download_ms, cache_hit_ratio            gets/bytes_per_query
core.topk              topk.sample_size, topk.fetch_ratio          net_ms.mean,                build-search-uniform-hdfs
                                                                   bytes_per_query
corpora.parsers        parsers.tokenize, filter.precision          cpu_ms.p50, qps             search-dnf-cranfield
core.mht, hashing      mht.lookup                                  cpu_ms.p50                  search-dnf-cranfield
core.searcher          searcher.open / lookup / search             open_ms, searcher_mem_mb,   build-search-uniform-hdfs,
                                                                   cpu_ms.p50                  search-dnf-cranfield
core.builder,          builder.*, optimizer.minimize_layers,       builder.build_s, setup_s,   build-search-uniform-hdfs
optimizer, sketch,     sketch.expected_false_positives,            index_bytes_ratio
superpost              superpost.*, spark.jobs, spark.tasks
baselines              skiplist.find, lucene.search,               net_ms.mean, query_ms.p50   search-skiplist-hdfs
                       client.fetch.calls (dependent hops)
=====================  ==========================================  ==========================  ==========================
"""
from __future__ import annotations

from perfbench.tracer import Tracer


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _decoded(tr: Tracer, args, kwargs, result, _pre) -> None:
    tr.count("postings.decoded", len(result))
    if tr.inside("searcher.lookup"):
        tr.count("searcher.lookup.decoded", len(result))


def _intersected(tr: Tracer, args, kwargs, result, _pre) -> None:
    tr.count("postings.intersect.in", sum(len(l) for l in _arg(args, kwargs, 0, "lists")))
    tr.count("postings.intersect.out", len(result))


def _looked_up(tr: Tracer, args, kwargs, result, _pre) -> None:
    tr.count("searcher.lookup.out", len(result))


def _bytes_read(tr: Tracer, args, kwargs, result, _pre) -> None:
    tr.count("blobstore.bytes_read", len(result))


def _bytes_written(tr: Tracer, args, kwargs, result, _pre) -> None:
    tr.count("blobstore.bytes_written", len(_arg(args, kwargs, 2, "data")))


def _appended(tr: Tracer, args, kwargs, result, _pre) -> None:
    tr.count("superpost.append.bytes", len(_arg(args, kwargs, 1, "payload")))


def _ledger_before(args, kwargs):
    led = args[0].ledger
    return led, led.round_trips, led.wait_ms, led.download_ms


def _client_post(span: str, n_requests):
    def post(tr: Tracer, args, kwargs, result, pre) -> None:
        led, trips, wait, download = pre
        n = n_requests(args, kwargs)
        tr.count(f"{span}.requests", n)
        tr.count("client.requests", n)
        tr.count("client.cache_hits", n - (led.round_trips - trips))
        tr.count("client.sim_wait_ms", led.wait_ms - wait)
        tr.count("client.sim_download_ms", led.download_ms - download)
    return post


def _searched(tr: Tracer, args, kwargs, result, _pre) -> None:
    stats = result[1]
    tr.count("topk.candidates", stats.n_candidates)
    tr.count("filter.fetched", stats.n_fetched)
    tr.count("filter.results", stats.n_results)


def install(tr: Tracer) -> None:
    """Wrap every traced public function; raises if one has gone missing."""
    w = tr.wrap
    # core.postings
    w("postings.decode_postings",
      ["repro.core.postings", "repro.core.searcher", "repro.baselines.engines"],
      "decode_postings", post=_decoded)
    w("postings.intersect", ["repro.core.postings", "repro.core.searcher"], "intersect",
      post=_intersected)
    w("postings.union", ["repro.core.postings", "repro.core.searcher"], "union")
    # cloud.blobstore, cloud.latency, cloud.client
    w("blobstore.get_range", ["repro.cloud.blobstore:BlobStore"], "get_range", post=_bytes_read)
    w("blobstore.get", ["repro.cloud.blobstore:BlobStore"], "get", post=_bytes_read)
    w("blobstore.put", ["repro.cloud.blobstore:BlobStore"], "put", post=_bytes_written)
    w("latency.request_cost", ["repro.cloud.latency:LatencyModel"], "request_cost")
    w("client.fetch_batch", ["repro.cloud.client:CloudClient"], "fetch_batch",
      pre=_ledger_before,
      post=_client_post("client.fetch_batch", lambda a, kw: len(_arg(a, kw, 1, "requests"))))
    w("client.fetch", ["repro.cloud.client:CloudClient"], "fetch",
      pre=_ledger_before, post=_client_post("client.fetch", lambda a, kw: 1))
    # core.topk, corpora.parsers, core.mht (+ core.hashing beneath it)
    w("topk.sample_size", ["repro.core.topk", "repro.core.searcher"], "sample_size")
    w("parsers.tokenize",
      ["repro.corpora.parsers", "repro.core.searcher", "repro.baselines.engines"], "tokenize")
    w("mht.lookup", ["repro.core.mht:MultilayerHashTable"], "lookup")
    # core.searcher
    w("searcher.open", ["repro.core.searcher:AirphantSearcher"], "open")
    w("searcher.lookup", ["repro.core.searcher:AirphantSearcher"], "lookup", post=_looked_up)
    w("searcher.search", ["repro.core.searcher:AirphantSearcher"], "search", post=_searched)
    w("superpost.decode_header", ["repro.core.superpost", "repro.core.searcher"], "decode_header")
    # core.builder, core.optimizer, core.sketch, core.superpost
    w("builder.build", ["repro.core.builder:AirphantBuilder"], "build")
    w("builder.profile_corpus", ["repro.core.builder"], "profile_corpus")
    w("builder.corpus_string_table", ["repro.core.builder"], "corpus_string_table")
    w("optimizer.minimize_layers", ["repro.core.optimizer", "repro.core.builder"],
      "minimize_layers")
    w("sketch.expected_false_positives",
      ["repro.core.sketch", "repro.core.optimizer", "repro.core.builder"],
      "expected_false_positives")
    w("superpost.append", ["repro.core.superpost:SuperpostWriter"], "append", post=_appended)
    w("superpost.encode_header", ["repro.core.superpost", "repro.core.builder"], "encode_header")
    # baselines: the skip list behind the Lucene stand-in
    w("lucene.open", ["repro.baselines.engines:LuceneLike"], "open")
    w("lucene.search", ["repro.baselines.engines:LuceneLike"], "search", post=_searched)
    w("skiplist.find", ["repro.baselines.skiplist:SkipListReader"], "find")


#: Spans of the build; every other span is on the query path.
BUILD_SPANS = frozenset({
    "builder.build", "builder.profile_corpus", "builder.corpus_string_table",
    "optimizer.minimize_layers", "sketch.expected_false_positives", "superpost.append",
    "superpost.encode_header", "blobstore.put",
})
BUILD_COUNTERS = frozenset({"blobstore.bytes_written", "superpost.append.bytes"})
#: Spans reported per open rather than per query or build.
OPEN_SPANS = ("searcher.open", "lucene.open")

#: Every count a post hook records.
COUNTERS = (
    "postings.decoded", "searcher.lookup.decoded", "postings.intersect.in",
    "postings.intersect.out", "searcher.lookup.out", "blobstore.bytes_read",
    "blobstore.bytes_written", "superpost.append.bytes", "client.requests",
    "client.fetch_batch.requests", "client.fetch.requests", "client.cache_hits",
    "client.sim_wait_ms", "client.sim_download_ms", "topk.candidates", "filter.fetched",
    "filter.results",
)


def ratio(num: float, base: float) -> float:
    """``num / base``, or 0 when the base is 0 (the base is reported beside it)."""
    return num / base if base else 0.0


def per_layer(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics: query-path spans and counts per query, build
    spans and counts per timed build, and the cost of one open."""
    rows = {"query": tr.summary("query"), "build": tr.summary("build")}
    counts = {"query": tr.counts_per_op("query"), "build": tr.counts_per_op("build")}
    out: dict[str, float] = {}
    for name in tr.names:
        if name in OPEN_SPANS:
            continue
        row = rows["build" if name in BUILD_SPANS else "query"].get(name, {"calls": 0.0, "ms": 0.0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.ms"] = row["ms"]
    for name in COUNTERS:
        out[name] = counts["build" if name in BUILD_COUNTERS else "query"][name]
    opens = tr.summary("open")
    for name in OPEN_SPANS:
        out[f"{name}.ms"] = opens[name]["total_ms"] if name in opens else 0.0
    c = counts["query"]
    out["postings.kept_ratio"] = ratio(c["searcher.lookup.out"], c["searcher.lookup.decoded"])
    out["topk.fetch_ratio"] = ratio(c["filter.fetched"], c["topk.candidates"])
    out["filter.precision"] = ratio(c["filter.results"], c["filter.fetched"])
    out["client.cache_hit_ratio"] = ratio(c["client.cache_hits"], c["client.requests"])
    # Work on the query path inside a build would be charged to the build.
    out["trace.search_spans_in_build"] = sum(
        row["calls"] for name, row in rows["build"].items()
        if name not in BUILD_SPANS and name != "build"
    )
    return out
