"""Tests of the benchmark itself: ``python -m pytest perfbench/ -q``.

The fast tests cover the tracer, the query streams and the oracle. The
slow ones run ``perfbench/run.py`` end to end and check that the
simulated-network metrics repeat exactly for a seed.
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.oracle import Oracle  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import dnf_queries, uniform_queries  # noqa: E402


def test_self_time_excludes_children():
    tr = Tracer()
    tr.enabled = True
    with tr.op("query", 0):
        outer = tr._open("outer")
        inner = tr._open("inner")
        time.sleep(0.01)
        tr._close(inner)
        time.sleep(0.01)
        tr._close(outer)
    rows = tr.summary("query")
    assert rows["inner"]["ms"] == pytest.approx(rows["inner"]["total_ms"])
    assert rows["outer"]["ms"] == pytest.approx(rows["outer"]["total_ms"] - rows["inner"]["total_ms"])
    assert sum(r["ms"] for r in rows.values()) == pytest.approx(rows["query"]["total_ms"])


def test_wrap_fails_loudly_on_a_missing_name():
    tr = Tracer()
    with pytest.raises(AttributeError, match="no longer exists"):
        tr.wrap("postings.gone", ["repro.core.postings"], "no_such_function")


def test_wrap_patches_every_binding_and_uninstalls():
    import repro.core.postings as postings
    import repro.core.searcher as searcher
    from perfbench import layers

    original = postings.decode_postings
    tr = Tracer()
    layers.install(tr)
    try:
        assert searcher.decode_postings is postings.decode_postings is not original
        tr.enabled = True
        with tr.op("query", 0):
            searcher.decode_postings(postings.encode_postings([postings.Posting(0, 5, 3)]))
    finally:
        tr.uninstall()
    assert searcher.decode_postings is postings.decode_postings is original
    assert tr.counts_per_op("query")["postings.decoded"] == 1
    assert layers.per_layer(tr)["postings.decode_postings.calls"] == 1


def test_query_streams_repeat_for_a_seed_and_keep_their_shape():
    vocab = [f"w{i}" for i in range(1000)]
    a = uniform_queries(vocab, 200, np.random.default_rng([3, 1]))
    assert a == uniform_queries(vocab, 200, np.random.default_rng([3, 1]))
    assert a != uniform_queries(vocab, 200, np.random.default_rng([4, 1]))
    counts = [1000 // (i + 1) for i in range(1000)]
    q = dnf_queries(vocab, counts, 99, np.random.default_rng(0))
    shapes = [tuple(len(c) for c in clauses) for clauses in q]
    assert {s: shapes.count(s) for s in set(shapes)} == {(1,): 33, (2,): 33, (2, 1): 33}
    assert all(len({w for c in clauses for w in c}) == sum(map(len, clauses)) for clauses in q)


def test_oracle_matches_brute_force():
    texts = ["a b c", "b c", "c d", "a  d", "e"]
    docs = pd.DataFrame({
        "doc_id": range(5), "blob": "c/0", "offset": [0, 10, 20, 30, 40],
        "length": [len(t) for t in texts], "text": texts,
    })
    queries = [[["a"]], [["b", "c"]], [["a", "b"], ["d"]], [["z"]]]
    oracle = Oracle(docs)
    try:
        got = oracle.answers(queries)
        assert oracle.profile()["doc_word_counts"] == [3, 2, 2, 2, 1]
    finally:
        oracle.close()
    for clauses, answer in zip(queries, got):
        want = {
            ("c/0", o, n)
            for o, n, t in zip(docs["offset"], docs["length"], texts)
            if any(all(w in t.split() for w in c) for c in clauses)
        }
        assert answer == want


def _run(*args, cwd=ROOT):
    p = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return p.returncode, p.stdout.strip().splitlines()


def test_network_metrics_repeat_exactly_for_a_seed():
    runs = []
    for seconds in ("1", "12"):  # different run lengths: one pass vs several
        code, out = _run("--workload", "search-skiplist-hdfs", "--seed", "5", "--seconds", seconds)
        assert code == 0
        result = json.loads(out[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append(result["metrics"])
    for name in ("net_ms.mean", "bytes_per_query", "gets_per_query", "index_bytes_ratio"):
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_traced_run_reports_every_per_layer_metric():
    code, out = _run("--workload", "search-dnf-cranfield", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert code == 0
    metrics = json.loads(out[-1])["metrics"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    postings = sum(metrics[f"postings.{f}.ms"]["value"] for f in ("decode_postings", "intersect", "union"))
    io = sum(metrics[m]["value"] for m in ("blobstore.get_range.ms", "latency.request_cost.ms", "parsers.tokenize.ms"))
    assert io > postings


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = _run("--workload", "search-skiplist-hdfs", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert code != 0 and out == []
