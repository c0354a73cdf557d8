"""The benchmark's tracer wraps public functions where ``repro`` binds
them; renaming one must fail here, not only in a traced benchmark run."""
import repro.baselines.engines as engines
import repro.core.searcher as searcher
from perfbench.layers import install
from perfbench.tracer import Tracer
from repro.core.postings import decode_postings
from repro.corpora.parsers import tokenize


def test_install_and_uninstall():
    tr = Tracer()
    install(tr)
    try:
        assert "lucene.search" in tr.names
        assert searcher.tokenize is not tokenize  # wrapped
    finally:
        tr.uninstall()
    assert searcher.tokenize is tokenize
    assert engines.tokenize is tokenize
    assert engines.decode_postings is decode_postings
    assert searcher.decode_postings is decode_postings
