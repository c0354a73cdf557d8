"""Airphant Searcher: initialization + querying (§III-C).

Initialization (once per corpus): download the header block — a single
request — and reconstruct the MHT in memory.

Querying (per query): hash the word in every layer, issue **one batch**
of concurrent range reads for the L superposts, intersect them, then
fetch the candidate documents (a second concurrent batch) and filter
false positives by examining document content — recovering perfect
precision while never missing a relevant document (no false negatives).

Also implemented here: common-word fast path (§IV-E), top-K sampling
(§IV-D), boolean queries in DNF (§IV-F), and straggler mitigation via
the built-in layer replication (§IV-G).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cloud.client import CloudClient, FetchRequest, Ledger
from repro.core.mht import MultilayerHashTable
from repro.core.postings import Posting, PostingArray, decode_postings, intersect, union
from repro.core.superpost import BinPointer, block_blob_name, decode_header, header_blob_name
from repro.core.topk import sample_size
from repro.corpora.parsers import tokenize


@dataclass
class SearchResult:
    """One returned document: its posting (physical location) and content."""

    posting: Posting
    blob: str
    text: str


@dataclass
class QueryStats:
    """Per-query simulated-latency accounting (feeds Figs 6-8, 10, 14)."""

    lookup_ms: float = 0.0  # term-index lookup: superpost batch
    doc_ms: float = 0.0  # document retrieval + filtering
    total_ms: float = 0.0
    wait_ms: float = 0.0
    download_ms: float = 0.0
    round_trips: int = 0
    bytes_fetched: int = 0
    n_candidates: int = 0  # postings after intersection
    n_fetched: int = 0  # documents actually fetched (top-K sample)
    n_false_positives: int = 0  # fetched docs filtered out
    n_results: int = 0

    @classmethod
    def from_ledger(
        cls, ledger: Ledger, lookup_ms: float | None = None, **counts: int
    ) -> "QueryStats":
        """Stats of one query from its client ledger. ``lookup_ms`` is the
        simulated time at the end of the term lookup (default: the whole
        query); the rest is charged to document retrieval. ``counts`` sets
        the ``n_*`` fields."""
        total = ledger.elapsed_ms
        if lookup_ms is None:
            lookup_ms = total
        return cls(
            lookup_ms=lookup_ms,
            doc_ms=total - lookup_ms,
            total_ms=total,
            wait_ms=ledger.wait_ms,
            download_ms=ledger.download_ms,
            round_trips=ledger.round_trips,
            bytes_fetched=ledger.bytes_fetched,
            **counts,
        )


@dataclass
class Query:
    """A boolean query in DNF: OR over clauses, AND within a clause (§IV-F).

    ``Query.word("w")`` is the single-term query; ``matches`` evaluates
    the exact predicate on a document's token set (the filtering step).
    """

    clauses: list[list[str]]

    @classmethod
    def word(cls, w: str) -> "Query":
        return cls([[w]])

    @property
    def words(self) -> list[str]:
        seen: dict[str, None] = {}
        for clause in self.clauses:
            for w in clause:
                seen.setdefault(w)
        return list(seen)

    def matches(self, tokens: set[str]) -> bool:
        return any(all(w in tokens for w in clause) for clause in self.clauses)


@dataclass
class _WordPlan:
    """Fetch plan for one query word: pointers and their request slots."""

    word: str
    pointers: list[BinPointer]
    slots: list[int | None] = field(default_factory=list)  # index into batch
    exact: bool = False  # common-word pointer → no false positives


class AirphantSearcher:
    """Light-weight query component over a cloud-stored IoU Sketch."""

    def __init__(self, client: CloudClient, index_name: str):
        self.client = client
        self.index_name = index_name
        self.mht: MultilayerHashTable | None = None
        self.header = None
        self.init_stats: QueryStats | None = None

    # -- initialization ------------------------------------------------------

    def open(self) -> QueryStats:
        """Fetch the header block (one request) and build the in-memory MHT."""
        ledger = self.client.begin_query()
        raw = self.client.fetch(header_blob_name(self.index_name))
        self.header = decode_header(raw)
        self.mht = MultilayerHashTable.from_header(self.header)
        self.init_stats = QueryStats.from_ledger(ledger)
        return self.init_stats

    def _require_open(self) -> MultilayerHashTable:
        if self.mht is None:
            raise RuntimeError("call open() before searching")
        return self.mht

    # -- term lookup -----------------------------------------------------------

    def lookup(self, query: Query | str, wait_for: int | None = None) -> PostingArray:
        """Term-index lookup only: one concurrent batch of superpost reads,
        then the boolean combination of per-word intersections. Returns the
        final (approximate) postings list — superset of the true one —
        sorted.

        ``wait_for`` enables replication mode (§IV-G): per word, all L
        pointers are requested but only the ``wait_for`` fastest layers are
        awaited and intersected (only meaningful for single-word queries,
        where the batch is exactly that word's layers).
        """
        if isinstance(query, str):
            query = Query.word(query)
        mht = self._require_open()
        plans: list[_WordPlan] = []
        requests: list[FetchRequest] = []
        for w in query.words:
            ptrs = mht.lookup(w)
            plan = _WordPlan(word=w, pointers=ptrs, exact=w in mht.common)
            if any(p.empty for p in ptrs):
                # some layer's bin is empty → the word occurs nowhere;
                # no requests needed for this word at all.
                plan.slots = [None] * len(ptrs)
            else:
                for p in ptrs:
                    plan.slots.append(len(requests))
                    requests.append(
                        FetchRequest(
                            block_blob_name(self.index_name, p.block_id),
                            p.offset,
                            p.length,
                        )
                    )
            plans.append(plan)

        if wait_for is not None:
            if len(query.words) != 1:
                raise ValueError("replication wait_for supports single-word queries")
            if not requests:
                return PostingArray.empty()
            if not 1 <= wait_for <= len(requests):
                raise ValueError("wait_for out of range")
            payloads = self.client.fetch_batch_first_l(requests, wait_for)
            lists = [decode_postings(b) for b in payloads]
            return intersect(lists)

        payloads = self.client.fetch_batch(requests)
        per_word: dict[str, PostingArray] = {}
        for plan in plans:
            if any(s is None for s in plan.slots):
                per_word[plan.word] = PostingArray.empty()
            else:
                lists = [decode_postings(payloads[s]) for s in plan.slots]
                per_word[plan.word] = intersect(lists)
        clause_lists = [
            intersect([per_word[w] for w in clause]) for clause in query.clauses
        ]
        return union(clause_lists)

    # -- full search -----------------------------------------------------------

    def search(
        self,
        query: Query | str,
        k: int | None = None,
        delta: float = 1e-6,
        wait_for: int | None = None,
        sample_seed: int = 0,
    ) -> tuple[list[SearchResult], QueryStats]:
        """End-to-end search: lookup → (top-K sample) → fetch docs → filter.

        Returns the exactly-matching documents and per-query stats. With
        ``k``, at least ``k`` relevant documents are returned with
        probability >= 1 - ``delta`` (Eq 6) while fetching only R_K
        documents.
        """
        if isinstance(query, str):
            query = Query.word(query)
        header = self.header
        ledger = self.client.begin_query()
        candidates = self.lookup(query, wait_for=wait_for)
        lookup_ms = ledger.elapsed_ms
        lookup_wait = ledger.wait_ms

        to_fetch = candidates
        if k is not None and candidates:
            # Eq 6 uses the structure's actual expected false positives
            # (recorded by the Builder); fall back to the configured F0.
            f0_eff = header.meta.get("expected_fp", header.f0)
            rk = sample_size(k, len(candidates), f0_eff, delta)
            if rk < len(candidates):
                # Sampling positions picks what sampling the sorted list
                # would; sorted positions keep the fetch in posting order.
                rng = random.Random(sample_seed)
                to_fetch = candidates[sorted(rng.sample(range(len(candidates)), rk))]

        strings = header.string_table
        to_fetch = to_fetch.tolist()
        requests = [
            FetchRequest(strings.name(p.blob_id), p.offset, p.length)
            for p in to_fetch
        ]
        payloads = self.client.fetch_batch(requests) if requests else []
        results: list[SearchResult] = []
        n_fp = 0
        for posting, raw in zip(to_fetch, payloads):
            text = raw.decode("utf-8")
            if query.matches(set(tokenize(text))):
                results.append(
                    SearchResult(posting=posting, blob=strings.name(posting.blob_id), text=text)
                )
            else:
                n_fp += 1
        stats = QueryStats.from_ledger(
            ledger,
            lookup_ms,
            n_candidates=len(candidates),
            n_fetched=len(to_fetch),
            n_false_positives=n_fp,
            n_results=len(results),
        )
        # sanity: lookup wait is part of total wait
        assert stats.wait_ms >= lookup_wait - 1e-9
        return results, stats
