"""Exact answers for the generated queries, computed with DuckDB.

The oracle tokenizes the corpus itself (whitespace runs, as the
program's document-word parser specifies) and evaluates each DNF query
as relational algebra, so it shares no code with the index it checks.
"""
from __future__ import annotations

import duckdb
import pandas as pd

Doc = tuple[str, int, int]  # (blob, offset, length): a document's physical identity


class Oracle:
    def __init__(self, docs: pd.DataFrame):
        """``docs`` has one row per document: doc_id, blob, offset, length, text."""
        self.con = duckdb.connect()
        self.con.register("docs_df", docs[["doc_id", "blob", "offset", "length", "text"]])
        self.con.execute(
            """
            CREATE TABLE pairs AS
            SELECT DISTINCT doc_id, blob, "offset", length, word FROM (
                SELECT doc_id, blob, "offset", length,
                       unnest(string_split_regex(trim(text), '\\s+')) AS word
                FROM docs_df)
            WHERE word <> ''
            """
        )
        self.con.execute(
            """
            CREATE TABLE tokens AS
            SELECT word, count(*) AS n FROM (
                SELECT unnest(string_split_regex(trim(text), '\\s+')) AS word FROM docs_df)
            WHERE word <> '' GROUP BY word ORDER BY word
            """
        )

    def close(self) -> None:
        self.con.close()

    def vocabulary(self) -> list[str]:
        """Distinct words, sorted."""
        return [r[0] for r in self.con.execute("SELECT word FROM tokens ORDER BY word").fetchall()]

    def token_frequencies(self) -> tuple[list[str], list[int]]:
        """Distinct words (sorted) and their token counts in the corpus."""
        rows = self.con.execute("SELECT word, n FROM tokens ORDER BY word").fetchall()
        return [r[0] for r in rows], [int(r[1]) for r in rows]

    def profile(self) -> dict:
        """The corpus statistics the experiments size the bin budget from:
        #docs, #terms, total words and the per-document distinct-word counts."""
        counts = [
            int(r[0])
            for r in self.con.execute(
                "SELECT count(*) FROM pairs GROUP BY doc_id ORDER BY doc_id"
            ).fetchall()
        ]
        n_terms, total = self.con.execute("SELECT count(*), sum(n) FROM tokens").fetchone()
        return {
            "n_docs": len(counts),
            "n_terms": int(n_terms),
            "total_words": int(total),
            "doc_word_counts": counts,
        }

    def answers(self, queries: list[list[list[str]]]) -> list[frozenset[Doc]]:
        """Exact match set of every DNF query (OR of AND-clauses)."""
        rows = [
            (qi, ci, w)
            for qi, clauses in enumerate(queries)
            for ci, clause in enumerate(clauses)
            for w in clause
        ]
        self.con.register("qterms_df", pd.DataFrame(rows, columns=["qid", "clause", "word"]))
        hits = self.con.execute(
            """
            WITH qt AS (SELECT DISTINCT qid, clause, word FROM qterms_df),
            need AS (SELECT qid, clause, count(*) AS n FROM qt GROUP BY qid, clause),
            per_clause AS (
                SELECT qt.qid, qt.clause, p.blob, p."offset", p.length, count(*) AS c
                FROM qt JOIN pairs p USING (word)
                GROUP BY qt.qid, qt.clause, p.blob, p."offset", p.length)
            SELECT DISTINCT pc.qid, pc.blob, pc."offset", pc.length
            FROM per_clause pc JOIN need USING (qid, clause)
            WHERE pc.c = need.n
            """
        ).fetchall()
        out: list[set[Doc]] = [set() for _ in queries]
        for qid, blob, offset, length in hits:
            out[qid].add((blob, int(offset), int(length)))
        return [frozenset(s) for s in out]
