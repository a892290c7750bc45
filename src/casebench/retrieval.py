"""Lexical retrieval over passages and documents.

BM25 over an inverted index, MaxP passage-to-document aggregation, n-gram
quote matching, and exact substring search.  Scoring is deterministic: ties
break by ascending unit id everywhere, and index builds are reproducible
byte-for-byte.
"""

from __future__ import annotations

import json
import math
import re
import struct
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import fold_words

BM25_K1 = 1.2
BM25_B = 0.75

_MAGIC = b"CBIX"
_VERSION = 1


class IndexFormatError(ValueError):
    """Serialized index file has the wrong magic or version."""


@dataclass(frozen=True)
class RankedEntry:
    unit_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class RankedList:
    """Top-k retrieval result: scores non-increasing, ranks 1..k contiguous."""

    query_id: str
    entries: tuple[RankedEntry, ...]
    k: int

    def unit_ids(self) -> list[str]:
        return [e.unit_id for e in self.entries]


def _ranked(query_id: str, scored: Sequence[tuple[str, float]], k: int) -> RankedList:
    entries = tuple(RankedEntry(unit_id=u, score=s, rank=r) for r, (u, s) in enumerate(scored, 1))
    return RankedList(query_id=query_id, entries=entries, k=k)


@dataclass(frozen=True)
class AnalyzerConfig:
    """Lowercase, split on non-alphanumerics; internal periods are kept so
    citation-like tokens ("f.3d", "u.s.c") survive as single terms.  No
    stemming, no stopwords."""

    lowercase: bool = True
    keep_citation_periods: bool = True

    def to_dict(self) -> dict:
        return {"lowercase": self.lowercase, "keep_citation_periods": self.keep_citation_periods}

    @classmethod
    def from_dict(cls, d: dict) -> "AnalyzerConfig":
        return cls(
            lowercase=bool(d.get("lowercase", True)),
            keep_citation_periods=bool(d.get("keep_citation_periods", True)),
        )


_TOKEN_PERIODS_RE = re.compile(r"[0-9a-z]+(?:\.[0-9a-z]+)*")
_TOKEN_PLAIN_RE = re.compile(r"[0-9a-z]+")
_TOKEN_PERIODS_CASED_RE = re.compile(r"[0-9A-Za-z]+(?:\.[0-9A-Za-z]+)*")
_TOKEN_PLAIN_CASED_RE = re.compile(r"[0-9A-Za-z]+")


def analyze(text: str, config: AnalyzerConfig | None = None) -> list[str]:
    config = config or AnalyzerConfig()
    if config.lowercase:
        text = text.lower()
        pattern = _TOKEN_PERIODS_RE if config.keep_citation_periods else _TOKEN_PLAIN_RE
    else:
        pattern = _TOKEN_PERIODS_CASED_RE if config.keep_citation_periods else _TOKEN_PLAIN_CASED_RE
    return pattern.findall(text)


class InvertedIndex:
    """Immutable term -> postings index over passages or documents.

    Postings are per-term (unit index, term frequency) pairs sorted by unit
    index; unit indexes follow input order and map to ``unit_ids``.
    """

    def __init__(
        self,
        unit_ids: list[str],
        lengths: np.ndarray,
        postings: dict[str, tuple[np.ndarray, np.ndarray]],
        unit_kind: str,
        analyzer: AnalyzerConfig,
    ):
        self.unit_ids = unit_ids
        self.lengths = lengths
        self.postings = postings
        self.unit_kind = unit_kind
        self.analyzer = analyzer
        self.n_units = len(unit_ids)
        # Exact integer sum keeps the average reproducible across builds.
        self.avg_length = float(int(lengths.sum())) / self.n_units if self.n_units else 0.0
        # Rank of each unit id in ascending id order, for tie-breaking.
        order = sorted(range(self.n_units), key=lambda i: unit_ids[i])
        self.id_rank = np.empty(self.n_units, dtype=np.int64)
        for rank, idx in enumerate(order):
            self.id_rank[idx] = rank

    @property
    def vocabulary_size(self) -> int:
        return len(self.postings)


def build_index(
    units: Sequence[tuple[str, str]],
    unit_kind: str = "passage",
    analyzer: AnalyzerConfig | None = None,
) -> InvertedIndex:
    """Build an inverted index over (unit_id, text) pairs."""
    if not units:
        raise ValueError("cannot index an empty unit collection")
    analyzer = analyzer or AnalyzerConfig()
    unit_ids = [u[0] for u in units]
    if len(set(unit_ids)) != len(unit_ids):
        raise ValueError("unit ids must be unique")
    lengths = np.zeros(len(units), dtype=np.int64)

    merged: dict[str, tuple[list[int], list[int]]] = {}
    for idx, (_, text) in enumerate(units):
        terms = analyze(text, analyzer)
        lengths[idx] = len(terms)
        for term, tf in Counter(terms).items():
            ids, tfs = merged.setdefault(term, ([], []))
            ids.append(idx)
            tfs.append(tf)

    postings = {
        term: (np.asarray(ids, dtype=np.uint32), np.asarray(tfs, dtype=np.uint32))
        for term, (ids, tfs) in merged.items()
    }
    return InvertedIndex(unit_ids, lengths, postings, unit_kind, analyzer)


def passages_to_units(passages) -> list[tuple[str, str]]:
    return [(p.passage_id, p.text) for p in passages]


def documents_to_units(docs) -> list[tuple[str, str]]:
    return [(d.doc_id, d.text) for d in docs]


def bm25_idf(n_units: int, df: int) -> float:
    """Robertson/Sparck-Jones idf, floored at zero."""
    return max(0.0, math.log((n_units - df + 0.5) / (df + 0.5)))


def bm25_search(
    index: InvertedIndex,
    query_text: str,
    k: int,
    k1: float = BM25_K1,
    b: float = BM25_B,
    query_id: str = "q",
) -> RankedList:
    """Top-k BM25 ranking; repeated query terms weigh by their frequency.

    Only units sharing at least one scoring term appear; ties break by
    ascending unit id.
    """
    query_terms = analyze(query_text, index.analyzer)
    if not query_terms:
        return RankedList(query_id=query_id, entries=(), k=k)
    scores = np.zeros(index.n_units, dtype=np.float64)
    for term, qtf in sorted(Counter(query_terms).items()):
        entry = index.postings.get(term)
        if entry is None:
            continue
        ids, tfs = entry
        idf = bm25_idf(index.n_units, len(ids))
        if idf == 0.0:
            continue
        tf = tfs.astype(np.float64)
        norm = k1 * (1.0 - b + b * (index.lengths[ids] / index.avg_length))
        scores[ids] += (qtf * idf) * (tf * (k1 + 1.0)) / (tf + norm)

    candidates = np.nonzero(scores > 0.0)[0]
    if candidates.size == 0:
        return RankedList(query_id=query_id, entries=(), k=k)
    order = np.lexsort((index.id_rank[candidates], -scores[candidates]))
    top = candidates[order[:k]]
    return _ranked(query_id, [(index.unit_ids[i], float(scores[i])) for i in top], k)


def aggregate_maxp(
    ranking: RankedList,
    passage_to_doc: Mapping[str, str] | None = None,
    k: int | None = None,
) -> RankedList:
    """Document ranking from a passage ranking: each document takes the max
    score among its ranked passages.  Default mapping strips the
    "#<chunk>" suffix from passage ids."""
    k = k if k is not None else ranking.k
    best: dict[str, float] = {}
    for entry in ranking.entries:
        if passage_to_doc is not None:
            doc_id = passage_to_doc[entry.unit_id]
        else:
            doc_id = entry.unit_id.rsplit("#", 1)[0]
        if doc_id not in best or entry.score > best[doc_id]:
            best[doc_id] = entry.score
    return _ranked(ranking.query_id, sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:k], k)


# ---------------------------------------------------------------------------
# Quote retrieval
# ---------------------------------------------------------------------------

class EmptyQuoteError(ValueError):
    """A quote with nothing left to search for once curly marks are removed."""


def _strip_curly_quotes(text: str) -> str:
    return text.replace("“", "").replace("”", "")


class NgramIndex:
    """Quote lookup over a unit collection, for both quote searches.

    Word n-gram shingles (for ``ngram_search``) and curly-stripped texts
    (for ``exact_match_search``) are each built on first use, at most once,
    so a collection searched in one mode never builds the other's table.
    """

    def __init__(self, units: Sequence[tuple[str, str]], n: int):
        self.n = n
        self.unit_ids = [u[0] for u in units]
        self.texts = [u[1] for u in units]

    @cached_property
    def grams(self) -> dict[tuple[str, ...], list[int]]:
        """Distinct shingle -> ascending unit indexes.  Shingles come from
        the raw text: stripping the marks first would join "word“next"."""
        n = self.n
        grams: dict[tuple[str, ...], list[int]] = {}
        for idx, text in enumerate(self.texts):
            words = fold_words(text)
            for gram in {tuple(words[i : i + n]) for i in range(len(words) - n + 1)}:
                grams.setdefault(gram, []).append(idx)
        return grams

    @cached_property
    def stripped_texts(self) -> list[str]:
        return [_strip_curly_quotes(text) for text in self.texts]


def ngram_search(index: NgramIndex, quote: str, k: int = 10, query_id: str = "q") -> RankedList:
    """Rank units by how many distinct word n-grams of the quote they contain.

    Words are case-folded and punctuation-stripped, so bracketed insertions
    and punctuation edits in a quote still leave the unaltered flanks
    matchable.  Quotes shorter than the index's n words fall back to
    ``exact_match_search``.
    """
    n = index.n
    quote_words = fold_words(quote)
    if len(quote_words) < n:
        return exact_match_search(index, quote, k, query_id)
    counts: Counter[int] = Counter()
    for gram in {tuple(quote_words[i : i + n]) for i in range(len(quote_words) - n + 1)}:
        for idx in index.grams.get(gram, ()):
            counts[idx] += 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], index.unit_ids[kv[0]]))
    return _ranked(query_id, [(index.unit_ids[idx], float(c)) for idx, c in ordered[:k]], k)


def exact_match_search(index: NgramIndex, quote: str, k: int = 10, query_id: str = "q") -> RankedList:
    """Units whose raw text contains the quote as an exact substring, after
    removing curly quotation marks from both sides; hits score 1.0 and run
    by ascending id.  Raises ``EmptyQuoteError`` when nothing is left."""
    needle = _strip_curly_quotes(quote).strip()
    if not needle:
        raise EmptyQuoteError("empty quote")
    hits = sorted(u for u, text in zip(index.unit_ids, index.stripped_texts) if needle in text)
    return _ranked(query_id, [(u, 1.0) for u in hits[:k]], k)


# ---------------------------------------------------------------------------
# Index serialization (versioned binary)
# ---------------------------------------------------------------------------

def save_index(index: InvertedIndex, path) -> None:
    """Write the index: magic, version, JSON header, ids blob, lengths,
    then per-term postings in sorted term order (deterministic bytes)."""
    header = json.dumps(
        {
            "unit_kind": index.unit_kind,
            "n_units": index.n_units,
            "analyzer": index.analyzer.to_dict(),
        },
        sort_keys=True,
    ).encode("utf-8")
    ids_blob = "\n".join(index.unit_ids).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(struct.pack("<Q", len(ids_blob)))
        f.write(ids_blob)
        f.write(index.lengths.astype("<u4").tobytes())
        f.write(struct.pack("<I", len(index.postings)))
        for term in sorted(index.postings):
            ids, tfs = index.postings[term]
            term_bytes = term.encode("utf-8")
            f.write(struct.pack("<H", len(term_bytes)))
            f.write(term_bytes)
            f.write(struct.pack("<I", len(ids)))
            f.write(ids.astype("<u4").tobytes())
            f.write(tfs.astype("<u4").tobytes())


def load_index(path) -> InvertedIndex:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise IndexFormatError(f"not an index file (magic {magic!r})")
        (version,) = struct.unpack("<I", f.read(4))
        if version != _VERSION:
            raise IndexFormatError(f"unsupported index version {version}")
        (header_len,) = struct.unpack("<I", f.read(4))
        header = json.loads(f.read(header_len).decode("utf-8"))
        (ids_len,) = struct.unpack("<Q", f.read(8))
        unit_ids = f.read(ids_len).decode("utf-8").split("\n")
        n = header["n_units"]
        if len(unit_ids) != n:
            raise IndexFormatError("unit id count mismatch")
        lengths = np.frombuffer(f.read(4 * n), dtype="<u4").astype(np.int64)
        (n_terms,) = struct.unpack("<I", f.read(4))
        postings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for _ in range(n_terms):
            (term_len,) = struct.unpack("<H", f.read(2))
            term = f.read(term_len).decode("utf-8")
            (df,) = struct.unpack("<I", f.read(4))
            ids = np.frombuffer(f.read(4 * df), dtype="<u4").copy()
            tfs = np.frombuffer(f.read(4 * df), dtype="<u4").copy()
            postings[term] = (ids, tfs)
    return InvertedIndex(
        unit_ids, lengths, postings, header["unit_kind"], AnalyzerConfig.from_dict(header["analyzer"])
    )


# ---------------------------------------------------------------------------
# TREC run files
# ---------------------------------------------------------------------------

def write_trec_run(runs: Iterable[RankedList], path, tag: str = "casebench") -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for run in runs:
            for entry in run.entries:
                f.write(f"{run.query_id} Q0 {entry.unit_id} {entry.rank} {entry.score:.6f} {tag}\n")
                n += 1
    return n


def read_trec_run(path) -> dict[str, list[tuple[str, float, int]]]:
    """query_id -> [(unit_id, score, rank)] sorted by rank."""
    runs: dict[str, list[tuple[str, float, int]]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 6:
                raise ValueError(f"{path}:{lineno}: malformed run line")
            qid, _, unit_id, rank, score = parts[0], parts[1], parts[2], int(parts[3]), float(parts[4])
            runs.setdefault(qid, []).append((unit_id, score, rank))
    for qid in runs:
        runs[qid].sort(key=lambda t: t[2])
    return runs
