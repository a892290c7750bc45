"""Lexical retrieval over passages and documents.

BM25 over an inverted index, ranking its units or, by their best passage
(MaxP), its documents; n-gram quote matching; and exact substring search.
Scoring is deterministic: ties break by ascending unit or document id
everywhere, and index builds are reproducible byte-for-byte.
"""

from __future__ import annotations

import json
import math
import struct
from array import array
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .corpus import BM25_B, BM25_K1, CLOSE_QUOTE, OPEN_QUOTE, DataError, _checked_id, fold_words, iter_lines, shingles

# numpy is imported by the functions that touch index arrays, so the CLI
# stages that never build, load or search an index start without it.
if TYPE_CHECKING:
    import numpy as np

_MAGIC = b"CBIX"
_VERSION = 2


class IndexFormatError(DataError):
    """Serialized index file has the wrong magic or version, or its
    sections do not match its header and size."""


class RankedEntry(NamedTuple):
    unit_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class RankedList:
    """Top-k retrieval result: scores non-increasing, ranks 1..k contiguous."""

    query_id: str
    entries: tuple[RankedEntry, ...]

    def unit_ids(self) -> list[str]:
        return [e.unit_id for e in self.entries]


def _ranked(query_id: str, unit_ids: Iterable[str], scores: Iterable[float]) -> RankedList:
    """Ranks 1, 2, ... for the units in the order given, with their scores."""
    entries = tuple(map(RankedEntry._make, zip(unit_ids, scores, count(1))))
    return RankedList(query_id=query_id, entries=entries)


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def _check_bm25(k1: float, b: float) -> None:
    """A NaN or infinite k1 makes every score NaN, a negative one every
    score negative, and a b outside [0, 1] a length penalty that reorders
    the ranking; each raises ``ValueError``."""
    if not 0.0 <= k1 < math.inf:
        raise ValueError(f"k1 must be finite and at least 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must lie in [0, 1], got {b}")


def _ranked_top(query_id: str, scored: Iterable[tuple[str, float]], k: int) -> RankedList:
    """The k best of (id, score) pairs that score above 0, best first,
    ties by ascending id, as ``_top_k`` breaks them; k must be at least 1."""
    _check_k(k)
    top = sorted((pair for pair in scored if pair[1] > 0.0), key=lambda pair: (-pair[1], pair[0]))[:k]
    return _ranked(query_id, [unit_id for unit_id, _ in top], [score for _, score in top])


def _id_ranks(ids: list[str]) -> np.ndarray:
    """Rank of each id in ascending id order, for tie-breaking."""
    import numpy as np

    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


@dataclass(frozen=True)
class AnalyzerConfig:
    """Lowercase, split on non-alphanumerics; internal periods are kept so
    citation-like tokens ("f.3d", "u.s.c") survive as single terms.  No
    stemming, no stopwords."""

    lowercase: bool = True
    keep_citation_periods: bool = True

    def to_dict(self) -> dict:
        return {"lowercase": self.lowercase, "keep_citation_periods": self.keep_citation_periods}


def _term_table(keep: bytes) -> bytes:
    """A ``bytes.translate`` table turning every byte but ``keep``'s into a space."""
    return bytes(c if c in keep else 32 for c in range(256))


_TERM_TABLES = {
    (lowercase, periods): _term_table(
        b"0123456789abcdefghijklmnopqrstuvwxyz"
        + (b"" if lowercase else b"ABCDEFGHIJKLMNOPQRSTUVWXYZ")
        + (b"." if periods else b"")
    )
    for lowercase in (True, False)
    for periods in (True, False)
}


def analyze(text: str, config: AnalyzerConfig | None = None) -> list[str]:
    """BM25 terms of ``text``: by default, the runs of ASCII digits and
    lowercase letters of ``text.lower()``, where a single period between
    two such characters stays inside its term.  Every other code point
    separates terms, as in ``corpus.fold_words``; ``config`` can keep the
    case or split at every period."""
    config = config or AnalyzerConfig()
    if config.lowercase:
        text = text.lower()
    data = text.encode("ascii", "replace").translate(_TERM_TABLES[config.lowercase, config.keep_citation_periods])
    if config.keep_citation_periods:
        # Runs of spaces and periods now separate the terms, and once padded,
        # every period that is not internal touches a period or a space:
        # ".." clears pairs, leaving no two periods adjacent, and ". " and
        # " ." clear the rest.  Same-length replacements copy faster than
        # shrinking ones.
        data = (b" " + data + b" ").replace(b"..", b"  ").replace(b". ", b"  ").replace(b" .", b"  ")
    return data.decode("ascii").split()


class _Postings(Mapping):
    """Read-only term -> (unit indexes, tfs) view of an index's columns;
    each lookup slices the columns, so nothing is copied or cached."""

    def __init__(self, index: "InvertedIndex"):
        self._index = index

    def __getitem__(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        index = self._index
        i = index.term_ids[term]
        lo, hi = index.offsets[i], index.offsets[i + 1]
        return index.units[lo:hi], index.tfs[lo:hi]

    def __iter__(self):
        return iter(self._index.terms)

    def __len__(self) -> int:
        return len(self._index.terms)


class InvertedIndex:
    """Immutable columnar BM25 index over passages or documents.

    ``terms`` is the sorted vocabulary.  The postings of ``terms[i]`` are
    ``units[offsets[i]:offsets[i + 1]]``, ascending unit indexes, with
    their term frequencies in ``tfs`` alongside.  Unit indexes follow input
    order and map to ``unit_ids``.  ``postings`` views the same columns as
    a term -> (ids, tfs) mapping.  ``path`` is the file the index was
    loaded from, if any, for error messages.
    """

    def __init__(
        self,
        unit_ids: list[str],
        lengths: np.ndarray,
        terms: list[str],
        offsets: np.ndarray,
        units: np.ndarray,
        tfs: np.ndarray,
        unit_kind: str,
        path=None,
    ):
        for column in (lengths, offsets, units, tfs):
            column.flags.writeable = False
        self.unit_ids = unit_ids
        self.lengths = lengths
        self.terms = terms
        self.offsets = offsets
        self.units = units
        self.tfs = tfs
        self.postings = _Postings(self)
        self.unit_kind = unit_kind
        self.analyzer = AnalyzerConfig()
        self.path = path
        self.n_units = len(unit_ids)
        # Exact integer sum keeps the average reproducible across builds.
        self.avg_length = float(int(lengths.sum())) / self.n_units if self.n_units else 0.0
        self.id_rank = _id_ranks(unit_ids)
        self._norms: dict[tuple[float, float], np.ndarray] = {}

    @property
    def vocabulary_size(self) -> int:
        return len(self.terms)

    @cached_property
    def term_ids(self) -> dict[str, int]:
        """Term -> its position in ``terms``, built on first lookup, so a
        build that is only saved never holds it."""
        return dict(zip(self.terms, range(len(self.terms))))

    @cached_property
    def documents(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """(ids, starts, id ranks) of a passage index's documents, worked
        out on first use: the passages of ``ids[j]`` are the units from
        ``starts[j]`` up to the next start.  A passage's document is its id
        with the last "#<chunk>" removed, and each document's passages must
        be contiguous, as ``chunk`` writes them, or ``DataError`` is raised."""
        import numpy as np

        doc_of = [unit_id.rsplit("#", 1)[0] for unit_id in self.unit_ids]
        starts = [i for i, doc in enumerate(doc_of) if i == 0 or doc != doc_of[i - 1]]
        ids = [doc_of[i] for i in starts]
        split = [doc for doc, runs in Counter(ids).items() if runs > 1]
        if split:
            raise DataError(f"{self.path or 'passage index'}: the passages of document {split[0]!r} are not contiguous")
        return ids, np.array(starts, dtype=np.int64), _id_ranks(ids)

    def _length_norm(self, k1: float, b: float) -> np.ndarray:
        """Per-unit BM25 length normalisation, computed (and its settings
        checked) once per (k1, b)."""
        norm = self._norms.get((k1, b))
        if norm is None:
            _check_bm25(k1, b)
            # Tokenless units alone (average length 0) have no postings, so
            # their norm is never read.
            norm = self._norms[(k1, b)] = k1 * (1.0 - b + b * (self.lengths / (self.avg_length or 1.0)))
        return norm


# An index build rewrites its buffer this many tokens or postings at a time
# (rounded to whole units when keys are written, to whole runs when they
# are encoded), so its temporaries stay small beside the buffer.
_RLE_SLICE = 1 << 12


def build_index(units: Iterable[tuple[str, str]], unit_kind: str = "passage") -> InvertedIndex:
    """Build an inverted index over (unit_id, text) pairs, read once, so
    ``units`` may be a one-shot iterator; no unit text is kept.  Unit ids
    must be unique ids (``corpus._checked_id``), or ``ValueError`` is
    raised.

    The build holds one int64 per token, in one buffer that is rewritten in
    place: first each token's term id, then its (term, unit) key, then the
    keys sorted, whose runs are the postings and their tfs.
    """
    import numpy as np

    unit_ids: list[str] = []
    lengths = array("q")
    # A term unseen so far gets the next id: the factory returns the
    # vocabulary's size before the term is inserted.
    vocab: defaultdict[str, int] = defaultdict()
    vocab.default_factory = vocab.__len__
    buf = array("q")
    for unit_id, text in units:
        unit_ids.append(_checked_id(unit_id, "unit id"))
        terms = analyze(text)
        lengths.append(len(terms))
        buf.fromlist(list(map(vocab.__getitem__, terms)))
    if not unit_ids:
        raise ValueError("cannot index an empty unit collection")
    if len(set(unit_ids)) != len(unit_ids):
        raise ValueError("unit ids must be unique")
    lengths = np.frombuffer(lengths, dtype=np.int64)

    terms = sorted(vocab)
    rank = np.empty(len(terms), dtype=np.int64)
    rank[np.fromiter(map(vocab.__getitem__, terms), dtype=np.int64, count=len(terms))] = np.arange(len(terms))
    del vocab
    keys = np.frombuffer(buf, dtype=np.int64)
    _write_keys(keys, rank, lengths)
    keys.sort()
    dfs, n_runs = _encode_runs(keys, len(unit_ids), len(terms))
    # The array can shrink only once no numpy view exports its buffer.
    del keys
    del buf[n_runs:]
    postings, tfs = _split_runs(buf, n_runs)
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(dfs, out=offsets[1:])
    return InvertedIndex(unit_ids, lengths, terms, offsets, postings, tfs, unit_kind)


def _write_keys(keys: np.ndarray, rank: np.ndarray, lengths: np.ndarray) -> None:
    """Turn each token's first-seen term id in ``keys`` into its
    ``rank[term] * n_units + unit`` key, in place, about ``_RLE_SLICE``
    tokens (and always at least one unit) at a time."""
    import numpy as np

    n = lengths.size
    ends = np.cumsum(lengths)
    unit = 0
    while unit < n:
        lo = int(ends[unit] - lengths[unit])
        stop = max(unit + 1, int(np.searchsorted(ends, lo + _RLE_SLICE, side="right")))
        part = keys[lo : ends[stop - 1]]
        part[:] = rank[part] * n + np.repeat(np.arange(unit, stop), lengths[unit:stop])
        unit = stop


def _encode_runs(keys: np.ndarray, n_units: int, n_terms: int) -> tuple[np.ndarray, int]:
    """Run-length encode sorted ``term * n_units + unit`` keys in place:
    each run is one posting, its length the tf, and run i is written over
    key slot i as the two uint32 words (unit, tf).  Returns each term's
    posting count and the number of runs.

    The keys are read ``_RLE_SLICE`` at a time, each slice extended to the
    end of its last run, and a slice's runs are written only once its keys
    are read.  A slice holds at least as many keys as runs, so no run lands
    past the keys read; the prefix is overwritten, so the end of a slice
    is searched for in the unread suffix alone.
    """
    import numpy as np

    # Each run's pair is written through a uint32 view, so the layout does
    # not depend on byte order.
    words = keys.view(np.uint32)
    dfs = np.zeros(n_terms, dtype=np.int64)
    lo = n_runs = 0
    while lo < keys.size:
        unread = keys[lo:]
        hi = lo + int(np.searchsorted(unread, unread[min(_RLE_SLICE, unread.size) - 1], side="right"))
        part = keys[lo:hi]
        first = np.empty(part.size, dtype=bool)
        first[0] = True
        np.not_equal(part[1:], part[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        tfs = np.diff(starts, append=part.size)
        run_terms, run_units = np.divmod(part[starts], n_units)
        dfs[run_terms[0] : run_terms[-1] + 1] += np.bincount(run_terms - run_terms[0])
        runs = words[2 * n_runs : 2 * (n_runs + starts.size)]
        runs[0::2] = run_units
        runs[1::2] = tfs
        n_runs += starts.size
        lo = hi
    return dfs, n_runs


def _split_runs(buf: array, n_runs: int) -> tuple[np.ndarray, np.ndarray]:
    """The uint32 unit and tf columns of the ``n_runs`` (unit, tf) pairs
    that fill ``buf``.  The units are copied out; the tfs are moved to the
    front of ``buf``, which then shrinks to them, so at most 12 bytes per
    posting are held."""
    import numpy as np

    words = np.frombuffer(buf, dtype=np.uint32)
    units = words[0::2].copy()
    # Slice i's tfs come from at or past twice its start, so no slice
    # overwrites a tf that a later one moves.
    for lo in range(0, n_runs, _RLE_SLICE):
        hi = min(lo + _RLE_SLICE, n_runs)
        words[lo:hi] = words[2 * lo + 1 : 2 * hi : 2]
    del words
    del buf[(n_runs + 1) // 2 :]
    return units, np.frombuffer(buf, dtype=np.uint32, count=n_runs)


def bm25_idf(n_units: int, df: int) -> float:
    """Robertson/Sparck-Jones idf, floored at zero."""
    return max(0.0, math.log((n_units - df + 0.5) / (df + 0.5)))


def _bm25_scores(index: InvertedIndex, query_text: str, k1: float, b: float) -> np.ndarray:
    """Every unit's BM25 score for the query, 0 where it shares no scoring
    term; repeated query terms weigh by their frequency."""
    import numpy as np

    norm = index._length_norm(k1, b)
    query_terms = analyze(query_text, index.analyzer)
    spans, sizes, weights = [], [], []
    for term, qtf in sorted(Counter(query_terms).items()):
        i = index.term_ids.get(term)
        if i is None:
            continue
        lo, hi = int(index.offsets[i]), int(index.offsets[i + 1])
        idf = bm25_idf(index.n_units, hi - lo)
        if idf == 0.0:
            continue
        spans.append(slice(lo, hi))
        sizes.append(hi - lo)
        weights.append(qtf * idf)
    if not weights:
        return np.zeros(index.n_units)

    # The postings of every scoring term, in sorted term order, so that
    # bincount adds up each unit's contributions in the order of a
    # term-at-a-time loop.  The in-place steps compute that loop's
    # (qtf * idf) * (tf * (k1 + 1)) / (tf + norm) with the operands of +
    # and * swapped, which IEEE arithmetic leaves bit-identical.
    ids = np.concatenate([index.units[s] for s in spans])
    contrib = np.concatenate([index.tfs[s] for s in spans]).astype(np.float64)
    denom = norm[ids]
    denom += contrib
    contrib *= k1 + 1.0
    contrib *= np.repeat(weights, sizes)
    contrib /= denom
    return np.bincount(ids, weights=contrib, minlength=index.n_units)


def _top_k(scores: np.ndarray, id_rank: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions and scores of the k highest positive scores, best first,
    ties by ascending ``id_rank``; k must be at least 1."""
    import numpy as np

    _check_k(k)
    candidates = np.flatnonzero(scores > 0.0)
    cand_scores = scores[candidates]
    if k < candidates.size:
        # The frontier keeps every unit tied with the k-th score, so the
        # id tie-break below sees all of them.
        kth = np.partition(cand_scores, candidates.size - k)[candidates.size - k]
        keep = cand_scores >= kth
        candidates, cand_scores = candidates[keep], cand_scores[keep]
    order = np.lexsort((id_rank[candidates], -cand_scores))[:k]
    return candidates[order], cand_scores[order]


def bm25_search(
    index: InvertedIndex,
    query_text: str,
    k: int,
    k1: float = BM25_K1,
    b: float = BM25_B,
    query_id: str = "q",
    maxp: bool = False,
) -> RankedList:
    """Top-k BM25 ranking; repeated query terms weigh by their frequency.

    Only units sharing at least one scoring term appear; ties break by
    ascending unit id.  With ``maxp`` the index holds passages, and its
    top k documents are ranked instead, each scored by its best passage
    over every scored passage (MaxP), ties by ascending document id; on
    any other index ``maxp`` raises ``ValueError``.
    """
    import numpy as np

    if maxp and index.unit_kind != "passage":
        raise ValueError(f"MaxP ranks a passage index's documents, not a {index.unit_kind} index's units")
    scores = _bm25_scores(index, query_text, k1, b)
    if maxp:
        ids, starts, id_rank = index.documents
        scores = np.maximum.reduceat(scores, starts)
    else:
        ids, id_rank = index.unit_ids, index.id_rank
    top, top_scores = _top_k(scores, id_rank, k)
    return _ranked(query_id, map(ids.__getitem__, top.tolist()), top_scores.tolist())


def bm25_rank(
    units: Sequence[tuple[str, str]],
    query_text: str,
    k: int,
    k1: float = BM25_K1,
    b: float = BM25_B,
) -> RankedList:
    """Top-k BM25 ranking of a few (unit_id, text) pairs, scored term at a
    time in pure Python with no index: ``bm25_search``'s ids and
    bit-identical scores over an index of the same units, under its
    default query id "q".

    Every step is ``_bm25_scores``': query terms in sorted order, idf-0
    terms skipped, and each unit's sum of
    ``(qtf * idf) * (tf * (k1 + 1)) / (tf + norm)`` in that order.
    """
    _check_bm25(k1, b)
    counts = [Counter(analyze(text)) for _, text in units]
    n = len(counts)
    lengths = [c.total() for c in counts]
    avg_length = sum(lengths) / n if n else 0.0
    scores = [0.0] * n
    for term, qtf in sorted(Counter(analyze(query_text)).items()):
        tfs = [(i, c[term]) for i, c in enumerate(counts) if term in c]
        idf = bm25_idf(n, len(tfs))
        if idf == 0.0:
            continue
        weight = qtf * idf
        for i, tf in tfs:
            norm = k1 * (1.0 - b + b * (lengths[i] / avg_length))
            scores[i] += weight * (tf * (k1 + 1.0)) / (tf + norm)
    return _ranked_top("q", zip([unit_id for unit_id, _ in units], scores), k)


# ---------------------------------------------------------------------------
# Quote retrieval
# ---------------------------------------------------------------------------

class EmptyQuoteError(ValueError):
    """A quote with nothing left to search for once curly marks are removed."""


def _strip_curly_quotes(text: str) -> str:
    return text.replace(OPEN_QUOTE, "").replace(CLOSE_QUOTE, "")


class NgramIndex:
    """Quote lookup over a unit collection for a given batch of quotes, for
    both quote searches.

    The shingle table (for ``ngram_search``) holds the distinct word
    n-grams of ``quotes`` alone, so it costs one pass over the collection's
    words whatever the collection's vocabulary.  It and the curly-stripped
    texts (for ``exact_match_search``) are each built on first use, at most
    once, so a collection searched in one mode never builds the other's
    table.
    """

    def __init__(self, units: Sequence[tuple[str, str]], n: int, quotes: Iterable[str]):
        if n < 1:
            raise ValueError(f"shingle length must be at least 1, got {n}")
        self.n = n
        self.unit_ids = [_checked_id(u[0], "unit id") for u in units]
        self.texts = [u[1] for u in units]
        self.quotes = list(quotes)

    @cached_property
    def grams(self) -> dict[tuple[str, ...], list[int]]:
        """Distinct quote shingle -> ascending indexes of the units holding
        it, empty for a shingle found nowhere.  Shingles come from the raw
        text: stripping the marks first would join "word“next"."""
        n = self.n
        grams = {gram: [] for quote in self.quotes for gram in shingles(fold_words(quote), n)}
        # The keys view tests each unit shingle in C: no Python loop runs
        # over the collection's shingles, only over the quote shingles found.
        wanted = grams.keys()
        for idx, text in enumerate(self.texts):
            for gram in wanted & shingles(fold_words(text), n):
                grams[gram].append(idx)
        return grams

    @cached_property
    def stripped_texts(self) -> list[str]:
        return [_strip_curly_quotes(text) for text in self.texts]


def ngram_search(index: NgramIndex, quote: str, k: int = 10, query_id: str = "q") -> RankedList:
    """Rank units by how many distinct word n-grams of the quote they contain.

    Words are case-folded and punctuation-stripped, so bracketed insertions
    and punctuation edits in a quote still leave the unaltered flanks
    matchable.  Quotes shorter than the index's n words fall back to
    ``exact_match_search``.  A longer quote must be one of the index's
    quotes: ``ValueError`` is raised for a shingle the index was not built
    for, which it could only score 0.
    """
    n = index.n
    quote_words = fold_words(quote)
    if len(quote_words) < n:
        return exact_match_search(index, quote, k, query_id)
    grams = index.grams
    counts: Counter[int] = Counter()
    for gram in set(shingles(quote_words, n)):
        try:
            counts.update(grams[gram])
        except KeyError:
            raise ValueError(f"quote {quote!r} is not among the quotes this index was built for") from None
    return _ranked_top(query_id, ((index.unit_ids[idx], float(c)) for idx, c in counts.items()), k)


def exact_match_search(index: NgramIndex, quote: str, k: int = 10, query_id: str = "q") -> RankedList:
    """Units whose raw text contains the quote as an exact substring, after
    removing curly quotation marks from both sides; hits score 1.0 and run
    by ascending id.  Raises ``EmptyQuoteError`` when nothing is left."""
    needle = _strip_curly_quotes(quote).strip()
    if not needle:
        raise EmptyQuoteError("empty quote")
    hits = ((u, 1.0) for u, text in zip(index.unit_ids, index.stripped_texts) if needle in text)
    return _ranked_top(query_id, hits, k)


# ---------------------------------------------------------------------------
# Index serialization (versioned binary)
# ---------------------------------------------------------------------------

def save_index(index: InvertedIndex, path) -> None:
    """Write the index: magic, version, JSON header, the unit-ids and terms
    blobs, then lengths, dfs, units and tfs as raw little-endian u4
    arrays.  The bytes are a function of the units alone."""
    import numpy as np

    header = json.dumps(
        {
            "unit_kind": index.unit_kind,
            "n_units": index.n_units,
            "n_terms": len(index.terms),
            "n_postings": len(index.units),
            "analyzer": index.analyzer.to_dict(),
        },
        sort_keys=True,
    ).encode("utf-8")
    ids_blob = "\n".join(index.unit_ids).encode("utf-8")
    terms_blob = "\n".join(index.terms).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC + struct.pack("<II", _VERSION, len(header)) + header)
        f.write(struct.pack("<Q", len(ids_blob)) + ids_blob)
        f.write(struct.pack("<Q", len(terms_blob)) + terms_blob)
        for column in (index.lengths, np.diff(index.offsets), index.units, index.tfs):
            f.write(column.astype("<u4", copy=False).data)


class _Reader:
    """Bounds-checked cursor over an index file's bytes."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.path = path
        self.pos = 0

    def error(self, message: str) -> IndexFormatError:
        return IndexFormatError(f"{self.path}: {message}")

    def take(self, n: int, what: str) -> int:
        """Claim the next ``n`` bytes; return where they start."""
        start = self.pos
        if n < 0 or start + n > len(self.data):
            raise self.error(
                f"truncated index: {what} needs {n} bytes at offset {start}, file has {len(self.data)}"
            )
        self.pos = start + n
        return start

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self.take(struct.calcsize(fmt), what))

    def lines(self, what: str, count: int) -> list[str]:
        """A length-prefixed UTF-8 blob of ``count`` newline-separated items."""
        (size,) = self.unpack("<Q", f"{what} length")
        start = self.take(size, what)
        try:
            text = self.data[start : start + size].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what}: {exc}")
        items = text.split("\n") if text or count else []
        if len(items) != count:
            raise self.error(f"{what}: expected {count} entries, found {len(items)}")
        return items

    def u4(self, count: int, what: str) -> np.ndarray:
        import numpy as np

        return np.frombuffer(self.data, dtype="<u4", count=count, offset=self.take(4 * count, what))


def load_index(path) -> InvertedIndex:
    """Read an index written by ``save_index``.  Every section is checked
    against the header counts and the file size, so a truncated or
    inconsistent file raises ``IndexFormatError`` naming the file."""
    import numpy as np

    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data, path)
    magic = data[:4]
    if magic != _MAGIC:
        raise r.error(f"not an index file (magic {magic!r})")
    r.take(4, "magic")
    (version,) = r.unpack("<I", "version")
    if version != _VERSION:
        raise r.error(f"unsupported index version {version}; rebuild it with this version's `index`")
    (header_len,) = r.unpack("<I", "header length")
    start = r.take(header_len, "header")
    try:
        header = json.loads(data[start : start + header_len].decode("utf-8"))
        n_units, n_terms, n_postings = (int(header[key]) for key in ("n_units", "n_terms", "n_postings"))
        unit_kind = str(header["unit_kind"])
        analyzer = header["analyzer"]
    except (ValueError, KeyError, TypeError) as exc:
        raise r.error(f"bad index header: {exc}")
    # Compared as JSON, so that 1 does not pass for true.
    default = AnalyzerConfig().to_dict()
    if json.dumps(analyzer, sort_keys=True) != json.dumps(default, sort_keys=True):
        raise r.error(f"bad index header: analyzer {analyzer!r} is not the default {default!r}")
    if min(n_units, n_terms, n_postings) < 0:
        raise r.error("bad index header: negative count")
    unit_ids = r.lines("unit ids", n_units)
    terms = r.lines("terms", n_terms)
    arrays_size, left = 4 * (n_units + n_terms + 2 * n_postings), len(data) - r.pos
    if left != arrays_size:
        raise r.error(
            f"{'truncated' if left < arrays_size else 'oversized'} index: "
            f"arrays need {arrays_size} bytes at offset {r.pos}, file has {left}"
        )
    lengths = r.u4(n_units, "lengths").astype(np.int64)
    offsets = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(r.u4(n_terms, "dfs"), out=offsets[1:])
    if offsets[-1] != n_postings:
        raise r.error(f"dfs sum to {offsets[-1]}, header says {n_postings} postings")
    units = r.u4(n_postings, "units")
    tfs = r.u4(n_postings, "tfs")
    if n_postings and int(units.max()) >= n_units:
        raise r.error(f"posting names unit {int(units.max())} of {n_units}")
    return InvertedIndex(unit_ids, lengths, terms, offsets, units, tfs, unit_kind, path)


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
    """query_id -> [(unit_id, score, rank)] sorted by rank.  A unit ranked
    twice for one query is a DataError: it would be counted twice as a hit."""
    runs: dict[str, list[tuple[str, float, int]]] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, line in iter_lines(path):
        try:
            qid, _, unit_id, rank, score, _ = line.split()
            row = (unit_id, float(score), int(rank))
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed run line (query Q0 unit rank score tag)") from None
        if (qid, unit_id) in seen:
            raise DataError(f"{path}:{lineno}: unit {unit_id!r} ranked again for query {qid!r}")
        seen.add((qid, unit_id))
        runs.setdefault(qid, []).append(row)
    for qid in runs:
        runs[qid].sort(key=lambda t: t[2])
    return runs
