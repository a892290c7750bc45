"""Build retrieval queries from documents: a context window centered on a
case citation whose sentence is masked, in two data views.

single-removed masks only the central citation sentence; all-removed
additionally strips every other case citation and short form from the
window.  Statute citations always stay.  The cited document is the query's
relevance target.

Each document is parsed once (``parse_document``: citations under one
reporter table, then words, paired quotes and every central's target keys
on first use); ``build_query`` then makes every requested view of one
central citation from that parse, and nothing re-scans a window or a
masked text.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .citations import (
    KIND_CASE,
    KIND_SHORT_FORM,
    CitationError,
    CitationKey,
    CitationSpan,
    QuoteSpan,
    ReporterTable,
    citation_sentence_bounds,
    default_reporter_table,
    extract_direct_quotes,
    find_citations,
    parse_citation_key,
)
# read_queries_jsonl and read_qrels live in corpus so that search and eval
# read their inputs without loading this module; they are re-exported here.
from .corpus import (
    DEFAULT_QUERY_WINDOW,
    CaseDocument,
    read_qrels,
    read_queries_jsonl,
    word_bounds,
    write_jsonl,
)

VIEW_SINGLE_REMOVED = "single-removed"
VIEW_ALL_REMOVED = "all-removed"
KIND_DIRECT = "direct"
KIND_INDIRECT = "indirect"

_VIEW_CODES = {VIEW_SINGLE_REMOVED: "sr", VIEW_ALL_REMOVED: "ar"}
_GAP_RE = re.compile(r"^[\s,]*$")


@dataclass(frozen=True)
class RetrievalQuery:
    """A masked context window with central-citation metadata.

    ``left_context`` + ``central_sentence`` + ``right_context`` reassemble
    the pre-mask window text; ``masked_text`` is the retrieval input and
    ``display_text`` shows a REDACTED marker where the sentence stood.
    """

    query_id: str
    doc_id: str
    left_context: str
    central_sentence: str
    right_context: str
    view: str
    kind: str
    masked_text: str
    display_text: str
    target_keys: tuple[CitationKey, ...]
    window_words: int
    # Some short form (Id., supra, at-page cite) outside the central sentence
    # stays in the window and may refer to the masked case.  Not serialized.
    residual_short_form: bool


@dataclass(frozen=True)
class QrelsEntry:
    query_id: str
    unit_id: str
    relevance: int = 1


@dataclass
class QueryConstructionReport:
    """Tallies from a query-construction pass over a corpus."""

    centrals_considered: int = 0
    built: int = 0
    skipped_no_bounds: int = 0
    skipped_unresolvable: int = 0
    # Built centrals, per window length, whose window keeps a short form (Id.,
    # supra, at-page cite) outside the masked sentence; it may refer to the masked case.
    residual_short_form_queries: int = 0

    @property
    def sentence_failure_rate(self) -> float:
        if self.centrals_considered == 0:
            return 0.0
        return self.skipped_no_bounds / self.centrals_considered

    def to_dict(self) -> dict:
        return {**asdict(self), "sentence_failure_rate": self.sentence_failure_rate}


def _seam_join(*parts: str) -> str:
    pieces = [p.strip() for p in parts if p.strip()]
    return " ".join(pieces)


def _word_index_at(word_starts: list[int], char_pos: int) -> int:
    """Index of the word containing or following char_pos."""
    return max(0, bisect_right(word_starts, char_pos) - 1)


@dataclass(frozen=True)
class ParsedDocument:
    """A document citation-parsed once under one reporter table; its words,
    paired quotes and target keys are computed at most once.  Every query
    around its citations, and the citation dump, reads from it."""

    doc_id: str
    text: str
    citations: list[CitationSpan]

    # Found on first use, so a document without central citations is never
    # split into words.
    @cached_property
    def word_bounds(self) -> tuple[list[int], list[int]]:
        """The start offsets and the end offsets of the words of ``text``."""
        return word_bounds(self.text)

    @cached_property
    def quotes(self) -> list[QuoteSpan]:
        """Curly-quoted extracts paired with their citations, by start."""
        return extract_direct_quotes(self.text, self.citations)

    @cached_property
    def cases(self) -> list[CitationSpan]:
        return [c for c in self.citations if c.kind == KIND_CASE]

    @cached_property
    def targets(self) -> dict[int, tuple[CitationKey, ...]]:
        """Each central's start -> its target keys.  A case citation targets
        the distinct keys of its parallel run in order: the case citations
        joined to it by bare ", " gaps on one line, the parallel reporters
        of one decision.  A short form targets the run of the last case
        citation before it with its key, or its own key alone."""
        run: list[CitationKey] = []
        run_of: dict[int, list[CitationKey]] = {}
        prev = None
        for case in self.cases:
            gap = self.text[prev.end : case.start] if prev else None
            if gap is None or "\n" in gap or not _GAP_RE.match(gap):
                run = []
            if case.key is not None and case.key not in run:
                run.append(case.key)
            run_of[case.start] = run
            prev = case
        targets: dict[int, tuple[CitationKey, ...]] = {}
        last_run: dict[CitationKey, tuple[CitationKey, ...]] = {}
        for c in self.citations:
            if c.key is None:
                continue
            if c.kind == KIND_CASE:
                targets[c.start] = last_run[c.key] = tuple(run_of[c.start])
            elif c.kind == KIND_SHORT_FORM:
                targets[c.start] = last_run.get(c.key, (c.key,))
        return targets

    def centrals(self) -> list[CitationSpan]:
        """Central candidates: full case citations and short forms that
        resolve to a key."""
        return [c for c in self.citations if c.key is not None and c.kind in (KIND_CASE, KIND_SHORT_FORM)]


def parse_document(doc: CaseDocument, reporters: ReporterTable) -> ParsedDocument:
    """Find the citations of ``doc`` under ``reporters``; its words are
    tokenized when a query first needs them."""
    return ParsedDocument(doc.doc_id, doc.text, find_citations(doc.text, reporters))


def build_query(
    parsed: ParsedDocument,
    central: CitationSpan,
    window_words: int = DEFAULT_QUERY_WINDOW,
    views: Sequence[str] = (VIEW_SINGLE_REMOVED,),
) -> dict[str, RetrievalQuery] | None:
    """Build the queries around ``central``, one per view, keyed by view in
    the order given; None when its sentence bounds cannot be found.

    The window takes window_words//2 words on each side of the citation
    start, truncated at document edges without rebalancing, then extends to
    cover the whole central sentence.  Every view shares the window, the
    targets and the direct/indirect kind.
    """
    if not views:
        raise ValueError("views must not be empty")
    for view in views:
        if view not in _VIEW_CODES:
            raise ValueError(f"unknown view {view!r}")
    target_keys = parsed.targets.get(central.start)
    if target_keys is None:
        raise ValueError("central citation must be one of the document's centrals")
    text = parsed.text
    bounds = citation_sentence_bounds(text, central, parsed.cases)
    if bounds is None:
        return None
    sent_start, sent_end = bounds

    starts, ends = parsed.word_bounds
    total = len(starts)
    half = window_words // 2
    anchor = _word_index_at(starts, central.start)
    sw_start = _word_index_at(starts, sent_start)
    if ends[sw_start] <= sent_start and sw_start + 1 < total:
        sw_start += 1
    sw_end = _word_index_at(starts, max(sent_start, sent_end - 1)) + 1

    lo_w = min(max(0, anchor - half), sw_start)
    hi_w = max(min(total, anchor + half), sw_end)
    lo_c = starts[lo_w]
    hi_c = ends[hi_w - 1]

    # A citation the window edge cuts through still counts: its in-window
    # part is masked, so no fragment of a target survives.
    window_citations = [c for c in parsed.citations if c.start < hi_c and lo_c < c.end]
    kind = _classify(parsed, lo_c, hi_c, target_keys)
    residual = any(
        c.kind == KIND_SHORT_FORM and not (c.start < sent_end and sent_start < c.end)
        for c in window_citations
    )

    out = {}
    for view in views:
        masked, display = _mask(text, lo_c, hi_c, sent_start, sent_end, view, target_keys, window_citations)
        out[view] = RetrievalQuery(
            query_id=f"{parsed.doc_id}:{central.start}:{_VIEW_CODES[view]}",
            doc_id=parsed.doc_id,
            left_context=text[lo_c:sent_start],
            central_sentence=text[sent_start:sent_end],
            right_context=text[sent_end:hi_c],
            view=view,
            kind=kind,
            masked_text=masked,
            display_text=display,
            target_keys=target_keys,
            window_words=window_words,
            residual_short_form=residual,
        )
    return out


def _classify(parsed: ParsedDocument, lo_c: int, hi_c: int, target_keys: tuple[CitationKey, ...]) -> str:
    """direct iff some quote with both marks in the window [lo_c, hi_c) pairs
    with a citation carrying a target key: the central citation, a parallel
    cite of it, or a short form resolving to one of them."""
    quotes = parsed.quotes
    # A quote's start is one past its opening mark, and its end is the
    # index of its closing mark.
    for quote in quotes[bisect_left(quotes, lo_c + 1, key=lambda q: q.start) :]:
        if quote.start >= hi_c:
            break
        paired = quote.paired_citation
        if quote.end < hi_c and paired is not None and paired.key in target_keys:
            return KIND_DIRECT
    return KIND_INDIRECT


def _mask(
    text: str,
    lo_c: int,
    hi_c: int,
    sent_start: int,
    sent_end: int,
    view: str,
    target_keys: tuple[CitationKey, ...],
    window_citations: Sequence[CitationSpan],
) -> tuple[str, str]:
    def doomed(c: CitationSpan) -> bool:
        if view == VIEW_ALL_REMOVED:
            return c.kind in (KIND_CASE, KIND_SHORT_FORM)
        # Residual full citations of the central case leak the target;
        # they go too, even in the single-removed view.
        return c.kind == KIND_CASE and c.key in target_keys

    def cut(lo: int, hi: int) -> str:
        """text[lo:hi] without the parts of its doomed citations; each cut
        closes up to one space."""
        pieces, pos = [], lo
        for c in window_citations:
            if c.start < hi and lo < c.end and doomed(c):
                pieces.append(text[pos : max(c.start, lo)])
                pos = min(c.end, hi)
        pieces.append(text[pos:hi])
        return " ".join(piece.strip(" \t") for piece in pieces)

    left_clean = cut(lo_c, sent_start)
    right_clean = cut(sent_end, hi_c)
    masked = _seam_join(left_clean, right_clean)
    display = _seam_join(left_clean, "REDACTED", right_clean)
    return masked, display


# ---------------------------------------------------------------------------
# Corpus-level construction
# ---------------------------------------------------------------------------

def build_corpus_key_index(
    docs: Iterable[CaseDocument], reporters: ReporterTable
) -> tuple[dict[CitationKey, str], list[str]]:
    """Map each document's own reporter citation to its doc id.

    Duplicate reporter cites keep the first-indexed document; conflicts are
    reported for the construction log.
    """
    index: dict[CitationKey, str] = {}
    conflicts: list[str] = []
    for doc in docs:
        if not doc.reporter_cite:
            continue
        try:
            key = parse_citation_key(doc.reporter_cite, reporters)
        except CitationError:
            conflicts.append(f"{doc.doc_id}: unparseable reporter_cite {doc.reporter_cite!r}")
            continue
        if key in index:
            conflicts.append(f"{doc.doc_id}: reporter_cite {key} already maps to {index[key]}")
            continue
        index[key] = doc.doc_id
    return index, conflicts


def resolve_target(query_target_keys: Sequence[CitationKey], key_index: Mapping[CitationKey, str]) -> str | None:
    """First resolvable parallel key wins (recorded policy for qrels)."""
    for key in query_target_keys:
        if key in key_index:
            return key_index[key]
    return None


def build_queries(
    docs: Sequence[CaseDocument],
    views: Sequence[str] = (VIEW_SINGLE_REMOVED,),
    kinds: Sequence[str] | None = None,
    window_words: Sequence[int] = (DEFAULT_QUERY_WINDOW,),
    reporters: ReporterTable | None = None,
) -> tuple[list[RetrievalQuery], list[QrelsEntry], QueryConstructionReport]:
    """Construct all queries over a corpus, with doc-level qrels, under
    ``reporters`` (the default table when None).

    Central candidates are full case citations plus short forms that
    resolve to a key; a query is emitted only when some parallel key
    resolves to a corpus document other than its own.  Each central gets
    one query per view and window length, in the order given; with more
    than one length, query ids end in ``:w<length>``.  The lengths must be
    distinct and positive, and there must be at least one, or
    ``ValueError`` is raised.
    """
    if not window_words or len(set(window_words)) < len(window_words) or min(window_words) < 1:
        raise ValueError(f"window lengths must be distinct positive integers, got {list(window_words)}")
    table = reporters or default_reporter_table()
    key_index, _ = build_corpus_key_index(docs, table)
    report = QueryConstructionReport()
    queries: list[RetrievalQuery] = []
    qrels: list[QrelsEntry] = []
    for doc in docs:
        parsed = parse_document(doc, table)
        for central in parsed.centrals():
            report.centrals_considered += 1
            for length in window_words:
                built = build_query(parsed, central, length, views)
                if built is None:
                    report.skipped_no_bounds += 1
                    break
                first = built[views[0]]
                target_doc = resolve_target(first.target_keys, key_index)
                if target_doc is None or target_doc == doc.doc_id:
                    report.skipped_unresolvable += 1
                    break
                # Every view of a central shares its kind.
                if kinds is not None and first.kind not in kinds:
                    continue
                if first.residual_short_form:
                    report.residual_short_form_queries += 1
                for view in views:
                    q = built[view]
                    if len(window_words) > 1:
                        q = replace(q, query_id=f"{q.query_id}:w{length}")
                    queries.append(q)
                    qrels.append(QrelsEntry(q.query_id, target_doc, 1))
                    report.built += 1
    return queries, qrels, report


def passage_qrels(
    doc_qrels: Sequence[QrelsEntry], passages_by_doc: Mapping[str, Sequence[str]]
) -> list[QrelsEntry]:
    """Doc-level positives inherited by every passage of the cited document."""
    out = []
    for entry in doc_qrels:
        for passage_id in passages_by_doc.get(entry.unit_id, ()):
            out.append(QrelsEntry(entry.query_id, passage_id, entry.relevance))
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_queries_jsonl(queries: Iterable[RetrievalQuery], path) -> int:
    return write_jsonl(
        (
            {
                "query_id": q.query_id,
                "doc_id": q.doc_id,
                "view": q.view,
                "kind": q.kind,
                "window_words": q.window_words,
                "masked_text": q.masked_text,
                "display_text": q.display_text,
                "target_keys": [str(k) for k in q.target_keys],
            }
            for q in queries
        ),
        path,
    )


def write_qrels(entries: Iterable[QrelsEntry], path) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for e in entries:
            f.write(f"{e.query_id} 0 {e.unit_id} {e.relevance}\n")
            n += 1
    return n
