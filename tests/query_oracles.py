"""The query display text as it was stored in every ``queries.jsonl`` row
before rows carried ``redacted_at``: the window's left and right context,
each with the view's doomed citations cut out, seam-joined around a
REDACTED marker.  The window is recovered from the query's own context
fields, so the oracle shares no offset with the builder it checks."""

from __future__ import annotations

from casebench.citations import KIND_CASE, KIND_SHORT_FORM, CitationSpan, citation_sentence_bounds
from casebench.queries import VIEW_ALL_REMOVED, ParsedDocument, RetrievalQuery


def seam_join(*parts: str) -> str:
    return " ".join(p.strip() for p in parts if p.strip())


def display_text(parsed: ParsedDocument, central: CitationSpan, query: RetrievalQuery) -> str:
    text = parsed.text
    sent_start, sent_end = citation_sentence_bounds(text, central, parsed.cases)
    assert text[sent_start:sent_end] == query.central_sentence
    lo_c, hi_c = sent_start - len(query.left_context), sent_end + len(query.right_context)
    window = [c for c in parsed.citations if c.start < hi_c and lo_c < c.end]

    def doomed(c: CitationSpan) -> bool:
        if query.view == VIEW_ALL_REMOVED:
            return c.kind in (KIND_CASE, KIND_SHORT_FORM)
        return c.kind == KIND_CASE and c.key in query.target_keys

    def cut(lo: int, hi: int) -> str:
        pieces, pos = [], lo
        for c in window:
            if c.start < hi and lo < c.end and doomed(c):
                pieces.append(text[pos : max(c.start, lo)])
                pos = min(c.end, hi)
        pieces.append(text[pos:hi])
        return " ".join(piece.strip(" \t") for piece in pieces)

    return seam_join(cut(lo_c, sent_start), "REDACTED", cut(sent_end, hi_c))
