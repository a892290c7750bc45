"""Reference implementations the citation scanners and word bounds are
checked against: the citation and sentence-starter patterns as they were
before each opened with the character it consumes (every one behind a
leading lookbehind), the per-character sentence-terminal walk, the caption
walk that tokenizes the whole paragraph prefix, and word bounds cut from
``tokenize_words``.  They are slow and plain on purpose."""

from __future__ import annotations

import re
from bisect import bisect_left

from casebench.citations import (
    _ABBREVIATIONS,
    _CAPTION_CONNECTORS,
    _CAPTION_STOPWORDS,
    _CLOSERS,
    _PIN_TAIL,
    KIND_CASE,
    KIND_SHORT_FORM,
    KIND_STATUTE,
    CitationError,
    CitationKey,
    CitationSpan,
    ReporterTable,
)
from casebench.corpus import tokenize_words

USC_RE = re.compile(
    r"(?<![\w.])\d{1,3}[ \t]+U\.[ \t]?S\.[ \t]?C\.(?:A\.)?[ \t]*§{1,2}[ \t]*\d+[A-Za-z0-9().–-]*"
)
FRCP_RE = re.compile(r"Fed\.[ \t]?R\.[ \t]?Civ\.[ \t]?P\.[ \t]*\d+[A-Za-z0-9().]*")
ID_RE = re.compile(rf"(?<![A-Za-z])[Ii]d\.(?:[ \t]+at[ \t]+{_PIN_TAIL})?")
SUPRA_RE = re.compile(rf"(?<![A-Za-z])supra(?:,?[ \t]+(?:at[ \t]+{_PIN_TAIL}|note[ \t]+\d+))?", re.IGNORECASE)
VERSUS_RE = re.compile(r"(?<![\w.])vs?\.[ \t]")
STARTER_RE = re.compile(
    r"(?<![A-Za-z])(?:See,?[ \t]+e\.g\.,?|See\b|Cf\.|E\.g\.,?|Accord\b|In[ \t]+re\b|Id\.)"
)


def reporter_patterns(table: ReporterTable) -> tuple[re.Pattern, re.Pattern]:
    """The case and at-page patterns of ``table``, volume behind a lookbehind."""
    alts = sorted(table.variants, key=len, reverse=True)
    alt = "|".join(r"[ \t]".join(re.escape(part) for part in v.split(" ")) for v in alts)
    case_re = re.compile(
        rf"(?<![\w.§])(?P<vol>[A-Za-z]?\d{{1,4}})[ \t]+(?P<rep>{alt})[ \t]+(?P<page>\d{{1,5}})(?!\d)"
        rf"(?P<pin>,[ \t]+{_PIN_TAIL}(?![ \t]+(?:{alt})[ \t]+(?:\d|at\b)))?"
        rf"(?P<paren>[ \t]*\([^()\n]*\d{{4}}\))?"
    )
    at_cite_re = re.compile(rf"(?<![\w.§])(?P<vol>\d{{1,4}})[ \t]+(?P<rep>{alt})[ \t]+at[ \t]+{_PIN_TAIL}")
    return case_re, at_cite_re


def find_case_citations(text: str, table: ReporterTable) -> list[CitationSpan]:
    case_re, _ = reporter_patterns(table)
    spans = []
    for m in case_re.finditer(text):
        vol_digits = re.sub(r"\D", "", m.group("vol"))
        reporter = table.canonical(m.group("rep"))
        if not vol_digits or reporter is None:
            raise CitationError(f"cannot normalize {m.group(0)!r}")
        key = CitationKey(int(vol_digits), reporter, int(m.group("page")))
        spans.append(CitationSpan(m.start(), m.end(), KIND_CASE, m.group(0), key))
    return spans


def find_citations(text: str, table: ReporterTable) -> list[CitationSpan]:
    """Every citation span, resolved, by the rules of ``citations.find_citations``."""
    _, at_cite_re = reporter_patterns(table)
    statutes = []
    for pattern in (USC_RE, FRCP_RE):
        for m in pattern.finditer(text):
            end = m.end()
            while end > m.start() and text[end - 1] in ".,;":
                end -= 1
            statutes.append(CitationSpan(m.start(), end, KIND_STATUTE, text[m.start() : end]))
    statutes.sort(key=lambda s: (s.start, -s.end))
    kept: list[CitationSpan] = []
    for s in statutes:
        if not (kept and s.start < kept[-1].end):
            kept.append(s)

    def overlaps(start, end, spans):
        return any(start < s.end and end > s.start for s in spans)

    cases = [s for s in find_case_citations(text, table) if not overlaps(s.start, s.end, kept)]
    blocked = kept + cases
    shorts = [
        m
        for pattern in (ID_RE, SUPRA_RE, at_cite_re)
        for m in pattern.finditer(text)
        if not overlaps(m.start(), m.end(), blocked)
    ]
    ordered = sorted([(s.start, s) for s in blocked] + [(m.start(), m) for m in shorts], key=lambda p: p[0])
    spans: list[CitationSpan] = []
    for _, item in ordered:
        if isinstance(item, CitationSpan):
            spans.append(item)
            continue
        key = None
        if item.re is ID_RE:
            before = [s for s in spans if s.kind != KIND_SHORT_FORM]
            if before and before[-1].kind == KIND_CASE and "\n" not in text[before[-1].end : item.start()]:
                key = before[-1].key
        elif item.re is at_cite_re:
            want = (int(item["vol"]), table.canonical(item["rep"]))
            for s in reversed(spans):
                if s.kind == KIND_CASE and (s.key.volume, s.key.reporter) == want:
                    key = s.key
                    break
        spans.append(CitationSpan(item.start(), item.end(), KIND_SHORT_FORM, item[0], key))
    return spans


def _token_before(text: str, i: int) -> str:
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "'’"):
        j -= 1
    return text[j:i]


def _is_abbreviation(token: str) -> bool:
    if not token:
        return False
    if len(token) == 1 and token.isalpha():
        return True
    return token.lower() in _ABBREVIATIONS


def walk_terminals(text, lo, hi, closing_paren_ends=False, skip_spans=()):
    """The sentence terminals of [lo, hi), found one character at a time."""
    depth = 0
    i = lo
    skips = iter(skip_spans)
    current_skip = next(skips, None)
    while i < hi:
        while current_skip is not None and current_skip[1] <= i:
            current_skip = next(skips, None)
        if current_skip is not None and current_skip[0] <= i < current_skip[1]:
            i = current_skip[1]
            continue
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if closing_paren_ends and depth <= 0:
                j = i + 1
                if j < hi and text[j] == ".":
                    j += 1
                yield j
        elif ch == ";" and depth <= 0:
            yield i + 1
        elif ch == "." and depth <= 0:
            nxt = text[i + 1] if i + 1 < len(text) else ""
            if nxt == "" or nxt.isspace() or nxt in _CLOSERS:
                if not _is_abbreviation(_token_before(text, i)):
                    j = i + 1
                    while j < hi and text[j] in _CLOSERS:
                        j += 1
                    yield j
        i += 1


def caption_start(text: str, lo: int, v_pos: int) -> int | None:
    """The caption walk over every ``\\S+`` token of the paragraph prefix."""
    words = [(m.start(), m.group(0)) for m in re.finditer(r"\S+", text[lo:v_pos])]
    start = None
    taken = 0
    for offset, token in reversed(words):
        stripped = token.rstrip(",")
        if not stripped:
            break
        if stripped.rstrip(".,").lower() in _CAPTION_STOPWORDS:
            break
        ok = stripped[0].isupper() or stripped[0].isdigit() or stripped.lower() in _CAPTION_CONNECTORS
        if stripped[0] in "()“”\"":
            ok = False
        if not ok or taken >= 12:
            break
        start = lo + offset
        taken += 1
    if start is None:
        return None
    while True:
        m = re.match(r"\S+", text[start:v_pos])
        if m and m.group(0).rstrip(",") in _CAPTION_CONNECTORS:
            nxt = re.search(r"\S", text[start + m.end() : v_pos])
            if nxt is None:
                break
            start = start + m.end() + nxt.start()
        else:
            break
    return start


def citation_sentence_bounds(text, citation, cases):
    """``citations.citation_sentence_bounds`` over the walks above."""
    para_lo = text.rfind("\n", 0, citation.start) + 1
    nl = text.find("\n", citation.end)
    para_hi = len(text) if nl == -1 else nl
    lo = bisect_left(cases, para_lo, key=lambda s: s.start)
    hi = bisect_left(cases, para_hi, key=lambda s: s.start)
    skip_spans = [(s.start, s.end) for s in cases[lo:hi]]
    end = next(walk_terminals(text, citation.end, para_hi, closing_paren_ends=True, skip_spans=skip_spans), None)
    if end is None:
        return None
    candidates = [para_lo]
    last_terminal = None
    for pos in walk_terminals(text, para_lo, citation.start, skip_spans=skip_spans):
        last_terminal = pos
    if last_terminal is not None:
        m = re.search(r"\S", text[last_terminal : citation.start])
        candidates.append(last_terminal + m.start() if m else citation.start)
    for m in STARTER_RE.finditer(text, para_lo, citation.start):
        candidates.append(m.start())
    for m in VERSUS_RE.finditer(text, para_lo, citation.start):
        cap = caption_start(text, para_lo, m.start())
        if cap is not None:
            candidates.append(cap)
    return max(c for c in candidates if c <= citation.start), end


def word_bounds(text: str) -> tuple[list[int], list[int]]:
    spans = tokenize_words(text)
    return [s.start for s in spans], [s.end for s in spans]
