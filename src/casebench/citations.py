"""Recognize case and statute citations, locate citation sentences, extract
direct quotes, and normalize citations into comparable keys.

The recognizer targets Bluebook-style federal citations: ``<volume>
<reporter> <page>`` with optional pincite and court-year parenthetical,
parallel citation runs, ``Id.``/``supra``/at-page short forms, and the two
statute families ``<title> U.S.C. § <section>`` and ``Fed.R.Civ.P. <rule>``.
Reporter surface variants ("U. S.", "F. 3d") come from a JSON table and are
canonicalized before keys are compared.

Every scanner is one compiled regex that opens with the character its match
consumes first: a digit for case, at-page and U.S.C. citations, ``I``/``i``
for ``Id.``, an ``s`` for supra, ``F`` for Fed.R.Civ.P.  The word-boundary
lookbehind sits after that character, so ``re`` tries a full match only at
the positions where the match could begin.  The one case the opening
character cannot cover, a case volume's stray OCR letter ("P51"), is
re-attached after the match.  Sentence bounds likewise visit only the
parentheses, periods and semicolons a regex finds.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

from .corpus import DataError, read_jsonl, str_field, write_jsonl

KIND_CASE = "case"
KIND_STATUTE = "statute"
KIND_SHORT_FORM = "short-form"

# How far (in characters) a quote may sit from a citation and still pair
# with it.  Bluebook puts the citation right after the quoted sentence;
# the cap stops pairings across unrelated sections.
QUOTE_PAIR_WINDOW = 300

OPEN_QUOTE = "“"   # U+201C
CLOSE_QUOTE = "”"  # U+201D
_QUOTE_MARK_RE = re.compile(f"[{OPEN_QUOTE}{CLOSE_QUOTE}]")


class CitationError(ValueError):
    """A span could not be normalized into a volume/reporter/page key."""


_KEY_STR_RE = re.compile(r"(\d+) (\S.*?) (\d+)")


@dataclass(frozen=True, order=True)
class CitationKey:
    """Canonical citation identity: two keys are equal iff all fields are."""

    volume: int
    reporter: str
    page: int

    def __str__(self) -> str:
        return f"{self.volume} {self.reporter} {self.page}"

    @classmethod
    def from_str(cls, s: str) -> CitationKey:
        """The key whose ``str()`` is ``s``; no reporter table is consulted,
        so a key reads back under any table it was written with."""
        m = _KEY_STR_RE.fullmatch(s)
        if m is None:
            raise CitationError(f"unparseable citation key {s!r}")
        return cls(int(m.group(1)), m.group(2), int(m.group(3)))


@dataclass(frozen=True)
class CitationSpan:
    start: int
    end: int
    kind: str
    raw: str
    key: CitationKey | None = None


@dataclass(frozen=True)
class QuoteSpan:
    """A curly-quoted extract, offsets exclusive of the quotation marks."""

    start: int
    end: int
    text: str
    paired_citation: CitationSpan | None = None


_WS_RUN_RE = re.compile(r"\s+")
# (?!\d) forbids backtracking into a partial page number, which would
# otherwise split "218" into pincite "21" plus an orphaned "8".
_PIN_TAIL = r"\d{1,5}(?!\d)(?:[ \t]*[-–][ \t]*\d{1,5}(?!\d))?"


class ReporterTable:
    """Maps reporter surface variants to canonical abbreviations.

    Also owns the compiled citation regexes, which depend on the variant
    list.  The table is immutable after construction and safe to share.
    """

    def __init__(self, variants: dict[str, str]):
        if not variants:
            raise ValueError("reporter table must not be empty")
        self.variants = {_WS_RUN_RE.sub(" ", k.strip()): v for k, v in variants.items()}
        alts = sorted(self.variants, key=len, reverse=True)
        alt = "|".join(
            r"[ \t]".join(re.escape(part) for part in v.split(" ")) for v in alts
        )
        # A volume follows no word character, period or section sign; the
        # lookbehind sits after its first digit, so the scan skips straight
        # to digits.  Volume may carry one stray leading letter (OCR noise
        # like "P51"), itself after none of those: the match starts at the
        # first digit and find_case_citations re-attaches the letter.  The
        # pincite lookahead keeps ", 106" out of the pincite slot when "106"
        # is really the volume of the next parallel citation.
        self.case_re = re.compile(
            rf"(?P<vol>\d(?:(?<![\w.§]\d)|(?<=[A-Za-z]\d)(?<![\w.§].\d))\d{{0,3}})"
            rf"[ \t]+(?P<rep>{alt})[ \t]+(?P<page>\d{{1,5}})(?!\d)"
            rf"(?P<pin>,[ \t]+{_PIN_TAIL}(?![ \t]+(?:{alt})[ \t]+(?:\d|at\b)))?"
            rf"(?P<paren>[ \t]*\([^()\n]*\d{{4}}\))?"
        )
        self.at_cite_re = re.compile(
            rf"(?P<vol>\d(?<![\w.§]\d)\d{{0,3}})[ \t]+(?P<rep>{alt})[ \t]+at[ \t]+{_PIN_TAIL}"
        )

    def canonical(self, surface: str) -> str | None:
        return self.variants.get(_WS_RUN_RE.sub(" ", surface.strip()))


@lru_cache(maxsize=1)
def default_reporter_table() -> ReporterTable:
    data = resources.files("casebench.data").joinpath("reporters.json").read_text("utf-8")
    return ReporterTable(json.loads(data))


def load_reporter_table(path=None) -> ReporterTable:
    """The table in the JSON file at ``path``; the default table when None.
    Below the entry points every function takes its table as an argument."""
    if path is None:
        return default_reporter_table()
    with open(path, "r", encoding="utf-8") as f:
        try:
            variants = json.load(f)
            if not isinstance(variants, dict) or not all(isinstance(v, str) for v in variants.values()):
                raise ValueError("expected an object mapping reporter variants to canonical names")
            return ReporterTable(variants)
        except ValueError as exc:  # malformed JSON and bytes that are not UTF-8 included
            raise DataError(f"{path}: {exc}") from exc


def _key_from_match(m: re.Match, table: ReporterTable) -> CitationKey:
    """The key of a ``case_re`` match; its volume group holds digits only."""
    reporter = table.canonical(m.group("rep"))
    if reporter is None:
        raise CitationError(f"cannot normalize {m.group(0)!r}")
    return CitationKey(volume=int(m.group("vol")), reporter=reporter, page=int(m.group("page")))


def find_case_citations(text: str, reporters: ReporterTable) -> list[CitationSpan]:
    """Full case citations, non-overlapping, ordered by start offset."""
    spans = []
    for m in reporters.case_re.finditer(text):
        start = m.start()
        # Only case_re's letter branch lets a letter precede the volume: the
        # other branch wants no word character there.
        if start and text[start - 1].isalpha():
            start -= 1
        spans.append(
            CitationSpan(
                start=start,
                end=m.end(),
                kind=KIND_CASE,
                raw=text[start : m.end()],
                key=_key_from_match(m, reporters),
            )
        )
    return spans


_USC_RE = re.compile(
    r"\d(?<![\w.]\d)\d{0,2}[ \t]+U\.[ \t]?S\.[ \t]?C\.(?:A\.)?[ \t]*§{1,2}[ \t]*\d+[A-Za-z0-9().–-]*"
)
_FRCP_RE = re.compile(r"Fed\.[ \t]?R\.[ \t]?Civ\.[ \t]?P\.[ \t]*\d+[A-Za-z0-9().]*")


def find_statute_citations(text: str) -> list[CitationSpan]:
    """Statute citations of the U.S.C. and Fed.R.Civ.P. pattern families."""
    spans = []
    for pattern in (_USC_RE, _FRCP_RE):
        for m in pattern.finditer(text):
            end = m.end()
            while end > m.start() and text[end - 1] in ".,;":
                end -= 1  # sentence punctuation is not part of the section
            spans.append(CitationSpan(m.start(), end, KIND_STATUTE, text[m.start() : end]))
    spans.sort(key=lambda s: (s.start, -s.end))
    out: list[CitationSpan] = []
    for s in spans:
        if out and s.start < out[-1].end:
            continue
        out.append(s)
    return out


# Opens on its literal "d." with the "I" behind it, so ``re`` skips from
# one "d." to the next; a match starts one character after its span.
_ID_RE = re.compile(rf"d\.(?<=(?<![A-Za-z])[Ii]d\.)(?:[ \t]+at[ \t]+{_PIN_TAIL})?")
# Case-insensitive after its first character, which is spelled out: "s"
# under IGNORECASE also matches "S" and "ſ" (U+017F), but a cased first
# character gives ``re`` no set of characters to skip to.  The lookbehind's
# letters stay case-insensitive, so "ſ", "ı", "İ" and the Kelvin sign count.
_SUPRA_RE = re.compile(
    rf"[sSſ](?<!(?i:[A-Za-z])[sSſ])(?i:upra(?:,?[ \t]+(?:at[ \t]+{_PIN_TAIL}|note[ \t]+\d+))?)"
)


def _overlaps(start: int, end: int, spans: Sequence[CitationSpan]) -> bool:
    """Whether [start, end) meets one of the disjoint ``spans``, sorted by
    start: only the last to start before ``end`` can reach past ``start``."""
    i = bisect_left(spans, end, key=lambda s: s.start)
    return i > 0 and spans[i - 1].end > start


def find_citations(text: str, reporters: ReporterTable) -> list[CitationSpan]:
    """All citation spans (case, statute, short-form), ordered by start.

    Short forms are resolved where possible: ``Id.`` takes the key of the
    immediately preceding case citation in the same paragraph (unless a
    statute intervenes); an at-page cite ("449 U.S. at 10") takes the key
    of the nearest preceding full citation with the same volume and
    reporter.  Unresolvable short forms keep ``key=None``.
    """
    statutes = find_statute_citations(text)
    cases = [s for s in find_case_citations(text, reporters) if not _overlaps(s.start, s.end, statutes)]
    blocked = sorted(statutes + cases, key=lambda s: s.start)
    shorts = [
        (m.start() - (pattern is _ID_RE), m)
        for pattern in (_ID_RE, _SUPRA_RE, reporters.at_cite_re)
        for m in pattern.finditer(text)
    ]
    shorts = [(start, m) for start, m in shorts if not _overlaps(start, m.end(), blocked)]
    # No two spans share a start, so one sort orders full and short forms.
    ordered = sorted([(s.start, s) for s in blocked] + shorts, key=lambda pair: pair[0])

    spans: list[CitationSpan] = []
    last_case: CitationSpan | None = None
    after_statute = False
    latest: dict[tuple[int, str], CitationKey] = {}  # (volume, reporter) -> key
    for start, item in ordered:
        if isinstance(item, CitationSpan):
            if item.kind == KIND_CASE:
                last_case, after_statute = item, False
                latest[item.key.volume, item.key.reporter] = item.key
            else:
                after_statute = True
            spans.append(item)
            continue
        key = None
        if item.re is _ID_RE:
            if last_case is not None and not after_statute and "\n" not in text[last_case.end : start]:
                key = last_case.key
        elif item.re is reporters.at_cite_re:
            key = latest.get((int(item["vol"]), reporters.canonical(item["rep"])))
        spans.append(CitationSpan(start, item.end(), KIND_SHORT_FORM, text[start : item.end()], key))
    return spans


def parse_citation_key(s: str, reporters: ReporterTable) -> CitationKey:
    """Parse a citation string like ``"477 U.S. 317"`` into a key."""
    m = reporters.case_re.search(s)
    if m is None:
        raise CitationError(f"unparseable citation key {s!r}")
    return _key_from_match(m, reporters)


# ---------------------------------------------------------------------------
# Citation sentence boundaries
# ---------------------------------------------------------------------------

# Tokens whose trailing period never ends a sentence.  Bluebook citations
# are dense with abbreviation periods; single letters (initials, reporter
# fragments) are always treated as abbreviations.
_ABBREVIATIONS = frozenset(
    """
    v vs corp inc co ltd llc bros cir supp no nos st mr mrs ms dr jr sr
    jan feb mar apr jun jul aug sep sept oct nov dec id al seq cert stat
    ct cl fed civ crim proc app rev reins fin ins com nat order dept
    dep't nat'l int'l ass'n mech indus am gen distrib mfg
    """.split()
)


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


_CLOSERS = "”’\"'"
_TERMINAL_MARK_RE = re.compile(r"[().;]")


def _iter_terminals(
    text: str,
    lo: int,
    hi: int,
    closing_paren_ends: bool = False,
    skip_spans: Sequence[tuple[int, int]] = (),
):
    """Yield positions just past each sentence terminal in [lo, hi).

    Terminals: a period at parenthesis depth <= 0 whose preceding token is
    not an abbreviation (trailing close-quotes absorbed); a semicolon at
    depth <= 0; and, when ``closing_paren_ends``, a closing parenthesis
    returning to depth <= 0 (the end of a parenthetical explanation).
    ``skip_spans`` (sorted, disjoint) are jumped over: punctuation inside a
    recognized citation never ends a sentence.
    """
    depth = 0
    for a, b in _gaps(lo, hi, skip_spans):
        for m in _TERMINAL_MARK_RE.finditer(text, a, b):
            ch, i = m.group(), m.start()
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


def _gaps(lo: int, hi: int, skip_spans: Sequence[tuple[int, int]]):
    """The maximal runs of [lo, hi) outside the sorted, disjoint ``skip_spans``."""
    pos = lo
    for a, b in skip_spans:
        if a >= hi:
            break
        if a > pos:
            yield pos, a
        pos = max(pos, b)
    if pos < hi:
        yield pos, hi


# Sentence-starter forms that may open a citation sentence.  Each opens with
# its capital, the word boundary behind it, so ``re`` skips to the next A,
# C, E, I or S.
_STARTER_RE = re.compile(
    r"S(?<![A-Za-z]S)ee(?:,?[ \t]+e\.g\.,?|\b)|C(?<![A-Za-z]C)f\.|E(?<![A-Za-z]E)\.g\.,?"
    r"|A(?<![A-Za-z]A)ccord\b|I(?<![A-Za-z]I)(?:n[ \t]+re\b|d\.)"
)
_VERSUS_RE = re.compile(r"v(?<![\w.]v)s?\.[ \t]")
_CAPTION_CONNECTORS = frozenset(
    {"of", "the", "and", "in", "for", "ex", "rel.", "de", "la", "van", "von", "d'", "&", "et"}
)
# Citation signal words preceding a caption are their own starters, never
# part of the party name.
_CAPTION_STOPWORDS = frozenset({"see", "cf", "e.g", "accord", "compare", "contra", "but", "id"})


# A caption takes at most this many words before its " v. ".
_CAPTION_MAX_WORDS = 12


def _caption_start(text: str, lo: int, v_pos: int) -> int | None:
    """Walk left from an " v. " to the start of the party caption, which
    begins at or after ``lo``."""
    head = text[lo:v_pos]
    # The last words of head, the only ones the caption can take.
    words = head.rsplit(None, _CAPTION_MAX_WORDS)[-_CAPTION_MAX_WORDS:]
    taken: list[tuple[int, str]] = []  # (offset in head, word), right to left
    pos = len(head)
    for token in reversed(words):
        stripped = token.rstrip(",")
        if not stripped:
            break
        if stripped.rstrip(".,").lower() in _CAPTION_STOPWORDS:
            break
        ok = stripped[0].isupper() or stripped[0].isdigit() or stripped.lower() in _CAPTION_CONNECTORS
        if stripped[0] in "()“”\"":
            ok = False
        if not ok:
            break
        # Only whitespace follows the word up to pos, so its last occurrence is it.
        pos = head.rindex(token, 0, pos)
        taken.append((pos, token))
    if not taken:
        return None
    # Trim leading lowercase connectors: sentences do not start with "of".
    while len(taken) > 1 and taken[-1][1].rstrip(",") in _CAPTION_CONNECTORS:
        taken.pop()
    return lo + taken[-1][0]


_NON_SPACE_RE = re.compile(r"\S")


def citation_sentence_bounds(
    text: str, citation: CitationSpan, cases: Sequence[CitationSpan]
) -> tuple[int, int] | None:
    """Character span of the sentence containing ``citation``.

    ``cases`` are the case citations of ``text`` ordered by start (at least
    those of the citation's paragraph); their periods and year parentheticals
    never terminate the sentence.  The start is the nearest preceding
    sentence starter (party caption, Id., See, In re, ...) or
    sentence-terminal boundary, falling back to the start of the enclosing
    paragraph.  The end is the first terminal at or after the citation.
    Returns None (failure) when no terminal exists within the enclosing
    paragraph.
    """
    if not (0 <= citation.start < citation.end <= len(text)):
        raise ValueError("citation span outside text")
    para_lo = text.rfind("\n", 0, citation.start) + 1
    nl = text.find("\n", citation.end)
    para_hi = len(text) if nl == -1 else nl
    # Case citations never cross a line break, so the paragraph's are
    # exactly those starting inside it.
    lo = bisect_left(cases, para_lo, key=lambda s: s.start)
    hi = bisect_left(cases, para_hi, key=lambda s: s.start)
    skip_spans = [(s.start, s.end) for s in cases[lo:hi]]

    end = next(
        _iter_terminals(
            text, citation.end, para_hi, closing_paren_ends=True, skip_spans=skip_spans
        ),
        None,
    )
    if end is None:
        return None

    candidates = [para_lo]
    last_terminal = None
    for pos in _iter_terminals(text, para_lo, citation.start, skip_spans=skip_spans):
        last_terminal = pos
    if last_terminal is not None:
        m = _NON_SPACE_RE.search(text, last_terminal, citation.start)
        # Whitespace only up to the citation: the sentence starts at it.
        candidates.append(m.start() if m else citation.start)
    for m in _STARTER_RE.finditer(text, para_lo, citation.start):
        candidates.append(m.start())
    for m in _VERSUS_RE.finditer(text, para_lo, citation.start):
        cap = _caption_start(text, para_lo, m.start())
        if cap is not None:
            candidates.append(cap)
    start = max(c for c in candidates if c <= citation.start)
    return start, end


def read_labeled_samples(path) -> list[dict]:
    """Rows for ``sentence_extraction_accuracy``; a citation span must lie inside its text."""
    return read_jsonl(path, _labeled_sample)


def _labeled_sample(row: dict) -> dict:
    sample = {k: int(row[k]) for k in ("citation_start", "citation_end", "sentence_start", "sentence_end")}
    if not 0 <= sample["citation_start"] < sample["citation_end"] <= len(str_field(row, "text")):
        raise ValueError("citation span outside text")
    return {**sample, "text": row["text"]}


def sentence_extraction_accuracy(samples: Iterable[dict], reporters: ReporterTable) -> tuple[float, int]:
    """Exact-match accuracy of sentence-bound extraction on labeled samples.

    Each sample carries ``text``, ``citation_start``, ``citation_end`` and the
    gold ``sentence_start``/``sentence_end``.  Returns (accuracy, n).
    """
    correct = 0
    n = 0
    for sample in samples:
        n += 1
        span = CitationSpan(
            int(sample["citation_start"]), int(sample["citation_end"]), KIND_CASE, ""
        )
        text = sample["text"]
        got = citation_sentence_bounds(text, span, find_case_citations(text, reporters))
        want = (int(sample["sentence_start"]), int(sample["sentence_end"]))
        if got == want:
            correct += 1
    return (correct / n if n else 0.0), n


# ---------------------------------------------------------------------------
# Direct quotes
# ---------------------------------------------------------------------------

def _balanced_quote_spans(text: str) -> list[tuple[int, int]]:
    """Innermost balanced U+201C...U+201D pairs; unmatched marks are skipped."""
    stack: list[int] = []
    spans: list[tuple[int, int]] = []
    for m in _QUOTE_MARK_RE.finditer(text):
        i = m.start()
        if m.group() == OPEN_QUOTE:
            stack.append(i)
        elif stack:
            spans.append((stack.pop() + 1, i))
    spans.sort()
    return spans


def _same_sentence(text: str, a: int, b: int) -> bool:
    if "\n" in text[a:b]:
        return False
    return next(_iter_terminals(text, a, b), None) is None


def extract_direct_quotes(text: str, citations: Sequence[CitationSpan]) -> list[QuoteSpan]:
    """Curly-quoted extracts of ``text`` paired with their nearest case
    citation among ``citations`` (the spans of ``text``, ordered by start).

    A following citation in the same sentence wins; otherwise the nearest
    citation by distance between quote end and citation start, ties toward
    the following one.  No citation within ``QUOTE_PAIR_WINDOW`` characters
    leaves the quote unpaired.
    """
    candidates = [c for c in citations if c.kind in (KIND_CASE, KIND_SHORT_FORM)]

    quotes: list[QuoteSpan] = []
    for start, end in _balanced_quote_spans(text):
        # Only citations starting within the pairing window can pair.
        near = candidates[
            bisect_left(candidates, end - QUOTE_PAIR_WINDOW, key=lambda c: c.start) :
            bisect_right(candidates, end + QUOTE_PAIR_WINDOW, key=lambda c: c.start)
        ]
        # A later citation is in the quote's sentence only if the nearest
        # following one is.
        following = next((c for c in near if c.start >= end), None)
        paired: CitationSpan | None = None
        if following is not None and _same_sentence(text, end, following.start):
            paired = following
        elif near:
            paired = min(near, key=lambda c: (abs(c.start - end), 0 if c.start >= end else 1, c.start))
        quotes.append(QuoteSpan(start=start, end=end, text=text[start:end], paired_citation=paired))
    return quotes


# ---------------------------------------------------------------------------
# Citation dump serialization
# ---------------------------------------------------------------------------

def write_citations_jsonl(rows: Iterable[tuple[str, CitationSpan]], path) -> int:
    """Write (doc_id, span) rows as {doc_id, start, end, kind, key} JSONL."""
    return write_jsonl(
        (
            {
                "doc_id": doc_id,
                "start": span.start,
                "end": span.end,
                "kind": span.kind,
                "key": str(span.key) if span.key else None,
            }
            for doc_id, span in rows
        ),
        path,
    )
