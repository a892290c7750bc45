"""Document model: ingest raw case records, normalize text, chunk into passages.

It also defines the text primitives the other stages share: word bounds,
folded words and their n-gram shingles, and the curly quotation marks.

A raw record is one JSON object with fields ``{id, name, cite, opinions:
[{type, text}]}``.  Opinion texts may contain hard line breaks (single
newlines, collapsed to spaces) and paragraph breaks (blank lines, kept as
single newline separators).  Opinions are concatenated in record order,
each opinion starting a new paragraph.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import add, sub
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")

# The library's defaults for the settings the CLI takes, kept here because
# every command loads this module: passage chunking, query windows (see
# queries), BM25 and quote shingles (retrieval), gold paragraph sampling and
# salient references (genset), and the Recall cut-offs (metrics).
DEFAULT_WINDOW = 350
DEFAULT_STRIDE = 175
DEFAULT_QUERY_WINDOW = 300
BM25_K1 = 1.2
BM25_B = 0.75
DEFAULT_NGRAM_N = 5
DEFAULT_GENSET_SEED = 0
DEFAULT_PER_DOC = 1
DEFAULT_SALIENT_K = 2
DEFAULT_WORD_BUDGET = 6000
DEFAULT_RECALL_KS = (10, 100, 1000)

# The curly quotation marks that open and close a direct quote.
OPEN_QUOTE = "“"   # U+201C
CLOSE_QUOTE = "”"  # U+201D

_WORD_RE = re.compile(r"\S+")
# Every byte but an ASCII digit or lowercase letter becomes a space.
_FOLD_TABLE = bytes(c if c in b"0123456789abcdefghijklmnopqrstuvwxyz" else 32 for c in range(256))
_PARA_BREAK_RE = re.compile(r"\n[ \t\f\v]*\n+")
# json.dumps(row, ensure_ascii=False) without a new encoder per row.
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False)


class DataError(ValueError):
    """An input file is malformed; the message names the file and line."""


@dataclass(frozen=True)
class CaseDocument:
    """One case opinion text with identity; its paragraphs are its lines."""

    doc_id: str
    title: str
    reporter_cite: str
    text: str

    @cached_property
    def paragraphs(self) -> tuple[tuple[int, int], ...]:
        """The (start, end) character span of each line of ``text``."""
        spans, start = [], 0
        for line in self.text.split("\n"):
            spans.append((start, start + len(line)))
            start += len(line) + 1
        return tuple(spans)

    def paragraph_text(self, index: int) -> str:
        start, end = self.paragraphs[index]
        return self.text[start:end]

    def word_count(self) -> int:
        return len(self.text.split())


@dataclass(frozen=True)
class Passage:
    """A sliding-window chunk of a document; text is the words joined by spaces."""

    passage_id: str
    doc_id: str
    word_start: int
    word_end: int
    text: str


def word_bounds(text: str) -> tuple[list[int], list[int]]:
    """The start offsets and the end offsets of the words of ``text``, its
    maximal runs of non-whitespace characters, as two lists.

    These are exactly the words of ``text.split()``: ``\\s`` matches a code
    point just when ``str.isspace`` holds for it.  Code that only counts or
    rejoins words calls ``text.split()`` instead.

    Word k ends at the sum of the lengths of words 0..k and of the
    whitespace runs before each of them.  Normalized text has one
    whitespace character between words and none around them, which its
    length shows; only other text is scanned for its whitespace runs.
    """
    lengths = list(map(len, text.split()))
    if sum(lengths) + len(lengths) - 1 == len(text):
        gaps = chain((0,), repeat(1))
    else:
        gaps = map(len, _WORD_RE.split(text))
    ends = list(accumulate(map(add, gaps, lengths)))
    return list(map(sub, ends, lengths)), ends


def fold_words(text: str) -> list[str]:
    """Case-folded, punctuation-stripped word tokens.

    Shared normalization for the n-gram quote scorer and text-overlap
    metrics: the runs of ASCII digits and lowercase letters of
    ``text.lower()``, everything else discarded.  Lowercasing comes first,
    so a code point that lowercases to ASCII (the Kelvin sign) folds to
    its ASCII letter; every other non-ASCII code point separates words.
    """
    return text.lower().encode("ascii", "replace").translate(_FOLD_TABLE).decode("ascii").split()


def shingles(words: Sequence[str], n: int) -> Iterable[tuple[str, ...]]:
    """Every run of n consecutive words, as a tuple, in text order: the
    word n-grams that ROUGE-N counts and the quote index looks up."""
    return zip(*(words[i:] for i in range(n)))


def _normalize_opinion(text: str) -> list[str]:
    """One opinion text -> its paragraphs, split at lines holding only
    spaces, tabs, form feeds and vertical tabs (or nothing), each run of
    those and of line breaks flattened to one space.  Each ``str.replace``
    pass halves every run of spaces, so a run of L takes about log2(L) passes."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    paragraphs = []
    for block in _PARA_BREAK_RE.split(text):
        flat = block.replace("\n", " ").replace("\t", " ").replace("\f", " ").replace("\v", " ")
        while "  " in flat:
            flat = flat.replace("  ", " ")
        flat = flat.strip()
        if flat:
            paragraphs.append(flat)
    return paragraphs


def load_corpus(records: Iterable[dict]) -> tuple[list[CaseDocument], list[str]]:
    """Normalize raw case records into documents.

    Returns (documents, diagnostics).  A record whose id is no id
    (``_checked_id``) or repeats, or that carries no opinion text, is
    rejected with a diagnostic; the stream continues.
    """
    docs: list[CaseDocument] = []
    diagnostics: list[str] = []
    seen: set[str] = set()
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            diagnostics.append(f"record {i}: not an object")
            continue
        try:
            doc_id = _checked_id(rec.get("id"), "id")
        except ValueError as exc:
            diagnostics.append(f"record {i}: {exc}")
            continue
        if doc_id in seen:
            diagnostics.append(f"record {i}: duplicate doc_id {doc_id!r}")
            continue
        paragraphs: list[str] = []
        for opinion in rec.get("opinions") or []:
            if isinstance(opinion, dict) and isinstance(opinion.get("text"), str):
                paragraphs.extend(_normalize_opinion(opinion["text"]))
        if not paragraphs:
            diagnostics.append(f"record {i} ({doc_id}): no opinion text")
            continue
        docs.append(
            CaseDocument(
                doc_id=doc_id,
                title=str(rec.get("name") or ""),
                reporter_cite=str(rec.get("cite") or ""),
                text="\n".join(paragraphs),
            )
        )
        seen.add(doc_id)
    return docs, diagnostics


def _checked_id(value, field: str) -> str:
    """``value`` as an id: a non-empty string or an integer, with no
    whitespace, which splits ids in index and run files."""
    if value is None or value == "":
        raise ValueError(f"missing {field}")
    if type(value) not in (str, int):
        raise ValueError(f"{field} must be a string or an integer, not {type(value).__name__}")
    value = str(value)
    if any(map(str.isspace, value)):
        raise ValueError(f"{field} {value!r} contains whitespace")
    return value


def passage_windows(
    doc_id: str,
    total: int,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
) -> list[tuple[str, int, int]]:
    """The ``(passage_id, word_start, word_end)`` of each passage of the
    ``total``-word document ``doc_id``, the chunks of ``chunk_document``.

    Chunk i covers words [i*stride, min(i*stride + window, total)); chunks
    are emitted while i*stride < total, except that a final chunk adding no
    new words (fully contained in its predecessor) is dropped.
    """
    if stride < 1 or window < stride:
        raise ValueError(f"require window >= stride >= 1, got {window}/{stride}")
    windows: list[tuple[str, int, int]] = []
    for i, word_start in enumerate(range(0, total, stride)):
        word_end = min(word_start + window, total)
        if windows and word_end <= windows[-1][2]:
            break  # adds no new words
        windows.append((f"{doc_id}#{i}", word_start, word_end))
    return windows


def chunk_document(
    doc: CaseDocument,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
) -> list[Passage]:
    """Chunk a document into overlapping word windows (``passage_windows``)."""
    words = doc.text.split()
    return [
        Passage(passage_id, doc.doc_id, word_start, word_end, " ".join(words[word_start:word_end]))
        for passage_id, word_start, word_end in passage_windows(doc.doc_id, len(words), window, stride)
    ]


# ---------------------------------------------------------------------------
# JSONL serialization
# ---------------------------------------------------------------------------

def iter_lines(path) -> Iterator[tuple[int, str]]:
    """Yield (line_number, stripped line) for each non-blank line of the
    UTF-8 text file at ``path``; bytes that are not UTF-8 raise DataError."""
    with open(path, "r", encoding="utf-8") as f:
        lineno = 0
        try:
            for lineno, line in enumerate(f, 1):
                if line := line.strip():
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 after line {lineno} ({exc.reason})") from exc


def iter_jsonl(path, make: Callable[[dict], T], id_field: str | None = None) -> Iterator[T]:
    """Yield ``make(row)`` for each JSON object row of the file at ``path``,
    reading it once.  A row whose ``id_field`` is no id (``_checked_id``) or
    repeats, or that ``make`` rejects with KeyError, TypeError or
    ValueError, is a DataError at path:line."""
    seen: set[str] = set()
    for lineno, line in iter_lines(path):
        try:
            row = json.loads(line)
            if not isinstance(row, dict):
                raise TypeError(f"expected a JSON object, got {type(row).__name__}")
            if id_field is not None:
                row[id_field] = ident = _checked_id(row.get(id_field), id_field)
                if ident in seen:
                    raise ValueError(f"duplicate {id_field} {ident!r}")
                seen.add(ident)
            item = make(row)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: malformed JSON ({exc})") from exc
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
            raise DataError(f"{path}:{lineno}: {reason}") from exc
        yield item


def read_jsonl(path, make: Callable[[dict], T], id_field: str | None = None) -> list[T]:
    """Every row of ``iter_jsonl``, as a list."""
    return list(iter_jsonl(path, make, id_field))


def write_jsonl(rows: Iterable[dict], path) -> int:
    """Write one JSON object per line, non-ASCII kept; returns the row count."""
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(_JSONL_ENCODER.encode(row) + "\n")
            n += 1
    return n


def str_field(row: dict, field: str, default: str | None = None) -> str:
    """``row[field]`` (``default`` when absent, if given), which must be a string."""
    value = row[field] if default is None else row.get(field, default)
    if not isinstance(value, str):
        raise TypeError(f"{field} must be a string, not {type(value).__name__}")
    return value


def load_corpus_jsonl(path) -> tuple[list[CaseDocument], list[str]]:
    """Load raw records from a JSONL file; bad lines become diagnostics."""
    records: list[dict] = []
    diagnostics: list[str] = []
    for lineno, line in iter_lines(path):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            diagnostics.append(f"line {lineno}: malformed JSON, skipped")
    docs, more = load_corpus(records)
    return docs, diagnostics + more


def write_corpus_jsonl(docs: Iterable[CaseDocument], path) -> int:
    """Write normalized documents, each with its paragraph spans, which the
    reader checks; this representation round-trips losslessly."""
    rows = ({"doc_id": d.doc_id, "title": d.title, "reporter_cite": d.reporter_cite, "text": d.text,
             "paragraphs": d.paragraphs} for d in docs)
    return write_jsonl(rows, path)


def iter_corpus_jsonl(path) -> Iterator[CaseDocument]:
    return iter_jsonl(path, _document_from_row, "doc_id")


def read_corpus_jsonl(path) -> list[CaseDocument]:
    return list(iter_corpus_jsonl(path))


def _document_from_row(row: dict) -> CaseDocument:
    """The row's document; its ``paragraphs`` must be its text's line spans."""
    doc = CaseDocument(
        doc_id=row["doc_id"],
        title=str_field(row, "title", ""),
        reporter_cite=str_field(row, "reporter_cite", ""),
        text=str_field(row, "text"),
    )
    given, lines = row["paragraphs"], [list(span) for span in doc.paragraphs]
    if given != lines:
        if not isinstance(given, list):
            raise TypeError(f"paragraphs must be a list, not {type(given).__name__}")
        i = next((i for i, (a, b) in enumerate(zip(given, lines)) if a != b), min(len(given), len(lines)))
        if i == len(given):
            raise ValueError(f"paragraph {i} is missing: the text has {len(lines)} lines")
        where = f"past the text's {len(lines)} lines" if i == len(lines) else f"not {lines[i]}, the span of line {i}"
        raise ValueError(f"paragraph {i} is {json.dumps(given[i])}, {where}")
    return doc


def write_passages_jsonl(passages: Iterable[Passage], path) -> int:
    return write_jsonl(map(vars, passages), path)


def iter_passages_jsonl(path) -> Iterator[Passage]:
    return iter_jsonl(path, _passage_from_row, "passage_id")


def _passage_from_row(row: dict) -> Passage:
    return Passage(
        passage_id=row["passage_id"],
        doc_id=row["doc_id"],
        word_start=int(row["word_start"]),
        word_end=int(row["word_end"]),
        text=str_field(row, "text"),
    )


def iter_queries_jsonl(path, text_field: str = "masked_text") -> Iterator[dict]:
    """Query rows, each with a string ``text_field`` (``quote`` in a ``--quotes-out`` file)."""
    return iter_jsonl(path, lambda row: {**row, text_field: str_field(row, text_field)}, "query_id")


def read_queries_jsonl(path, text_field: str = "masked_text") -> list[dict]:
    return list(iter_queries_jsonl(path, text_field))


def read_qrels(path) -> dict[str, set[str]]:
    """query_id -> its relevant units.  A unit judged twice for one query
    is a DataError, even when both judgments agree."""
    qrels: dict[str, set[str]] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, line in iter_lines(path):
        try:
            qid, _, unit_id, rel = line.split()
            relevant = int(rel) > 0
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed qrels line (query 0 unit relevance)") from None
        if (qid, unit_id) in seen:
            raise DataError(f"{path}:{lineno}: unit {unit_id!r} judged again for query {qid!r}")
        seen.add((qid, unit_id))
        if relevant:
            qrels.setdefault(qid, set()).add(unit_id)
    return qrels
