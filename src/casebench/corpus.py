"""Document model: ingest raw case records, normalize text, chunk into passages.

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
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

T = TypeVar("T")

DEFAULT_WINDOW = 350
DEFAULT_STRIDE = 175

_WORD_RE = re.compile(r"\S+")
# Every byte but an ASCII digit or lowercase letter becomes a space.
_FOLD_TABLE = bytes(c if c in b"0123456789abcdefghijklmnopqrstuvwxyz" else 32 for c in range(256))
_PARA_BREAK_RE = re.compile(r"\n[ \t]*\n+")
_HSPACE_RE = re.compile(r"[ \t\f\v]+")


class DataError(ValueError):
    """An input file is malformed; the message names the file and line."""


class WordSpan(NamedTuple):
    """Character span of one word (maximal non-whitespace run)."""

    start: int
    end: int


# Builds a WordSpan from a (start, end) tuple without a Python-level call.
_word_span = partial(tuple.__new__, WordSpan)


@dataclass(frozen=True)
class CaseDocument:
    """One case opinion text with identity and paragraph structure.

    ``paragraphs`` are (start, end) character spans into ``text``;
    paragraphs are separated by single newline characters and partition
    the non-separator text.
    """

    doc_id: str
    title: str
    reporter_cite: str
    text: str
    paragraphs: tuple[tuple[int, int], ...]

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


def tokenize_words(text: str) -> list[WordSpan]:
    """The character spans of the words of ``text``, i.e. of its maximal
    runs of non-whitespace characters.

    These are exactly the words of ``text.split()``: ``\\s`` matches a code
    point just when ``str.isspace`` holds for it.  Code that only counts or
    rejoins words calls ``text.split()`` instead.
    """
    return list(map(_word_span, map(re.Match.span, _WORD_RE.finditer(text))))


def fold_words(text: str) -> list[str]:
    """Case-folded, punctuation-stripped word tokens.

    Shared normalization for the n-gram quote scorer and text-overlap
    metrics: the runs of ASCII digits and lowercase letters of
    ``text.lower()``, everything else discarded.  Lowercasing comes first,
    so a code point that lowercases to ASCII (the Kelvin sign) folds to
    its ASCII letter; every other non-ASCII code point separates words.
    """
    return text.lower().encode("ascii", "replace").translate(_FOLD_TABLE).decode("ascii").split()


def _normalize_opinion(text: str) -> list[str]:
    """One opinion text -> list of flattened paragraph strings."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    paragraphs = []
    for block in _PARA_BREAK_RE.split(text):
        flat = _HSPACE_RE.sub(" ", block.replace("\n", " ")).strip()
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
        text = "\n".join(paragraphs)
        spans: list[tuple[int, int]] = []
        pos = 0
        for p in paragraphs:
            spans.append((pos, pos + len(p)))
            pos += len(p) + 1
        docs.append(
            CaseDocument(
                doc_id=doc_id,
                title=str(rec.get("name") or ""),
                reporter_cite=str(rec.get("cite") or ""),
                text=text,
                paragraphs=tuple(spans),
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


def chunk_document(
    doc: CaseDocument,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
) -> list[Passage]:
    """Chunk a document into overlapping word windows.

    Chunk i covers words [i*stride, min(i*stride + window, total)); chunks
    are emitted while i*stride < total, except that a final chunk adding no
    new words (fully contained in its predecessor) is dropped.
    """
    if stride < 1 or window < stride:
        raise ValueError(f"require window >= stride >= 1, got {window}/{stride}")
    words = doc.text.split()
    total = len(words)
    passages: list[Passage] = []
    prev_end = -1
    i = 0
    while i * stride < total:
        word_start = i * stride
        word_end = min(word_start + window, total)
        if word_end <= prev_end:
            break  # adds no new words
        passages.append(
            Passage(
                passage_id=f"{doc.doc_id}#{i}",
                doc_id=doc.doc_id,
                word_start=word_start,
                word_end=word_end,
                text=" ".join(words[word_start:word_end]),
            )
        )
        prev_end = word_end
        i += 1
    return passages


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
            f.write(json.dumps(row, ensure_ascii=False) + "\n")
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
    """Write normalized documents; this representation round-trips losslessly."""
    return write_jsonl(map(vars, docs), path)


def iter_corpus_jsonl(path) -> Iterator[CaseDocument]:
    return iter_jsonl(path, _document_from_row, "doc_id")


def read_corpus_jsonl(path) -> list[CaseDocument]:
    return list(iter_corpus_jsonl(path))


def _document_from_row(row: dict) -> CaseDocument:
    text = str_field(row, "text")
    paragraphs = tuple((int(a), int(b)) for a, b in row["paragraphs"])
    _check_partition(paragraphs, text)
    return CaseDocument(
        doc_id=row["doc_id"],
        title=str_field(row, "title", ""),
        reporter_cite=str_field(row, "reporter_cite", ""),
        text=text,
        paragraphs=paragraphs,
    )


def _check_partition(spans: tuple[tuple[int, int], ...], text: str) -> None:
    """Raise ValueError unless ``spans`` are paragraphs as ``load_corpus``
    writes them: from 0 to ``len(text)``, in order, each next span starting
    just past a newline that ends the one before."""
    if not spans:
        raise ValueError("paragraphs is empty")
    pos = 0
    for i, (start, end) in enumerate(spans):
        if i and text[pos - 1 : pos] != "\n":
            raise ValueError(f"paragraph {i} does not follow a newline that ends paragraph {i - 1}")
        if start != pos:
            raise ValueError(f"paragraph {i} starts at {start}, not at {pos}")
        if end < start:
            raise ValueError(f"paragraph {i} ends at {end}, before its start {start}")
        pos = end + 1
    if end != len(text):
        raise ValueError(f"paragraphs end at {end}, not at the text's end {len(text)}")


def write_passages_jsonl(passages: Iterable[Passage], path) -> int:
    return write_jsonl(map(vars, passages), path)


def iter_passages_jsonl(path) -> Iterator[Passage]:
    return iter_jsonl(path, _passage_from_row, "passage_id")


def read_passages_jsonl(path) -> list[Passage]:
    return list(iter_passages_jsonl(path))


def _passage_from_row(row: dict) -> Passage:
    return Passage(
        passage_id=row["passage_id"],
        doc_id=row["doc_id"],
        word_start=int(row["word_start"]),
        word_end=int(row["word_end"]),
        text=str_field(row, "text"),
    )
