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
from typing import Iterable, Iterator

DEFAULT_WINDOW = 350
DEFAULT_STRIDE = 175

_WORD_RE = re.compile(r"\S+")
_FOLD_RE = re.compile(r"[0-9a-z]+")
_PARA_BREAK_RE = re.compile(r"\n[ \t]*\n+")
_HSPACE_RE = re.compile(r"[ \t\f\v]+")


@dataclass(frozen=True)
class WordSpan:
    """Character span of one word (maximal non-whitespace run)."""

    start: int
    end: int


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
        return len(tokenize_words(self.text))


@dataclass(frozen=True)
class Passage:
    """A sliding-window chunk of a document; text is the words joined by spaces."""

    passage_id: str
    doc_id: str
    word_start: int
    word_end: int
    text: str


def tokenize_words(text: str) -> list[WordSpan]:
    """Split text into words, i.e. maximal runs of non-whitespace characters."""
    return [WordSpan(m.start(), m.end()) for m in _WORD_RE.finditer(text)]


def fold_words(text: str) -> list[str]:
    """Case-folded, punctuation-stripped word tokens.

    Shared normalization for the n-gram quote scorer and text-overlap
    metrics: lowercase alphanumeric runs, everything else discarded.
    """
    return _FOLD_RE.findall(text.lower())


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

    Returns (documents, diagnostics).  A record missing its id, with
    whitespace in its id, or carrying no opinion text is rejected with a
    diagnostic; the stream continues.
    """
    docs: list[CaseDocument] = []
    diagnostics: list[str] = []
    seen: set[str] = set()
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            diagnostics.append(f"record {i}: not an object")
            continue
        doc_id = rec.get("id")
        if doc_id is None or str(doc_id) == "":
            diagnostics.append(f"record {i}: missing id")
            continue
        doc_id = str(doc_id)
        if any(map(str.isspace, doc_id)):
            # Index files and TREC runs separate ids by whitespace.
            diagnostics.append(f"record {i}: id {doc_id!r} contains whitespace")
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
    words = tokenize_words(doc.text)
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
                text=" ".join(doc.text[w.start : w.end] for w in words[word_start:word_end]),
            )
        )
        prev_end = word_end
        i += 1
    return passages


# ---------------------------------------------------------------------------
# JSONL serialization
# ---------------------------------------------------------------------------

def iter_jsonl(path) -> Iterator[tuple[int, object]]:
    """Yield (line_number, parsed_object); malformed lines raise ValueError."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON ({exc})") from exc


def load_corpus_jsonl(path) -> tuple[list[CaseDocument], list[str]]:
    """Load raw records from a JSONL file; bad lines become diagnostics."""
    records: list[dict] = []
    diagnostics: list[str] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                diagnostics.append(f"line {lineno}: malformed JSON, skipped")
    docs, more = load_corpus(records)
    return docs, diagnostics + more


def write_corpus_jsonl(docs: Iterable[CaseDocument], path) -> int:
    """Write normalized documents; this representation round-trips losslessly."""
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for doc in docs:
            f.write(
                json.dumps(
                    {
                        "doc_id": doc.doc_id,
                        "title": doc.title,
                        "reporter_cite": doc.reporter_cite,
                        "text": doc.text,
                        "paragraphs": [list(p) for p in doc.paragraphs],
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
            n += 1
    return n


def read_corpus_jsonl(path) -> list[CaseDocument]:
    docs = []
    for lineno, obj in iter_jsonl(path):
        docs.append(
            CaseDocument(
                doc_id=obj["doc_id"],
                title=obj.get("title", ""),
                reporter_cite=obj.get("reporter_cite", ""),
                text=obj["text"],
                paragraphs=tuple((int(a), int(b)) for a, b in obj["paragraphs"]),
            )
        )
    return docs


def write_passages_jsonl(passages: Iterable[Passage], path) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for p in passages:
            f.write(
                json.dumps(
                    {
                        "passage_id": p.passage_id,
                        "doc_id": p.doc_id,
                        "word_start": p.word_start,
                        "word_end": p.word_end,
                        "text": p.text,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
            n += 1
    return n


def read_passages_jsonl(path) -> list[Passage]:
    return [
        Passage(
            passage_id=obj["passage_id"],
            doc_id=obj["doc_id"],
            word_start=int(obj["word_start"]),
            word_end=int(obj["word_end"]),
            text=obj["text"],
        )
        for _, obj in iter_jsonl(path)
    ]
