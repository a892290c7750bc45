"""Build generation instances: a document prefix, a gold analytical
paragraph drawn from the last third, and the salient text of the cases it
cites, rendered into continuation prompts.

Salience is BM25 rank of each cited case's passages against the gold
paragraph; the top passages are concatenated under a total word budget.
A case has a few passages, so ``bm25_rank`` scores them in pure Python
and no index is built.  Only building instances needs ``queries`` and
``retrieval``; they are imported where they run, so reading a genset or
profiling citation density loads neither.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

from .citations import (
    CitationKey,
    ReporterTable,
    default_reporter_table,
    find_case_citations,
)
from .corpus import (
    DEFAULT_GENSET_SEED,
    DEFAULT_PER_DOC,
    DEFAULT_SALIENT_K,
    DEFAULT_WORD_BUDGET,
    CaseDocument,
    chunk_document,
    iter_jsonl,
    str_field,
    write_jsonl,
)


class GensetError(ValueError):
    """An instance cannot be built at the requested paragraph."""


@dataclass(frozen=True)
class ReferenceText:
    key: CitationKey
    text: str


@dataclass(frozen=True)
class GenerationInstance:
    """One continuation task.  ``t`` is the 1-based gold paragraph index;
    the prefix is paragraphs 1..t-1 and ``prefix + "\\n" + gold`` is a
    contiguous slice of the source document."""

    instance_id: str
    doc_id: str
    t: int
    prefix: str
    gold: str
    cited_keys: tuple[CitationKey, ...]
    references: tuple[ReferenceText, ...]
    prompt_with_refs: str
    prompt_without_refs: str


@dataclass(frozen=True)
class DensityProfile:
    """Citations per 100 words by paragraph-position decile."""

    decile_densities: tuple[float, ...]
    decile_words: tuple[int, ...]
    decile_citations: tuple[int, ...]


def select_reference_paragraphs(doc: CaseDocument, reporters: ReporterTable) -> list[int]:
    """Eligible gold-paragraph indices t (1-based): floor(2N/3) <= t <= N-2,
    at least two case citations in the paragraph."""
    n = len(doc.paragraphs)
    lo = max((2 * n) // 3, 1)
    hi = n - 2
    eligible = []
    for t in range(lo, hi + 1):
        if len(find_case_citations(doc.paragraph_text(t - 1), reporters)) >= 2:
            eligible.append(t)
    return eligible


def _salient_text(cited_doc: CaseDocument, gold_text: str, salient_k: int) -> str:
    """The top ``salient_k`` passages of ``cited_doc`` by BM25 against
    ``gold_text`` (``bm25_rank``), joined by newlines, or its first
    passages when none scores.  A document of one passage is its own
    salient text."""
    from .retrieval import bm25_rank

    passages = chunk_document(cited_doc)
    if len(passages) <= 1:
        return cited_doc.text
    texts = {p.passage_id: p.text for p in passages}
    chosen = bm25_rank(list(texts.items()), gold_text, salient_k).unit_ids() or list(texts)[:salient_k]
    return "\n".join(map(texts.__getitem__, chosen))


def _truncate_words(text: str, budget: int) -> str:
    words = text.split()
    if len(words) <= budget:
        return text
    if budget <= 0:
        return ""
    return " ".join(words[:budget])


def build_generation_instance(
    doc: CaseDocument,
    t: int,
    corpus: Mapping[str, CaseDocument],
    key_index: Mapping[CitationKey, str],
    reporters: ReporterTable,
    salient_k: int = DEFAULT_SALIENT_K,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> GenerationInstance:
    """Assemble the instance for gold paragraph ``t`` of ``doc``.

    cited_keys are the distinct case keys in the gold paragraph, in first-
    mention order; each key resolving through ``key_index`` (built over
    ``corpus`` under ``reporters``) contributes a reference text.  Raises
    GensetError when no key resolves.
    """
    n = len(doc.paragraphs)
    if not (1 <= t <= n):
        raise GensetError(f"paragraph index {t} out of range 1..{n}")
    if t < 2:
        raise GensetError("gold paragraph needs a non-empty prefix")

    gold = doc.paragraph_text(t - 1)
    prefix = doc.text[: doc.paragraphs[t - 2][1]]

    cited_keys = list(dict.fromkeys(span.key for span in find_case_citations(gold, reporters)))

    references: list[ReferenceText] = []
    used_words = 0
    resolved_docs: set[str] = set()
    for key in cited_keys:
        target_id = key_index.get(key)
        if target_id is None or target_id == doc.doc_id or target_id in resolved_docs:
            continue
        resolved_docs.add(target_id)
        text = _salient_text(corpus[target_id], gold, salient_k)
        text = _truncate_words(text, word_budget - used_words)
        used_words += len(text.split())
        references.append(ReferenceText(key=key, text=text))
    if not references:
        raise GensetError(f"{doc.doc_id} paragraph {t}: no cited case resolves in the corpus")

    instance = GenerationInstance(
        instance_id=f"{doc.doc_id}:p{t}",
        doc_id=doc.doc_id,
        t=t,
        prefix=prefix,
        gold=gold,
        cited_keys=tuple(cited_keys),
        references=tuple(references),
        prompt_with_refs="",
        prompt_without_refs="",
    )
    return replace(
        instance,
        prompt_with_refs=render_prompt(instance, with_refs=True),
        prompt_without_refs=render_prompt(instance, with_refs=False),
    )


_PROMPT_TAIL = (
    "Continue to write it following the style of my writeup. "
    "Your answer contains 100 to 400 words. "
)
_PROMPT_CLOSE = (
    "Wrap your answer with <answer></answer>. "
    "Make your answer concise and avoid redundant languages."
)


def render_prompt(instance: GenerationInstance, with_refs: bool) -> str:
    """Render the continuation prompt.  The header misspelling "Paragrah"
    is part of the frozen template and must stay byte-exact."""
    if not with_refs:
        return (
            "Here is the text I've written so far:\n"
            "# Paragrah\n"
            f"{instance.prefix}\n\n" + _PROMPT_TAIL + _PROMPT_CLOSE
        )
    blocks = "\n".join(f"# Reference case {ref.key}\n{ref.text}" for ref in instance.references)
    keys = ", ".join(str(ref.key) for ref in instance.references)
    return (
        "Here are some reference articles for legal cases:\n"
        f"{blocks}\n\n"
        "Here is the text I've written so far:\n"
        "# Paragrah\n"
        f"{instance.prefix}\n\n"
        + _PROMPT_TAIL
        + f"You must explicitly use the reference cases and mention their reference ids, i.e. {keys}. "
        + _PROMPT_CLOSE
    )


def build_genset(
    docs: Sequence[CaseDocument],
    seed: int = DEFAULT_GENSET_SEED,
    per_doc: int = DEFAULT_PER_DOC,
    salient_k: int = DEFAULT_SALIENT_K,
    word_budget: int = DEFAULT_WORD_BUDGET,
    reporters: ReporterTable | None = None,
) -> tuple[list[GenerationInstance], list[str]]:
    """Sample up to ``per_doc`` gold paragraphs per document (fixed seed)
    and build their instances under ``reporters`` (the default table when
    None).  Returns (instances, diagnostics)."""
    from .queries import build_corpus_key_index

    table = reporters or default_reporter_table()
    corpus = {d.doc_id: d for d in docs}
    key_index, _ = build_corpus_key_index(docs, table)
    rng = random.Random(seed)
    instances: list[GenerationInstance] = []
    diagnostics: list[str] = []
    for doc in sorted(docs, key=lambda d: d.doc_id):
        eligible = select_reference_paragraphs(doc, table)
        if not eligible:
            continue
        chosen = sorted(rng.sample(eligible, min(per_doc, len(eligible))))
        for t in chosen:
            try:
                instances.append(
                    build_generation_instance(
                        doc, t, corpus, key_index, table, salient_k=salient_k, word_budget=word_budget
                    )
                )
            except GensetError as exc:
                diagnostics.append(str(exc))
    return instances, diagnostics


def citation_density_profile(docs: Iterable[CaseDocument], reporters: ReporterTable) -> DensityProfile:
    """Case citations per 100 words by paragraph-position decile, pooled
    across documents, read once in order.  Bucket word counts partition
    the corpus words."""
    words = [0] * 10
    cites = [0] * 10
    n_docs = 0
    for n_docs, doc in enumerate(docs, 1):
        n = len(doc.paragraphs)
        for i in range(n):
            decile = (10 * i) // n
            text = doc.paragraph_text(i)
            words[decile] += len(text.split())
            cites[decile] += len(find_case_citations(text, reporters))
    if not n_docs:
        raise ValueError("citation density requires at least one document")
    densities = tuple(
        (100.0 * cites[d] / words[d]) if words[d] else 0.0 for d in range(10)
    )
    return DensityProfile(densities, tuple(words), tuple(cites))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_genset_jsonl(instances: Iterable[GenerationInstance], path) -> int:
    return write_jsonl(
        (
            {
                "instance_id": inst.instance_id,
                "doc_id": inst.doc_id,
                "t": inst.t,
                "prefix": inst.prefix,
                "gold": inst.gold,
                "cited_keys": [str(k) for k in inst.cited_keys],
                "references": [{"key": str(r.key), "text": r.text} for r in inst.references],
                "prompt_with_refs": inst.prompt_with_refs,
                "prompt_without_refs": inst.prompt_without_refs,
            }
            for inst in instances
        ),
        path,
    )


def iter_genset_jsonl(path) -> Iterator[GenerationInstance]:
    """Read instances back; keys parse from their own written form, so a
    genset built under any reporter table reads back without it.  Each
    ``instance_id`` is an id (``iter_jsonl``)."""
    return iter_jsonl(path, _instance_from_row, "instance_id")


def read_genset_jsonl(path) -> list[GenerationInstance]:
    return list(iter_genset_jsonl(path))


def _instance_from_row(row: dict) -> GenerationInstance:
    cited_keys = tuple(CitationKey.from_str(k) for k in row["cited_keys"])
    if not cited_keys:
        raise ValueError("cited_keys is empty, so citation recall is undefined")
    return GenerationInstance(
        instance_id=row["instance_id"],
        doc_id=row["doc_id"],
        t=int(row["t"]),
        prefix=str_field(row, "prefix"),
        gold=str_field(row, "gold"),
        cited_keys=cited_keys,
        references=tuple(
            ReferenceText(CitationKey.from_str(r["key"]), str_field(r, "text")) for r in row["references"]
        ),
        prompt_with_refs=str_field(row, "prompt_with_refs"),
        prompt_without_refs=str_field(row, "prompt_without_refs"),
    )
