"""Scoring: Recall@k and nDCG@k for retrieval runs, ROUGE-1/2/L F1 and the
citation metrics CR / CP / CFP for generated analyses.

CR is the fraction of relevant citations that were generated, CP the
fraction of generated citations that are relevant, and CFP the fraction of
generated citations that are hallucinated, i.e. neither relevant nor
grounded in the writing prefix, where its surface form occurs with no
letter or digit touching it.  Citation fractions are kept as exact
rationals.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .corpus import DEFAULT_RECALL_KS, fold_words, read_jsonl, shingles, str_field

# Only the generation scorers read citations; they import it where they run,
# so scoring a retrieval run does not load it.
if TYPE_CHECKING:
    from .citations import CitationKey, ReporterTable

VERDICT_MATCHED = "matched"
VERDICT_GROUNDED = "prefix-grounded"
VERDICT_HALLUCINATED = "hallucinated"


# ---------------------------------------------------------------------------
# Retrieval metrics
# ---------------------------------------------------------------------------

def recall_at_k(ranked_ids: Sequence[str], positives: set[str], k: int) -> float:
    """|top-k ∩ positives| / |positives|; requires at least one positive."""
    if not positives:
        raise ValueError("recall is undefined without positives")
    return len(set(ranked_ids[:k]) & positives) / len(positives)


def ndcg_at_k(ranked_ids: Sequence[str], positives: set[str], k: int = 10) -> float:
    """Binary-gain nDCG: a hit at rank i contributes 1/log2(i+1); the ideal
    ranking front-loads min(|positives|, k) hits."""
    if not positives:
        raise ValueError("nDCG is undefined without positives")
    dcg = 0.0
    for i, unit_id in enumerate(ranked_ids[:k], 1):
        if unit_id in positives:
            dcg += 1.0 / math.log2(i + 1)
    ideal = sum(1.0 / math.log2(i + 1) for i in range(1, min(len(positives), k) + 1))
    return dcg / ideal


def evaluate_run(
    run: Mapping[str, Sequence[str]],
    qrels: Mapping[str, set[str]],
    ks: Sequence[int] = DEFAULT_RECALL_KS,
) -> "MetricReport":
    """Per-query and macro Recall@k over a run, and nDCG@10.

    Queries present in qrels but missing from the run score zero and are
    counted; run-only queries are listed and excluded.  Every k must be at
    least 1, or ``ValueError`` is raised.
    """
    if min(ks) < 1:
        raise ValueError(f"every k must be at least 1, got {list(ks)}")
    per_query: dict[str, dict[str, float]] = {}
    missing = sorted(q for q in qrels if q not in run)
    extra = sorted(q for q in run if q not in qrels)
    for qid, positives in sorted(qrels.items()):
        if not positives:
            continue
        ranked = list(run.get(qid, ()))
        row = {f"recall@{k}": recall_at_k(ranked, positives, k) for k in ks}
        row["ndcg@10"] = ndcg_at_k(ranked, positives, 10)
        per_query[qid] = row
    return MetricReport(
        per_query=per_query,
        macro=_macro(per_query),
        skipped={"missing_from_run": len(missing), "not_in_qrels": len(extra)},
        missing_ids=missing,
        extra_ids=extra,
    )


# ---------------------------------------------------------------------------
# ROUGE
# ---------------------------------------------------------------------------

def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Exact LCS length by the bit-vector method of Allison & Dix (1986)
    and Hyyrö (2004): one DP row packed into the int ``v``, whose zero
    bits mark where the LCS grows, updated per token of the longer list."""
    if len(a) < len(b):
        a, b = b, a
    masks: dict[str, int] = {}
    for i, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << i
    full = v = (1 << len(b)) - 1
    for x in a:
        m = masks.get(x)
        if m is not None:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _f1(match: float, cand_total: int, ref_total: int) -> float:
    if cand_total == 0 or ref_total == 0 or match == 0:
        return 0.0
    p = match / cand_total
    r = match / ref_total
    return 2 * p * r / (p + r)


@lru_cache(maxsize=4)
def _folded(text: str) -> tuple[str, ...]:
    """``fold_words(text)``, kept for the last few texts: a generation is
    scored in three ROUGE variants against the same gold paragraph, and
    each text is folded once."""
    return tuple(fold_words(text))


def rouge_f(candidate: str, reference: str, variant: int | str = 1) -> float:
    """ROUGE F1 over case-folded, punctuation-stripped word tokens.

    ``variant`` 1 and 2 use clipped n-gram overlap; "L" uses the longest
    common subsequence.  Empty candidate or reference scores 0.
    """
    cand = _folded(candidate)
    ref = _folded(reference)
    if str(variant).lower() == "l":
        return _f1(_lcs_length(cand, ref), len(cand), len(ref))
    n = int(variant)
    if n not in (1, 2):
        raise ValueError(f"unsupported ROUGE variant {variant!r}")
    cand_counts = Counter(shingles(cand, n))
    ref_counts = Counter(shingles(ref, n))
    # Clipped overlap: each candidate n-gram's count, at most its count in
    # the reference (0 when absent).
    overlap = sum(map(min, cand_counts.values(), map(ref_counts.get, cand_counts, repeat(0))))
    return _f1(overlap, sum(cand_counts.values()), sum(ref_counts.values()))


# ---------------------------------------------------------------------------
# Citation metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CitationVerdict:
    key: CitationKey
    status: str  # matched | prefix-grounded | hallucinated


@dataclass(frozen=True)
class CitationReport:
    """Per-generation citation scoring; cr/cp/cfp are exact fractions."""

    generated: tuple[CitationKey, ...]
    relevant: frozenset[CitationKey]
    cr: Fraction
    cp: Fraction
    cfp: Fraction
    verdicts: tuple[CitationVerdict, ...]
    degenerate: bool = False


def _bounded_in(surface: str, text: str) -> bool:
    """Whether ``surface`` occurs in ``text`` with no letter or digit
    touching it on either side.  For one code point ``str.isalnum`` is
    exactly the regex class ``[^\\W_]``."""
    end = len(text)
    start = text.find(surface)
    while start != -1:
        stop = start + len(surface)
        if not (start and text[start - 1].isalnum()) and not (stop < end and text[stop].isalnum()):
            return True
        start = text.find(surface, start + 1)
    return False


def citation_report_from_keys(
    generated_keys: Sequence[CitationKey],
    relevant_keys: Iterable[CitationKey],
    prefix_paragraphs: Sequence[str],
    reference_texts: Sequence[str] = (),
    include_references_in_substring_check: bool = False,
    raw_forms: Mapping[CitationKey, str] | None = None,
) -> CitationReport:
    """Score already-extracted citation keys.

    Generated keys are deduplicated (first mention kept) to c_1..c_M.
    A citation is grounded when its canonical or raw surface form occurs
    in some prefix paragraph with no letter or digit on either side, so
    "45 U.S. 22" does not ground in "545 U.S. 220" but does in "45 U.S.
    22."; with the flag on, the supplied reference texts join the check.
    """
    relevant = frozenset(relevant_keys)
    if not relevant:
        raise ValueError("relevant citation set must not be empty")
    deduped = list(dict.fromkeys(generated_keys))
    m = len(deduped)
    if m == 0:
        return CitationReport(
            generated=(),
            relevant=relevant,
            cr=Fraction(0),
            cp=Fraction(0),
            cfp=Fraction(0),
            verdicts=(),
            degenerate=True,
        )
    grounding_texts = list(prefix_paragraphs)
    if include_references_in_substring_check:
        grounding_texts.extend(reference_texts)

    verdicts: list[CitationVerdict] = []
    matched = 0
    grounded = 0
    for key in deduped:
        if key in relevant:
            matched += 1
            verdicts.append(CitationVerdict(key, VERDICT_MATCHED))
            continue
        surfaces = [str(key)]
        if raw_forms and key in raw_forms:
            surfaces.append(raw_forms[key])
        if any(surface in text and _bounded_in(surface, text) for surface in surfaces for text in grounding_texts):
            grounded += 1
            verdicts.append(CitationVerdict(key, VERDICT_GROUNDED))
        else:
            verdicts.append(CitationVerdict(key, VERDICT_HALLUCINATED))
    return CitationReport(
        generated=tuple(deduped),
        relevant=relevant,
        cr=Fraction(matched, len(relevant)),
        cp=Fraction(matched, m),
        cfp=1 - Fraction(matched + grounded, m),
        verdicts=tuple(verdicts),
    )


def citation_report(
    generated_text: str,
    relevant_keys: Iterable[CitationKey],
    prefix_paragraphs: Sequence[str],
    reference_texts: Sequence[str] = (),
    include_references_in_substring_check: bool = False,
    *,
    reporters: ReporterTable,
) -> CitationReport:
    """Extract citations from generated text under ``reporters`` and score
    them against C_r."""
    from .citations import find_case_citations

    spans = find_case_citations(generated_text, reporters)
    raw_forms: dict[CitationKey, str] = {}
    keys: list[CitationKey] = []
    for span in spans:
        keys.append(span.key)
        raw_forms.setdefault(span.key, span.raw)
    return citation_report_from_keys(
        keys,
        relevant_keys,
        prefix_paragraphs,
        reference_texts,
        include_references_in_substring_check,
        raw_forms,
    )


# ---------------------------------------------------------------------------
# Generation run scoring
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    """Per-item metric values, their macro-averages, and coverage gaps."""

    per_query: dict[str, dict[str, float]]
    macro: dict[str, float]
    skipped: dict[str, int]
    missing_ids: list[str]
    extra_ids: list[str]

    def to_dict(self) -> dict:
        return asdict(self)


def _macro(per_query: dict[str, dict[str, float]]) -> dict[str, float]:
    """Each metric's mean over the rows, which all carry the same metrics."""
    if not per_query:
        return {}
    rows = per_query.values()
    return {m: sum(row[m] for row in rows) / len(rows) for m in sorted(next(iter(rows)))}


def extract_answer(output_text: str) -> str:
    """Text between <answer></answer> when present, else the whole output."""
    start = output_text.find("<answer>")
    if start == -1:
        return output_text
    start += len("<answer>")
    end = output_text.find("</answer>", start)
    return output_text[start:end] if end != -1 else output_text[start:]


def read_generations_jsonl(path) -> dict[str, str]:
    """instance_id -> output_text; each ``instance_id`` is an id
    (``read_jsonl``) and an absent ``output_text`` is ""."""
    return dict(read_jsonl(path, lambda r: (r["instance_id"], str_field(r, "output_text", "")), "instance_id"))


def score_generation_run(
    instances: Sequence,
    outputs: Mapping[str, str],
    include_references_in_substring_check: bool = False,
    reporters: ReporterTable | None = None,
) -> MetricReport:
    """Score one system's generated analyses against their generation
    instances, reading citations under ``reporters`` (the default table
    when None).

    ``outputs`` maps instance_id to the system's output text.  Each scored
    instance gets ROUGE-1/2/L F1 plus CR/CP/CFP computed against the gold
    paragraph's citation set, with the instance prefix as grounding text.
    """
    from .citations import default_reporter_table

    table = reporters or default_reporter_table()
    by_id = {inst.instance_id: inst for inst in instances}
    missing = sorted(i for i in by_id if i not in outputs)
    extra = sorted(i for i in outputs if i not in by_id)

    per_query: dict[str, dict[str, float]] = {}
    degenerate = 0
    for instance_id in sorted(set(by_id) & set(outputs)):
        inst = by_id[instance_id]
        text = extract_answer(outputs[instance_id])
        report = citation_report(
            text,
            inst.cited_keys,
            inst.prefix.split("\n"),
            [ref.text for ref in inst.references],
            include_references_in_substring_check,
            reporters=table,
        )
        if report.degenerate:
            degenerate += 1
        per_query[instance_id] = {
            "rouge1": rouge_f(text, inst.gold, 1),
            "rouge2": rouge_f(text, inst.gold, 2),
            "rougeL": rouge_f(text, inst.gold, "L"),
            "cr": float(report.cr),
            "cp": float(report.cp),
            "cfp": float(report.cfp),
        }
    return MetricReport(
        per_query=per_query,
        macro=_macro(per_query),
        skipped={"missing_generations": len(missing), "unmatched_ids": len(extra), "degenerate": degenerate},
        missing_ids=missing,
        extra_ids=extra,
    )


def compare_runs(with_refs: MetricReport, without_refs: MetricReport) -> dict[str, dict]:
    """Paired macro comparison,  gain% = (with - without) / |without| * 100."""
    out: dict[str, dict] = {}
    for metric in sorted(set(with_refs.macro) & set(without_refs.macro)):
        w = with_refs.macro[metric]
        wo = without_refs.macro[metric]
        out[metric] = {
            "with_refs": w,
            "without_refs": wo,
            "gain_pct": ((w - wo) / abs(wo) * 100.0) if wo != 0 else None,
        }
    return out
