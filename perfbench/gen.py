"""Seeded input generator for the pipeline benchmark.

A generated opinion recombines paragraphs of the bundled mini-corpus, which
carry every citation form the parser handles and the curly-quoted extracts,
with filler paragraphs drawn from a Zipf vocabulary.  Each generated
document gets a fresh doc id and a unique reporter cite.  Some full case
citations inside the recombined paragraphs are rewritten to point at other
generated documents, so that references resolve to multi-passage opinions
and not only to the short mini-corpus cases.

Two random streams keep run cost independent of the seed.  The layout
stream, seeded by the spec alone, fixes each document's shape: paragraph
kinds and lengths, which mini-corpus paragraphs it reuses, and which of
their citations point at which generated document.  The content stream,
seeded by the caller, draws everything else: the vocabulary, every filler
word, the reporter pages, the titles.  The same seed and spec give the same
bytes.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import accumulate

# Filler words are pseudo-words of consonant-vowel syllables, at least four
# letters long.  Words the citation parser treats specially (short forms,
# abbreviations that never end a sentence) are left out, so filler never
# creates or hides a citation or a sentence boundary.
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_RESERVED = frozenset(
    """
    supra note corp bros supp sept cert stat proc reins order dept mech
    indus distrib accord compare contra
    """.split()
)
ZIPF_S = 1.07

# A full case citation "<volume> <reporter> <page>" in the mini-corpus
# spellings; longer reporter variants are tried first.
_CASE_CITE_RE = re.compile(
    r"(?<![\w.§])(\d{1,4}) "
    r"(F\. Supp\. 2d|F\. Supp\.|F\.R\.D\.|F\.3d|F\. 3d|F\.2d|F\. 2d|U\.S\.|U\. S\.|S\.Ct\.|F\.)"
    r" (\d{1,5})(?!\d)"
)


@dataclass(frozen=True)
class DocSpec:
    """One generated document: a length bucket label, a target word count,
    and how often a citing mini-corpus paragraph is placed (one in every
    ``cite_every`` paragraphs, the first half-way through the first cycle;
    0 places none)."""

    bucket: str
    words: int
    cite_every: int = 4


class Vocabulary:
    """Pseudo-words ranked by Zipf frequency."""

    def __init__(self, rng: random.Random, size: int):
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < size:
            n = rng.choice((2, 2, 3, 3, 4))
            w = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(n))
            if rng.random() < 0.3:
                w += rng.choice(_CONSONANTS)
            if w in seen or w in _RESERVED:
                continue
            seen.add(w)
            words.append(w)
        self.words = words
        self.cum_weights = list(accumulate(1.0 / (r ** ZIPF_S) for r in range(1, size + 1)))

    def sample(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum_weights, k=k)


def filler_paragraph(rng: random.Random, vocab: Vocabulary, n_words: int) -> str:
    """Sentences of 8-24 Zipf words, each capitalized and ending in a period."""
    words = vocab.sample(rng, n_words)
    out = []
    i = 0
    while i < n_words:
        n = min(rng.randint(8, 24), n_words - i)
        sentence = words[i : i + n]
        sentence[0] = sentence[0].capitalize()
        out.append(" ".join(sentence) + ".")
        i += n
    return " ".join(out)


def mini_paragraphs(mini_records: list[dict]) -> tuple[list[str], list[str]]:
    """Split the mini-corpus into (citing, plain) paragraph pools.  A citing
    paragraph holds at least one full case citation."""
    citing, plain = [], []
    for rec in mini_records:
        for op in rec["opinions"]:
            for para in op["text"].split("\n\n"):
                para = para.strip()
                if not para:
                    continue
                (citing if _CASE_CITE_RE.search(para) else plain).append(para)
    return citing, plain


def retarget_citations(paragraph: str, targets: list[str]) -> str:
    """Rewrite every other full case citation (the first, third, ...) to
    the "<volume> <reporter> <page>" of the next of ``targets``."""
    pending = iter(targets)
    count = -1

    def swap(m: re.Match) -> str:
        nonlocal count
        count += 1
        return next(pending) if count % 2 == 0 else m.group(0)

    return _CASE_CITE_RE.sub(swap, paragraph)


def generate_records(
    seed: int,
    mini_records: list[dict],
    specs: list[DocSpec],
    vocab_size: int = 40_000,
) -> list[dict]:
    """Raw case records: the mini-corpus followed by one record per spec.

    A generated document cycles through ``cite_every`` slots: one holds a
    citing mini-corpus paragraph (every other case citation retargeted to
    another generated document), the slot after it a plain mini-corpus
    paragraph, and the rest Zipf filler of 40-140 words.
    """
    layout = random.Random(f"layout:{len(specs)}")
    rng = random.Random(seed)
    vocab = Vocabulary(rng, vocab_size)
    citing, plain = mini_paragraphs(mini_records)
    ids = [f"g{seed}-{s.bucket}-{i:04d}" for i, s in enumerate(specs)]
    cites = [f"{1000 + i} F.3d {rng.randint(1, 1999)}" for i in range(len(specs))]
    records = [dict(r) for r in mini_records]
    for i, spec in enumerate(specs):
        others = [c for j, c in enumerate(cites) if j != i]
        paragraphs: list[str] = []
        total = 0
        slot = 0
        while total < spec.words:
            slot += 1
            phase = slot % spec.cite_every - spec.cite_every // 2 if spec.cite_every else None
            if phase == 0:
                para = layout.choice(citing)
                n_retargeted = (len(_CASE_CITE_RE.findall(para)) + 1) // 2
                para = retarget_citations(para, [layout.choice(others) for _ in range(n_retargeted)])
            elif phase == 1:
                para = layout.choice(plain)
            else:
                para = filler_paragraph(rng, vocab, layout.randint(40, 140))
            paragraphs.append(para)
            total += len(para.split())
        # The last two paragraphs never serve as gold; close on filler.
        paragraphs.append(filler_paragraph(rng, vocab, 30))
        paragraphs.append("It is so ordered.")
        a, b = vocab.sample(rng, 2)
        records.append(
            {
                "id": ids[i],
                "name": f"{a.capitalize()} v. {b.capitalize()}",
                "cite": cites[i],
                "opinions": [{"type": "majority", "text": "\n\n".join(paragraphs)}],
            }
        )
    return records


_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.?!])\s+(?=[A-Z“])")


def generation_rows(rng: random.Random, genset: list[dict], system: str, with_refs: bool) -> list[dict]:
    """One stand-in generation per instance, wrapped in <answer></answer>.

    A generation with references keeps more of the gold paragraph's
    sentences, quotes a stretch of a reference text, and cites more of the
    gold citations; one without references keeps less of the gold, cites
    fewer relevant cases and more often cites a case that does not exist.
    Continuation words are drawn from the instance's own prefix.
    """
    keep = 0.6 if with_refs else 0.3
    rows = []
    for inst in genset:
        parts = [s for s in _SENTENCE_SPLIT_RE.split(inst["gold"]) if rng.random() < keep]
        if with_refs and inst["references"]:
            ref = rng.choice(inst["references"])["text"].split()
            start = rng.randrange(max(1, len(ref) - 40))
            parts.append(" ".join(ref[start : start + rng.randint(20, 40)]) + ".")
        cites = list(inst["cited_keys"])
        rng.shuffle(cites)
        n_cites = len(cites) if with_refs else max(1, len(cites) // 2)
        parts.append("See " + ", ".join(cites[:n_cites]) + ".")
        if not with_refs or rng.random() < 0.3:
            parts.append(f"Cf. {rng.randint(100, 999)} F.2d {rng.randint(1, 1999)}.")
        prefix_words = inst["prefix"].split()
        for _ in range(rng.randint(3, 6)):
            start = rng.randrange(max(1, len(prefix_words) - 25))
            parts.append(" ".join(prefix_words[start : start + rng.randint(10, 25)]))
        rng.shuffle(parts)
        rows.append(
            {
                "instance_id": inst["instance_id"],
                "system": system,
                "output_text": "<answer>" + " ".join(parts) + "</answer>",
            }
        )
    return rows


def write_jsonl(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def read_jsonl(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]
