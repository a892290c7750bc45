"""Shared fixture data: the worked hallucination-metrics example and the
frozen prompt renderings used by both the unit and acceptance suites, and
the brute-force scorers the searches are checked against: n-gram overlap
for the quote searches, full-scan BM25 for ``bm25_search``."""

import math
from collections import Counter

from casebench.corpus import fold_words
from casebench.retrieval import analyze

# Five generated keys, four relevant, three matched; the two strays appear
# only inside the reference texts, not in any prefix paragraph.
GENERATED_KEYS = ["404 U.S. 519", "449 U.S. 5", "101 S.Ct. 173", "748 F.2d 1142", "429 U.S. 97"]
RELEVANT_KEYS = ["449 U.S. 5", "748 F.2d 1142", "429 U.S. 97", "953 F.2d 1073"]
REFERENCE_TEXTS = [
    "It is settled law that such a complaint, “however inartfully pleaded” is held "
    "“to less stringent standards”. Haines v. Kerner, 404 U. S. 519, 520 (1972).",
    "A complaint drafted by a pro se litigant is held to less stringent standards. "
    "Hughes v. Rowe, 449 U.S. 5, 9, 101 S.Ct. 173, 175, 66 L.Ed.2d 163 (1980).",
    "The handwritten pro se document is to be liberally construed.",
    "The exemption recognizes that a suit concerning an unfunded plan is one "
    "directly against the employer’s assets.",
]

GOLDEN_PROMPT_WITH_REFS = (
    "Here are some reference articles for legal cases:\n"
    "# Reference case 301 F. 77\n"
    "The plaintiff was injured when a freight elevator descended while he was loading the defendant's van inside it.\n"
    "Negligence is not presumed from the happening of an accident alone. The plaintiff must show a breach of some duty owed to him.\n"
    "Where the instrumentality is in the exclusive control of the defendant and the occurrence is one that ordinarily does not happen without negligence, the jury may infer negligence from the circumstances.\n"
    "The elevator, its cables, and its brake were maintained solely by the defendant. The inference was permissible, and the verdict stands.\n"
    "Judgment affirmed.\n"
    "# Reference case 88 F. Supp. 1200\n"
    "The defendant seed company moves to transfer this action to the district where its elevator and all of the witnesses to the weighing are located.\n"
    "For the convenience of parties and witnesses, in the interest of justice, a district court may transfer any civil action to any other district where it might have been brought.\n"
    "The plaintiff's choice of forum is entitled to weight, but it is not dispositive where the operative events occurred elsewhere.\n"
    "Every witness to the disputed weighing resides in the transferee district. The motion is granted.\n"
    "\n"
    "Here is the text I've written so far:\n"
    "# Paragrah\n"
    "Lamas, a deckhand, was injured when a dredge cable parted. The jury found the cable had been respliced against the manufacturer's specification.\n"
    "The operator urges that Lamas's continued work near the cable bars recovery.\n"
    "\n"
    "Continue to write it following the style of my writeup. Your answer contains "
    "100 to 400 words. You must explicitly use the reference cases and mention "
    "their reference ids, i.e. 301 F. 77, 88 F. Supp. 1200. Wrap your answer with "
    "<answer></answer>. Make your answer concise and avoid redundant languages."
)

GOLDEN_PROMPT_WITHOUT_REFS = (
    "Here is the text I've written so far:\n"
    "# Paragrah\n"
    "Lamas, a deckhand, was injured when a dredge cable parted. The jury found the cable had been respliced against the manufacturer's specification.\n"
    "The operator urges that Lamas's continued work near the cable bars recovery.\n"
    "\n"
    "Continue to write it following the style of my writeup. Your answer contains "
    "100 to 400 words. Wrap your answer with <answer></answer>. Make your answer "
    "concise and avoid redundant languages."
)


def ngram_overlap_oracle(units, quote, n):
    """Score every unit by the distinct quote n-grams it holds, one unit at a
    time; units sharing none are left out.  The quote has at least n words."""

    def grams(text):
        words = fold_words(text)
        return {tuple(words[i : i + n]) for i in range(len(words) - n + 1)}

    wanted = grams(quote)
    ranked = [(unit_id, float(len(wanted & grams(text)))) for unit_id, text in units]
    ranked = [r for r in ranked if r[1] > 0.0]
    ranked.sort(key=lambda t: (-t[1], t[0]))
    return ranked


def bm25_oracle(units, query_terms, k1=1.2, b=0.75):
    """Score every unit by the textbook BM25 formula, one unit at a time;
    units that score 0 are left out."""
    docs = [Counter(analyze(text)) for _, text in units]
    lengths = [sum(c.values()) for c in docs]
    n = len(units)
    avgdl = float(sum(lengths)) / n
    df = Counter()
    for c in docs:
        for term in c:
            df[term] += 1
    scores = []
    for i, counts in enumerate(docs):
        s = 0.0
        for term, qtf in sorted(Counter(query_terms).items()):
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            idf = max(0.0, math.log((n - df[term] + 0.5) / (df[term] + 0.5)))
            if idf == 0.0:
                continue
            norm = k1 * (1.0 - b + b * (lengths[i] / avgdl))
            s += (qtf * idf) * (tf * (k1 + 1.0)) / (tf + norm)
        scores.append(s)
    ranked = [
        (unit_id, score)
        for (unit_id, _), score in zip(units, scores)
        if score > 0.0
    ]
    ranked.sort(key=lambda t: (-t[1], t[0]))
    return ranked
