"""Output checks for the pipeline benchmark.

Each check reads the artifacts a chain wrote and judges them with a naive
re-implementation of the specification (full-scan BM25, brute-force
Recall/nDCG, brute-force n-gram overlap), never with the program's own
code.  Each returns a list of failure messages; an empty list passes.

The checks hold under every ranking semantics the project still leaves
open: a search may or may not drop the query's own document, and MaxP may
aggregate over any passage depth.  They only assert what every such
semantics guarantees.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from pathlib import Path

BM25_K1 = 1.2
BM25_B = 0.75
SCORE_TOL = 1e-6  # TREC runs print scores with six decimals
TIE_TOL = 1e-9

_TOKEN_RE = re.compile(r"[0-9a-z]+(?:\.[0-9a-z]+)*")
_FOLD_RE = re.compile(r"[0-9a-z]+")


def read_qrels(path) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for line in Path(path).read_text("utf-8").splitlines():
        parts = line.split()
        if len(parts) == 4 and int(parts[3]) > 0:
            out.setdefault(parts[0], set()).add(parts[2])
    return out


def read_run(path) -> dict[str, list[tuple[str, float, int]]]:
    """query id -> [(unit id, score, rank)] in file order."""
    out: dict[str, list[tuple[str, float, int]]] = {}
    for line in Path(path).read_text("utf-8").splitlines():
        parts = line.split()
        if parts:
            out.setdefault(parts[0], []).append((parts[2], float(parts[4]), int(parts[3])))
    return out


# ---------------------------------------------------------------------------
# Citations, as the reporter table spells them
# ---------------------------------------------------------------------------

class CaseCiteFinder:
    """Finds "<volume> <reporter> <page>" with any surface variant of the
    reporter table, and canonicalizes it to a "volume reporter page" key."""

    def __init__(self, variants: dict[str, str]):
        self.variants = {re.sub(r"\s+", " ", k.strip()): v for k, v in variants.items()}
        alt = "|".join(
            r"[ \t]".join(re.escape(p) for p in v.split(" "))
            for v in sorted(self.variants, key=len, reverse=True)
        )
        self.regex = re.compile(rf"(?<![\w.§])[A-Za-z]?(\d{{1,4}})[ \t]+({alt})[ \t]+(\d{{1,5}})(?!\d)")

    def keys(self, text: str) -> list[str]:
        out = []
        for m in self.regex.finditer(text):
            rep = self.variants[re.sub(r"[ \t]+", " ", m.group(2))]
            out.append(f"{int(m.group(1))} {rep} {int(m.group(3))}")
        return out


def check_masking(queries: list[dict], finder: CaseCiteFinder) -> list[str]:
    """No full case citation of a target key survives in masked_text."""
    bad = []
    for q in queries:
        leaked = set(finder.keys(q["masked_text"])) & set(q["target_keys"])
        if leaked:
            bad.append(f"{q['query_id']}: masked text still cites {sorted(leaked)}")
    return bad


def check_qrels_not_self(queries: list[dict], qrels: dict[str, set[str]], passage_doc=None) -> list[str]:
    """No qrels target is the query's own document (or one of its passages)."""
    own = {q["query_id"]: q["doc_id"] for q in queries}
    bad = []
    for qid, units in qrels.items():
        for u in units:
            doc = passage_doc.get(u, u) if passage_doc is not None else u
            if doc == own.get(qid):
                bad.append(f"{qid}: qrels target {u} is the query's own document")
    return bad


# ---------------------------------------------------------------------------
# Chunking and generation instances
# ---------------------------------------------------------------------------

def check_chunks(corpus: list[dict], passages: list[dict], window: int, stride: int) -> list[str]:
    """Every word is covered, windows start at multiples of the stride and
    overlap by window - stride words, and the last passage adds new words."""
    by_doc: dict[str, list[dict]] = {}
    for p in passages:
        by_doc.setdefault(p["doc_id"], []).append(p)
    bad = []
    for doc in corpus:
        words = doc["text"].split()
        ps = by_doc.get(doc["doc_id"], [])
        if not ps:
            bad.append(f"{doc['doc_id']}: no passages")
            continue
        prev_end = 0
        for i, p in enumerate(ps):
            start, end = p["word_start"], p["word_end"]
            if start != i * stride or end != min(start + window, len(words)):
                bad.append(f"{p['passage_id']}: window [{start}, {end}) off the stride grid")
            elif p["text"] != " ".join(words[start:end]):
                bad.append(f"{p['passage_id']}: text differs from words {start}..{end}")
            elif i and (end <= prev_end or prev_end - start != window - stride):
                bad.append(f"{p['passage_id']}: overlap with predecessor is {prev_end - start} words")
            prev_end = end
        if prev_end != len(words):
            bad.append(f"{doc['doc_id']}: passages cover {prev_end} of {len(words)} words")
    return bad


def check_genset(corpus: list[dict], genset: list[dict], finder: CaseCiteFinder) -> list[str]:
    """prefix + "\\n" + gold is a contiguous slice of its document, and the
    gold paragraph carries at least two case citations."""
    texts = {d["doc_id"]: d["text"] for d in corpus}
    bad = []
    for inst in genset:
        if inst["prefix"] + "\n" + inst["gold"] not in texts.get(inst["doc_id"], ""):
            bad.append(f"{inst['instance_id']}: prefix and gold are not a slice of the document")
        if len(finder.keys(inst["gold"])) < 2:
            bad.append(f"{inst['instance_id']}: gold paragraph has fewer than two case citations")
    return bad


# ---------------------------------------------------------------------------
# BM25 against a full scan
# ---------------------------------------------------------------------------

class NaiveBM25:
    """Scores every unit of a collection by the BM25 definition: lowercase
    tokens of alphanumerics with internal periods, Robertson/Sparck-Jones
    idf floored at zero, repeated query terms weighted by frequency."""

    def __init__(self, units: list[tuple[str, str]], k1: float = BM25_K1, b: float = BM25_B):
        self.ids = [u for u, _ in units]
        self.tfs = [Counter(_TOKEN_RE.findall(t.lower())) for _, t in units]
        self.lengths = [sum(c.values()) for c in self.tfs]
        self.avg = sum(self.lengths) / len(self.lengths)
        self.df = Counter(term for c in self.tfs for term in c)
        self.k1, self.b = k1, b

    def scores(self, query: str) -> dict[str, float]:
        n = len(self.ids)
        qtf = Counter(_TOKEN_RE.findall(query.lower()))
        idf = {t: max(0.0, math.log((n - self.df[t] + 0.5) / (self.df[t] + 0.5))) for t in qtf if self.df[t]}
        out = {}
        for uid, tf, length in zip(self.ids, self.tfs, self.lengths):
            norm = self.k1 * (1.0 - self.b + self.b * length / self.avg)
            s = sum(q * idf[t] * tf[t] * (self.k1 + 1.0) / (tf[t] + norm) for t, q in qtf.items() if t in idf and tf[t])
            if s > 0.0:
                out[uid] = s
        return out


def check_ranking(
    qid: str, rows: list[tuple[str, float, int]], truth: dict[str, float], k: int, own: set[str], complete: bool
) -> list[str]:
    """Judge one ranked list against full-scan scores ``truth``.

    Every row's score is its unit's true score; ranks run 1..n with scores
    non-increasing and ties in ascending id order; every unit outside
    ``own`` whose true score beats the last row's is listed.  With
    ``complete``, a list shorter than k must hold every scoring unit.
    """
    bad = []
    if [r for _, _, r in rows] != list(range(1, len(rows) + 1)):
        bad.append(f"{qid}: ranks are not 1..{len(rows)}")
    for uid, score, rank in rows:
        if abs(score - truth.get(uid, 0.0)) > SCORE_TOL:
            bad.append(f"{qid}: rank {rank} {uid} scored {score}, full scan gives {truth.get(uid, 0.0):.6f}")
    for (a, _, ra), (b, _, _) in zip(rows, rows[1:]):
        ta, tb = truth.get(a, 0.0), truth.get(b, 0.0)
        if tb > ta + TIE_TOL or (abs(ta - tb) <= TIE_TOL and b < a):
            bad.append(f"{qid}: rank {ra} {a} ordered before {b}")
    listed = {uid for uid, _, _ in rows}
    floor = truth.get(rows[-1][0], 0.0) if rows else 0.0
    if complete and len(rows) < k:
        floor = 0.0
    missed = [u for u, s in truth.items() if s > floor + SCORE_TOL and u not in listed and u not in own]
    if missed:
        bad.append(f"{qid}: {len(missed)} units outscore the list but are missing, e.g. {sorted(missed)[0]}")
    return bad


def maxp_truth(passage_scores: dict[str, float], passage_doc: dict[str, str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pid, s in passage_scores.items():
        d = passage_doc[pid]
        out[d] = max(out.get(d, 0.0), s)
    return out


# ---------------------------------------------------------------------------
# Retrieval metrics, brute force
# ---------------------------------------------------------------------------

def brute_force_report(run: dict, qrels: dict[str, set[str]], ks: list[int], ndcg_k: int = 10) -> dict:
    per_query = {}
    for qid, pos in qrels.items():
        ranked = [u for u, _, _ in sorted(run.get(qid, []), key=lambda r: r[2])]
        row = {}
        for k in ks:
            row[f"recall@{k}"] = sum(1 for u in set(ranked[:k]) if u in pos) / len(pos)
        dcg = sum(1.0 / math.log2(i + 2) for i, u in enumerate(ranked[:ndcg_k]) if u in pos)
        ideal = sum(1.0 / math.log2(i + 2) for i in range(min(len(pos), ndcg_k)))
        row[f"ndcg@{ndcg_k}"] = dcg / ideal
        per_query[qid] = row
    names = sorted({m for row in per_query.values() for m in row})
    macro = {m: sum(r[m] for r in per_query.values()) / len(per_query) for m in names}
    return {"per_query": per_query, "macro": macro}


def check_retrieval_report(report: dict, expected: dict) -> list[str]:
    bad = []
    if set(report["per_query"]) != set(expected["per_query"]):
        bad.append("report scores a different set of queries than the qrels hold")
    for qid, row in expected["per_query"].items():
        got = report["per_query"].get(qid, {})
        for m, v in row.items():
            if abs(got.get(m, math.nan) - v) > TIE_TOL:
                bad.append(f"{qid}: {m} reported {got.get(m)}, brute force gives {v}")
    for m, v in expected["macro"].items():
        if abs(report["macro"].get(m, math.nan) - v) > TIE_TOL:
            bad.append(f"macro {m} reported {report['macro'].get(m)}, brute force gives {v}")
    return bad


# ---------------------------------------------------------------------------
# Quote retrieval and generation scoring
# ---------------------------------------------------------------------------

def fold(text: str) -> list[str]:
    return _FOLD_RE.findall(text.lower())


def strip_quotes(text: str) -> str:
    return text.replace("“", "").replace("”", "")


def check_quote_run(
    quotes: list[dict], run: dict, texts: dict[str, str], mode: str, n: int, k: int
) -> list[str]:
    """n-gram rows score the number of distinct quote n-grams the unit
    holds (exact containment, scored 1, for quotes under n words); exact
    rows contain the quote.  Rows run by score, then ascending id."""
    bad = []
    for q in quotes:
        qid = q["query_id"]
        rows = run.get(qid, [])
        needle = strip_quotes(q["quote"]).strip()
        words = fold(q["quote"])
        grams = {tuple(words[i : i + n]) for i in range(len(words) - n + 1)}
        for uid, score, rank in rows:
            if mode == "exact" or len(words) < n:
                want = 1.0 if needle in strip_quotes(texts[uid]) else 0.0
            else:
                uw = fold(texts[uid])
                want = float(len(grams & {tuple(uw[i : i + n]) for i in range(len(uw) - n + 1)}))
            if want <= 0.0 or abs(score - want) > SCORE_TOL:
                bad.append(f"{qid}: rank {rank} {uid} scored {score}, brute force gives {want}")
        order = sorted(rows, key=lambda r: (-r[1], r[0]))
        if [r[0] for r in order] != [r[0] for r in rows]:
            bad.append(f"{qid}: rows not ordered by score, then id")
        if mode == "exact" and len(rows) < k:
            missing = [u for u, t in texts.items() if needle in strip_quotes(t) and u not in {r[0] for r in rows}]
            if missing:
                bad.append(f"{qid}: exact match misses {sorted(missing)[0]}")
    return bad


def lcs(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def rouge_f1(cand: str, ref: str, variant: str) -> float:
    c, r = fold(cand), fold(ref)
    if variant == "L":
        match, ct, rt = lcs(c, r), len(c), len(r)
    else:
        n = int(variant)
        cc = Counter(tuple(c[i : i + n]) for i in range(len(c) - n + 1))
        rc = Counter(tuple(r[i : i + n]) for i in range(len(r) - n + 1))
        match, ct, rt = sum((cc & rc).values()), sum(cc.values()), sum(rc.values())
    if not (match and ct and rt):
        return 0.0
    p, rr = match / ct, match / rt
    return 2 * p * rr / (p + rr)


def answer_text(output: str) -> str:
    start = output.find("<answer>")
    if start == -1:
        return output
    start += len("<answer>")
    end = output.find("</answer>", start)
    return output[start:end] if end != -1 else output[start:]


def check_generation_report(report: dict, genset: list[dict], generations: list[dict], sample: list[str]) -> list[str]:
    """Every instance is scored, and ROUGE-1/2/L of the sampled instances
    equal a brute-force recomputation."""
    bad = []
    if set(report["per_query"]) != {g["instance_id"] for g in genset}:
        bad.append("generation report does not score every instance exactly once")
    gold = {g["instance_id"]: g["gold"] for g in genset}
    out = {g["instance_id"]: answer_text(g["output_text"]) for g in generations}
    for iid in sample:
        row = report["per_query"].get(iid, {})
        for variant, name in (("1", "rouge1"), ("2", "rouge2"), ("L", "rougeL")):
            want = rouge_f1(out[iid], gold[iid], variant)
            if abs(row.get(name, math.nan) - want) > TIE_TOL:
                bad.append(f"{iid}: {name} reported {row.get(name)}, brute force gives {want}")
    return bad
