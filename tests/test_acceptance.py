"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines inline."""

from __future__ import annotations

import functools
import math
import random
import re
import resource
import time
from fractions import Fraction

from casebench.citations import (
    find_case_citations,
    find_citations,
    find_statute_citations,
    load_reporter_table,
    parse_citation_key,
)
from casebench.corpus import chunk_document
from casebench.genset import build_genset
from casebench.metrics import (
    citation_report_from_keys,
    ndcg_at_k,
    recall_at_k,
    score_generation_run,
)
from casebench.queries import VIEW_ALL_REMOVED, VIEW_SINGLE_REMOVED, build_queries
from casebench.retrieval import (
    NgramIndex,
    bm25_rank,
    bm25_search,
    build_index,
    exact_match_search,
    ngram_search,
)
from conftest import make_doc
import conftest
import fixtures

TABLE = load_reporter_table()


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE] {name}: FAIL")
                conftest.acceptance_results.append(f"{name}: FAIL")
                raise
            print(f"[ACCEPTANCE] {name}: PASS")
            conftest.acceptance_results.append(f"{name}: PASS")

        return run

    return wrap


@criterion("citation-metrics fidelity")
def test_citation_metrics_fidelity():
    started = time.perf_counter()
    generated = [parse_citation_key(k, TABLE) for k in fixtures.GENERATED_KEYS]
    relevant = [parse_citation_key(k, TABLE) for k in fixtures.RELEVANT_KEYS]
    report = citation_report_from_keys(
        generated,
        relevant,
        prefix_paragraphs=[],
        reference_texts=fixtures.REFERENCE_TEXTS,
    )
    assert report.cp == Fraction(3, 5)
    assert report.cr == Fraction(3, 4)
    assert report.cfp == Fraction(2, 5)
    assert float(report.cp) == 0.600 and float(report.cr) == 0.750 and float(report.cfp) == 0.400
    assert time.perf_counter() - started < 1.0


@criterion("bm25 oracle equivalence")
def test_bm25_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20240521)
    vocab = [f"term{i}" for i in range(120)]
    for trial in range(200):
        n_units = rng.randint(2, 1000) if trial % 4 == 0 else rng.randint(2, 150)
        units = [
            (f"u{i:05d}", " ".join(rng.choices(vocab, k=rng.randint(1, 40))))
            for i in range(n_units)
        ]
        index = build_index(units)
        terms = rng.choices(vocab, k=rng.randint(1, 20))
        ranked = bm25_search(index, " ".join(terms), k=n_units)
        assert ranked == bm25_rank(units, " ".join(terms), k=n_units), trial
    assert time.perf_counter() - started < 60.0


@criterion("retrieval-metric oracle equivalence")
def test_retrieval_metric_oracle_equivalence():
    def recall_oracle(ranked, positives, k):
        return sum(1 for u in ranked[:k] if u in positives) / len(positives)

    def ndcg_oracle(ranked, positives, k):
        dcg = sum(1.0 / math.log2(i + 2) for i, u in enumerate(ranked[:k]) if u in positives)
        ideal = sum(1.0 / math.log2(i + 2) for i in range(min(len(positives), k)))
        return dcg / ideal

    rng = random.Random(7711)
    for _ in range(100):
        universe = [f"d{i}" for i in range(rng.randint(3, 80))]
        rng.shuffle(universe)
        ranked = universe[: rng.randint(1, len(universe))]
        positives = set(rng.sample(universe, rng.randint(1, min(12, len(universe)))))
        for k in (1, 3, 10, 100):
            assert recall_at_k(ranked, positives, k) == recall_oracle(ranked, positives, k)
            assert ndcg_at_k(ranked, positives, k) == ndcg_oracle(ranked, positives, k)
    assert abs(ndcg_at_k(["x", "y", "hit"], {"hit"}, 10) - 0.5) <= 1e-12


@criterion("chunker properties")
def test_chunker_properties():
    rng = random.Random(424242)
    violations = 0
    for _ in range(1000):
        total = rng.randint(1, 5000)
        doc = make_doc("c", [" ".join(f"w{i}" for i in range(total))])
        passages = chunk_document(doc)
        rebuilt = []
        prev_end = 0
        for p in passages:
            rebuilt.extend(p.text.split()[prev_end - p.word_start :])
            prev_end = p.word_end
        if rebuilt != doc.text.split():
            violations += 1
        if any(p.word_end - p.word_start > 350 for p in passages):
            violations += 1
        if any(b.word_start - a.word_start != 175 for a, b in zip(passages, passages[1:])):
            violations += 1
    assert violations == 0


@criterion("masking soundness")
def test_masking_soundness(mini_corpus):
    ws = re.compile(r"\s+")
    queries, _, _ = build_queries(
        mini_corpus, views=(VIEW_SINGLE_REMOVED, VIEW_ALL_REMOVED)
    )
    assert queries
    for q in queries:
        spans = find_citations(q.masked_text, TABLE)
        cases = [s for s in spans if s.kind == "case"]
        if q.view == VIEW_SINGLE_REMOVED:
            central_key = q.target_keys[0]
            assert all(s.key != central_key for s in cases), q.query_id
        else:
            assert cases == [], q.query_id
            assert [s for s in spans if s.kind == "short-form"] == [], q.query_id
            expected_statutes = sorted(
                ws.sub(" ", s.raw)
                for part in (q.left_context, q.right_context)
                for s in find_statute_citations(part)
            )
            got_statutes = sorted(
                ws.sub(" ", s.raw) for s in find_statute_citations(q.masked_text)
            )
            assert got_statutes == expected_statutes, q.query_id


@criterion("direct-quote retrieval behavior")
def test_direct_quote_retrieval():
    started = time.perf_counter()
    rng = random.Random(99173)
    common = [f"c{i}" for i in range(40)]
    rare = [f"r{i}" for i in range(400)]
    corpus = []
    for i in range(100):
        words = [
            rng.choice(common) if rng.random() < 0.3 else rng.choice(rare)
            for _ in range(120)
        ]
        corpus.append((f"doc{i:03d}", " ".join(words)))

    verbatim, altered = [], []
    for i in range(100):
        unit_id, text = corpus[i]
        words = text.split()
        start = rng.randint(0, len(words) - 25)
        quote_words = words[start : start + 25]
        if i < 50:
            verbatim.append((unit_id, " ".join(quote_words)))
        else:
            cut = rng.randint(8, 17)
            altered_words = quote_words[:cut] + ["[Wage]"] + quote_words[cut:]
            altered.append((unit_id, " ".join(altered_words)))

    index = NgramIndex(corpus, 5, [quote for _, quote in verbatim + altered])
    for source, quote in verbatim:
        hits = exact_match_search(index, quote, k=len(corpus)).unit_ids()
        assert source in hits, source
    for source, quote in altered:
        assert exact_match_search(index, quote, k=len(corpus)).unit_ids() == [], source

    top_hits = 0
    for source, quote in altered:
        ranked = ngram_search(index, quote, k=10)
        if ranked.entries and ranked.entries[0].unit_id == source:
            top_hits += 1
    assert top_hits >= 0.95 * len(altered), top_hits
    assert time.perf_counter() - started < 30.0


@criterion("generation-set constraints")
def test_generation_set_constraints(mini_corpus):
    instances, _ = build_genset(mini_corpus, seed=0)
    assert instances
    by_id = {d.doc_id: d for d in mini_corpus}
    for inst in instances:
        n = len(by_id[inst.doc_id].paragraphs)
        assert (2 * n) // 3 <= inst.t <= n - 2, inst.instance_id
        assert len(find_case_citations(inst.gold, TABLE)) >= 2, inst.instance_id
    fixture = next(i for i in instances if i.instance_id == "f2d-469-902:p3")
    assert fixture.prompt_with_refs == fixtures.GOLDEN_PROMPT_WITH_REFS
    assert fixture.prompt_without_refs == fixtures.GOLDEN_PROMPT_WITHOUT_REFS
    assert "Paragrah" in fixture.prompt_with_refs
    assert "<answer></answer>" in fixture.prompt_without_refs


@criterion("self-scoring sanity")
def test_self_scoring_sanity(mini_corpus):
    instances, _ = build_genset(mini_corpus, seed=0)
    report = score_generation_run(instances, {inst.instance_id: inst.gold for inst in instances})
    assert len(report.per_query) == len(instances)
    for instance_id, row in report.per_query.items():
        assert row["rouge1"] == 1.0, instance_id
        assert row["rouge2"] == 1.0, instance_id
        assert row["rougeL"] == 1.0, instance_id
        assert row["cr"] == 1.0, instance_id
        assert row["cp"] == 1.0, instance_id
        assert row["cfp"] == 0.0, instance_id


@criterion("pipeline determinism")
def test_pipeline_determinism(tmp_path):
    from pathlib import Path

    from casebench.minicorpus import mini_corpus_path
    from test_cli import artifact_bytes, run_pipeline

    raw = tmp_path / "raw.jsonl"
    raw.write_bytes(Path(str(mini_corpus_path())).read_bytes())
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    first_dir.mkdir()
    second_dir.mkdir()
    run_pipeline(first_dir, raw)
    run_pipeline(second_dir, raw)
    first, second = artifact_bytes(first_dir), artifact_bytes(second_dir)
    assert list(first) == list(second)
    for name in first:
        assert first[name] == second[name], name


@criterion("scale smoke test")
def test_scale_smoke():
    started = time.perf_counter()
    rng = random.Random(31337)
    # Zipf-flavored vocabulary: few frequent terms, long rare tail.
    frequent = [f"f{i}" for i in range(50)]
    mid = [f"m{i}" for i in range(2000)]
    tail = [f"t{i}" for i in range(30000)]

    def passage_words(k):
        out = []
        for _ in range(k):
            roll = rng.random()
            if roll < 0.45:
                out.append(rng.choice(frequent))
            elif roll < 0.85:
                out.append(rng.choice(mid))
            else:
                out.append(rng.choice(tail))
        return out

    units = [
        (f"p{i:06d}", " ".join(passage_words(80)))
        for i in range(100_000)
    ]
    index = build_index(units)
    assert index.n_units == 100_000

    hits = 0
    for _ in range(1000):
        query = " ".join(passage_words(10))
        ranked = bm25_search(index, query, k=1000)
        hits += len(ranked.entries)
    assert hits > 0

    elapsed = time.perf_counter() - started
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024**2)
    print(f"  scale smoke: {elapsed:.1f}s, peak rss {peak_gb:.2f} GiB")
    assert elapsed < 300.0, elapsed
    assert peak_gb < 4.0, peak_gb
