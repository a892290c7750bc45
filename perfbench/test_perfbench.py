"""Tests of the benchmark's own parts: the generator, the output checks and
the span arithmetic.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPECS = [gen.DocSpec("1k", 1000, 4), gen.DocSpec("1k", 1000, 4), gen.DocSpec("2k", 2000, 4)]


def _records(seed):
    return gen.generate_records(seed, run.mini_records(), SPECS, vocab_size=2000)


def test_generator_is_deterministic(tmp_path):
    gen.write_jsonl(_records(7), tmp_path / "a.jsonl")
    gen.write_jsonl(_records(7), tmp_path / "b.jsonl")
    gen.write_jsonl(_records(8), tmp_path / "c.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "c.jsonl").read_bytes()


def test_generated_documents_cite_each_other():
    records = _records(7)
    generated = records[-len(SPECS):]
    cites = {r["cite"] for r in generated}
    assert len(cites) == len(generated)
    assert len({r["id"] for r in records}) == len(records)
    finder = run.reporter_finder()
    for r in generated:
        text = r["opinions"][0]["text"]
        assert len(text.split()) >= 1000
        assert r["cite"] not in finder.keys(text)
    assert any(c in finder.keys(r["opinions"][0]["text"]) for r in generated for c in cites)


def _mini_queries():
    from casebench import minicorpus, queries

    built, qrels, _ = queries.build_queries(minicorpus.load_mini_corpus(), views=["single-removed", "all-removed"])
    rows = [
        {"query_id": q.query_id, "doc_id": q.doc_id, "masked_text": q.masked_text,
         "target_keys": [str(k) for k in q.target_keys]}
        for q in built
    ]
    return rows, {e.query_id: {e.unit_id} for e in qrels}


def test_leaked_target_citation_is_flagged():
    rows, qrels = _mini_queries()
    finder = run.reporter_finder()
    assert checks.check_masking(rows, finder) == []
    assert checks.check_qrels_not_self(rows, qrels) == []
    leaked = dict(rows[0], masked_text=rows[0]["masked_text"] + " See " + rows[0]["target_keys"][0] + ".")
    assert checks.check_masking([leaked], finder)
    assert checks.check_qrels_not_self(rows[:1], {rows[0]["query_id"]: {rows[0]["doc_id"]}})


def _ranked_rows(units, query, k):
    from casebench import retrieval

    ranked = retrieval.bm25_search(retrieval.build_index(units), query, k)
    return [(e.unit_id, round(e.score, 6), e.rank) for e in ranked.entries]


def test_swapped_rank_is_flagged():
    rng = random.Random(3)
    vocab = [f"w{i}" for i in range(40)]
    units = [(f"u{i:03d}", " ".join(rng.choice(vocab) for _ in range(30))) for i in range(60)]
    query = " ".join(rng.choice(vocab) for _ in range(8))
    truth = checks.NaiveBM25(units).scores(query)
    rows = _ranked_rows(units, query, 10)
    assert checks.check_ranking("q", rows, truth, 10, set(), True) == []
    swapped = [rows[1][:2] + (1,), rows[0][:2] + (2,)] + rows[2:]
    assert checks.check_ranking("q", swapped, truth, 10, set(), True)
    assert checks.check_ranking("q", rows[:1] + rows[2:], truth, 10, set(), True)
    # Dropping the query's own unit is a ranking semantics the check allows.
    deeper = _ranked_rows(units, query, 11)
    reranked = [(u, s, r) for r, (u, s, _) in enumerate(deeper[1:], 1)]
    assert checks.check_ranking("q", reranked, truth, 10, {deeper[0][0]}, True) == []


def test_retrieval_report_mismatch_is_flagged():
    run_rows = {"q1": [("a", 2.0, 1), ("b", 1.0, 2)], "q2": [("c", 1.0, 1)]}
    qrels = {"q1": {"b"}, "q2": {"x"}}
    expected = checks.brute_force_report(run_rows, qrels, [1, 10])
    assert expected["per_query"]["q1"]["recall@1"] == 0.0
    assert expected["per_query"]["q1"]["recall@10"] == 1.0
    assert checks.check_retrieval_report(expected, expected) == []
    wrong = json.loads(json.dumps(expected))
    wrong["per_query"]["q1"]["ndcg@10"] = 1.0
    assert checks.check_retrieval_report(wrong, expected)


def test_chunk_check_flags_a_dropped_passage():
    from casebench import corpus, minicorpus

    docs = minicorpus.load_mini_corpus()
    rows = [{"doc_id": d.doc_id, "text": d.text} for d in docs]
    passages = [vars(p) for d in docs for p in corpus.chunk_document(d)]
    assert checks.check_chunks(rows, passages, run.WINDOW, run.STRIDE) == []
    long_doc = next(d.doc_id for d in docs if sum(p["doc_id"] == d.doc_id for p in passages) > 1)
    dropped = [p for p in passages if p["passage_id"] != f"{long_doc}#1"]
    assert checks.check_chunks(rows, dropped, run.WINDOW, run.STRIDE)


def test_quote_check_flags_a_wrong_overlap():
    texts = {"a": "alpha beta gamma delta epsilon zeta eta", "b": "alpha beta gamma delta omega"}
    quote = {"query_id": "q", "quote": "Alpha beta, gamma delta epsilon zeta"}
    good = {"q": [("a", 2.0, 1)]}
    assert checks.check_quote_run([quote], good, texts, "ngram", 5, 10) == []
    assert checks.check_quote_run([quote], {"q": [("a", 3.0, 1)]}, texts, "ngram", 5, 10)
    assert checks.check_quote_run([quote], {"q": [("b", 1.0, 1)]}, texts, "exact", 0, 10)


def test_self_time_subtracts_the_union_of_children():
    P = tracer.PARENT
    spans = [
        ["cli.main", 0.0, 10.0, -1, "s", None],
        ["corpus.a", 1.0, 3.0, 0, "s", None],
        ["corpus.b", 2.0, 5.0, 0, "s", None],  # overlaps its sibling
        ["corpus.c", 8.0, 12.0, 0, "s", None],  # runs past its parent
        ["corpus.d", 2.5, 2.75, 2, "s", None],  # a grandchild
    ]
    assert spans[4][P] == 2
    assert tracer.self_times(spans) == [4.0, 2.0, 2.75, 4.0, 0.25]


def test_tracer_records_nested_spans_and_counts():
    t = tracer.Tracer()
    inner = t.wrap("corpus.inner", lambda x: [x] * x, lambda a, k, r: {"n": len(r)})
    outer = t.wrap("queries.outer", lambda x: inner(x) + inner(x + 1))
    t.stage = "build"
    assert outer(2) == [2, 2, 3, 3, 3]
    names = [s[tracer.NAME] for s in t.spans]
    assert names == ["queries.outer", "corpus.inner", "corpus.inner"]
    assert [s[tracer.PARENT] for s in t.spans] == [-1, 0, 0]
    assert [s[tracer.COUNTS] for s in t.spans] == [None, {"n": 2}, {"n": 3}]
    assert all(s[tracer.STAGE] == "build" for s in t.spans)
    selfs = tracer.self_times(t.spans)
    assert abs(selfs[0] + selfs[1] + selfs[2] - (t.spans[0][tracer.END] - t.spans[0][tracer.START])) < 1e-12


def test_percentile_is_nearest_rank():
    assert tracer.percentile([], 0.5) == 0.0
    assert tracer.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert tracer.percentile(list(range(1, 101)), 0.99) == 99


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(n, w.why) for n, w in run.WORKLOADS.items()]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    layers = json.loads((HERE / "layers.json").read_text("utf-8"))["moves"]
    assert all(run._family(name) in layers for name in run.PER_LAYER)
