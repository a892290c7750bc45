"""The benchmark's layer tracer (``perfbench/tracer.py``) runs the real CLI
with every public layer function wrapped, and reads what it needs of the
program by name: ``analyze(text, index.analyzer)``, ``index.postings``,
``RankedList.entries``, ``NgramIndex`` and ``ngram_search``.  This runs it on a traced mini-corpus chain, so a
change that breaks that contract fails here and not only under
``perfbench/run.py --trace 1``."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from casebench.genset import build_genset
from casebench.minicorpus import load_mini_corpus, mini_corpus_path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_chain_runs_and_reports_layer_metrics(tmp_path):
    # Gold outputs for the genset that build-genset writes under seed 0.
    instances, _ = build_genset(load_mini_corpus(), seed=0)
    (tmp_path / "gens.jsonl").write_text(
        "".join(json.dumps({"instance_id": i.instance_id, "output_text": i.gold}) + "\n" for i in instances)
    )
    stages = [
        ("ingest", ["ingest", str(mini_corpus_path()), "corpus.jsonl"]),
        ("chunk", ["chunk", "corpus.jsonl", "passages.jsonl"]),
        ("parse-citations", ["parse-citations", "corpus.jsonl", "cites.jsonl", "--quotes-out", "quotes.jsonl"]),
        ("build-queries", ["build-queries", "corpus.jsonl", "queries.jsonl", "qrels.txt"]),
        ("index", ["index", "passages.jsonl", "passages.idx"]),
        ("search", ["search", "passages.idx", "queries.jsonl", "run.trec", "--k", "10", "--maxp"]),
        ("search-quotes", ["search-quotes", "corpus.jsonl", "quotes.jsonl", "quotes.trec", "--unit", "document"]),
        ("build-genset", ["build-genset", "corpus.jsonl", "genset.jsonl"]),
        ("eval-generation", ["eval-generation", "genset.jsonl", "gens.jsonl", "--output", "gen_report.json"]),
    ]
    spec = {"src": str(ROOT / "src"), "cwd": str(tmp_path), "stages": stages, "traced": True}
    spec_path, result_path = tmp_path / "spec.json", tmp_path / "result.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(TRACER), str(spec_path), str(result_path)], check=True, timeout=300)

    result = json.loads(result_path.read_text())
    assert [(st["name"], st["exit"]) for st in result["stages"]] == [(name, 0) for name, _ in stages]
    text = (tmp_path / "corpus.jsonl").read_text()
    context = {"corpus_words": len(text.split()), "corpus_chars": len(text), "bucket_of": {}, "built_frac": 0.0}
    metrics = load_tracer().layer_metrics(result, context)
    assert metrics["retrieval.postings_per_query"] > 0
    assert metrics["retrieval.ngram_search_ms_p50"] > 0
    assert metrics["metrics.rouge_l_s"] > 0
