from __future__ import annotations

import argparse
import hashlib
import importlib
import inspect
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import casebench
from casebench.citations import default_reporter_table, load_reporter_table
from casebench.cli import CONFIG_KEYS, OUTPUT_PATHS, build_parser, main
from casebench.corpus import fold_words, iter_passages_jsonl, read_corpus_jsonl, read_queries_jsonl
from casebench.minicorpus import mini_corpus_path
from casebench.queries import (
    KIND_DIRECT,
    KIND_INDIRECT,
    VIEW_ALL_REMOVED,
    VIEW_SINGLE_REMOVED,
    build_queries,
)
from casebench.retrieval import bm25_rank, build_index, read_trec_run, save_index
from fixtures import ngram_overlap_oracle
from query_oracles import seam_join

TABLE = load_reporter_table()


@pytest.fixture()
def raw_corpus(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_bytes(Path(str(mini_corpus_path())).read_bytes())
    return raw


def run_pipeline(workdir, raw):
    """ingest -> chunk -> build-queries -> index -> search -> eval chain."""
    corpus = workdir / "corpus.jsonl"
    passages = workdir / "passages.jsonl"
    queries = workdir / "queries.jsonl"
    qrels = workdir / "qrels.txt"
    pqrels = workdir / "passage_qrels.txt"
    index = workdir / "docs.idx"
    run = workdir / "run.trec"
    report = workdir / "retrieval_report.json"
    genset = workdir / "genset.jsonl"
    gens = workdir / "generations.jsonl"
    genreport = workdir / "generation_report.json"
    density = workdir / "density.json"
    citations = workdir / "citations.jsonl"
    quotes = workdir / "quotes.jsonl"
    quote_run = workdir / "quote_run.trec"

    assert main(["ingest", str(raw), str(corpus)]) == 0
    assert main(["chunk", str(corpus), str(passages)]) == 0
    assert main(["parse-citations", str(corpus), str(citations), "--quotes-out", str(quotes)]) == 0
    assert main([
        "build-queries", str(corpus), str(queries), str(qrels),
        "--view", "single-removed,all-removed", "--passage-qrels", str(pqrels),
    ]) == 0
    assert main(["index", str(corpus), str(index), "--unit", "document"]) == 0
    assert main(["search", str(index), str(queries), str(run), "--k", "10"]) == 0
    assert main(["eval-retrieval", str(run), str(qrels), "--k", "5,10", "--output", str(report)]) == 0
    assert main(["build-genset", str(corpus), str(genset), "--seed", "0"]) == 0
    # Self-scoring: gold paragraphs as the system output.
    write_gold_generations(genset, gens)
    assert main(["eval-generation", str(genset), str(gens), "--output", str(genreport)]) == 0
    assert main(["search-quotes", str(corpus), str(quotes), str(quote_run), "--unit", "document", "--n", "5", "--k", "10"]) == 0
    assert main(["search-quotes", str(corpus), str(quotes), str(workdir / "quote_exact.trec"), "--unit", "document", "--mode", "exact"]) == 0
    assert main(["index", str(passages), str(workdir / "passages.idx"), "--unit", "passage"]) == 0
    assert main(["search", str(workdir / "passages.idx"), str(queries), str(workdir / "run_maxp.trec"), "--k", "10", "--maxp"]) == 0
    assert main(["density", str(corpus), str(density)]) == 0
    assert main(["stats", str(corpus), "--passages", str(passages), "--queries", str(queries), "--genset", str(genset)]) == 0
    return workdir


def write_gold_generations(genset, path):
    with open(genset, "r", encoding="utf-8") as f, open(path, "w", encoding="utf-8") as out:
        for line in f:
            obj = json.loads(line)
            out.write(json.dumps({"instance_id": obj["instance_id"], "system": "gold", "output_text": obj["gold"]}) + "\n")


def artifact_bytes(workdir):
    out = {}
    for path in sorted(workdir.iterdir()):
        if path.name != "raw.jsonl":
            out[path.name] = path.read_bytes()
    return out


class TestPipeline:
    def test_end_to_end_chain(self, tmp_path, raw_corpus, capsys):
        workdir = run_pipeline(tmp_path, raw_corpus)
        report = json.loads((workdir / "retrieval_report.json").read_text())
        assert report["macro"]["recall@10"] > 0
        genreport = json.loads((workdir / "generation_report.json").read_text())
        assert genreport["macro"]["cr"] == 1.0
        manifest = json.loads((workdir / "queries.jsonl.manifest.json").read_text())
        assert manifest["command"] == "build-queries"
        assert "sentence_failure_rate" in manifest["counts"]
        assert manifest["inputs"]

    def test_repeated_runs_byte_identical(self, tmp_path, raw_corpus):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        run_pipeline(a, raw_corpus)
        run_pipeline(b, raw_corpus)
        first, second = artifact_bytes(a), artifact_bytes(b)
        assert list(first) == list(second)
        for name in first:
            assert first[name] == second[name], name


class TestErrors:
    def test_unknown_config_key_names_it(self, tmp_path, raw_corpus, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 3\n")
        rc = main(["--config", str(cfg), "ingest", str(raw_corpus), str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert "not_a_key" in capsys.readouterr().err

    def test_repeated_config_key_names_both_lines(self, tmp_path, raw_corpus, capsys):
        # The later value used to win silently: chunk exited 0 with window 300.
        cfg = tmp_path / "repeat.cfg"
        cfg.write_text("window = 100\nstride = 50\n# a comment\nwindow = 300\n")
        out = tmp_path / "o.jsonl"
        assert main(["--config", str(cfg), "chunk", str(raw_corpus), str(out)]) == 1
        assert f"{cfg}:4: config key 'window' repeats line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_config_value_rejected(self, tmp_path, raw_corpus, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("window = 0\n")
        rc = main(["--config", str(cfg), "chunk", str(raw_corpus), str(tmp_path / "o.jsonl")])
        assert rc == 1

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        rc = main(["chunk", str(tmp_path / "absent.jsonl"), str(tmp_path / "o.jsonl")])
        assert rc == 2

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        # Valid corpus, malformed index file: search fails, run file removed.
        bad_index = tmp_path / "bad.idx"
        bad_index.write_bytes(b"JUNKJUNKJUNK")
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"query_id": "q1", "masked_text": "words"}\n')
        out = tmp_path / "run.trec"
        rc = main(["search", str(bad_index), str(queries), str(out)])
        assert rc == 2
        assert not out.exists()

    def test_truncated_index_is_data_error(self, tmp_path, raw_corpus, capsys):
        corpus = tmp_path / "corpus.jsonl"
        index = tmp_path / "docs.idx"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        assert main(["index", str(corpus), str(index), "--unit", "document"]) == 0
        index.write_bytes(index.read_bytes()[:-1])
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"query_id": "q1", "masked_text": "words"}\n')
        out = tmp_path / "run.trec"
        assert main(["search", str(index), str(queries), str(out)]) == 2
        assert "truncated index" in capsys.readouterr().err
        assert not out.exists()

    def test_rejected_records_reported(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(
            '{"id": "ok", "name": "n", "cite": "", "opinions": [{"type": "m", "text": "Some text."}]}\n'
            '{"name": "missing id", "opinions": [{"type": "m", "text": "x"}]}\n'
        )
        out = tmp_path / "corpus.jsonl"
        assert main(["ingest", str(raw), str(out)]) == 0
        err = capsys.readouterr().err
        assert "rejected" in err
        manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
        assert manifest["counts"]["rejected"] == 1
        assert manifest["counts"]["documents"] == 1


    def test_id_with_whitespace_rejected_at_ingest(self, tmp_path, capsys):
        # Accepted, the id "a b" became the TREC row "q1 Q0 a b 2 ...",
        # which eval-retrieval could not read back.
        raw = tmp_path / "raw.jsonl"
        raw.write_text("".join(
            json.dumps({"id": doc_id, "name": "", "cite": "", "opinions": [{"type": "m", "text": text}]}) + "\n"
            for doc_id, text in (("a b", "alpha beta"), ("c", "beta gamma"), ("d", "delta"), ("e", "delta"), ("f", "delta"))
        ))
        corpus = tmp_path / "corpus.jsonl"
        assert main(["ingest", str(raw), str(corpus)]) == 0
        assert "rejected: record 0: id 'a b' contains whitespace" in capsys.readouterr().err
        assert [doc.doc_id for doc in read_corpus_jsonl(corpus)] == ["c", "d", "e", "f"]
        index = tmp_path / "docs.idx"
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"query_id": "q1", "masked_text": "beta"}\n')
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 c 1\n")
        run = tmp_path / "run.trec"
        assert main(["index", str(corpus), str(index), "--unit", "document"]) == 0
        assert main(["search", str(index), str(queries), str(run)]) == 0
        assert run.read_text().split()[:3] == ["q1", "Q0", "c"]
        assert main(["eval-retrieval", str(run), str(qrels), "--output", str(tmp_path / "report.json")]) == 0


class TestCustomReporterGenset:
    def test_genset_reads_back_under_its_own_table(self, tmp_path, raw_corpus):
        # No canonical form of this table is also one of its variants.
        table = {v: c.replace(".", "").replace(" ", "") for v, c in default_reporter_table().variants.items()}
        reporters = tmp_path / "rep.json"
        reporters.write_text(json.dumps(table))
        corpus = tmp_path / "corpus.jsonl"
        genset = tmp_path / "genset.jsonl"
        gens = tmp_path / "gold.jsonl"
        report = tmp_path / "report.json"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        assert main(["build-genset", str(corpus), str(genset), "--reporters", str(reporters)]) == 0
        keys = [k for line in genset.read_text().splitlines() for k in json.loads(line)["cited_keys"]]
        assert any(k.split(" ")[1] == "US" for k in keys)
        write_gold_generations(genset, gens)
        rc = main(["eval-generation", str(genset), str(gens), "--output", str(report), "--reporters", str(reporters)])
        assert rc == 0
        assert json.loads(report.read_text())["macro"]["cr"] == 1.0
        assert main(["stats", str(corpus), "--genset", str(genset)]) == 0


class TestViews:
    def test_empty_view_list_is_config_error(self, tmp_path, raw_corpus, capsys):
        corpus = tmp_path / "corpus.jsonl"
        queries = tmp_path / "queries.jsonl"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        rc = main(["build-queries", str(corpus), str(queries), str(tmp_path / "qrels.txt"), "--view", ","])
        assert rc == 1
        assert "--view" in capsys.readouterr().err
        assert not queries.exists()


class TestSingleParse:
    def test_query_kind_follows_the_quote_dump(self, tmp_path, raw_corpus):
        """A query is direct iff a --quotes-out row of its document, quoted
        inside its window, pairs with one of its target keys."""
        corpus = tmp_path / "corpus.jsonl"
        quotes = tmp_path / "quotes.jsonl"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        assert main(["parse-citations", str(corpus), str(tmp_path / "c.jsonl"), "--quotes-out", str(quotes)]) == 0
        rows_by_doc: dict[str, list[dict]] = {}
        for line in quotes.read_text().splitlines():
            row = json.loads(line)
            rows_by_doc.setdefault(row["doc_id"], []).append(row)
        built, _, _ = build_queries(read_corpus_jsonl(corpus), views=(VIEW_SINGLE_REMOVED, VIEW_ALL_REMOVED))
        kinds = set()
        for q in built:
            window = q.left_context + q.central_sentence + q.right_context
            targets = {str(k) for k in q.target_keys}
            paired = [
                r for r in rows_by_doc.get(q.doc_id, [])
                if f"“{r['quote']}”" in window and r["paired_key"] in targets
            ]
            assert q.kind == (KIND_DIRECT if paired else KIND_INDIRECT), q.query_id
            kinds.add(q.kind)
        assert kinds == {KIND_DIRECT, KIND_INDIRECT}


class TestCompareRuns:
    def test_eval_generation_compare_emits_gains(self, tmp_path, raw_corpus):
        corpus = tmp_path / "corpus.jsonl"
        genset = tmp_path / "genset.jsonl"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        assert main(["build-genset", str(corpus), str(genset), "--seed", "0"]) == 0
        gold_run = tmp_path / "gold.jsonl"
        weak_run = tmp_path / "weak.jsonl"
        with open(genset) as f, open(gold_run, "w") as g, open(weak_run, "w") as w:
            for line in f:
                obj = json.loads(line)
                g.write(json.dumps({"instance_id": obj["instance_id"], "system": "a",
                                    "output_text": obj["gold"]}) + "\n")
                w.write(json.dumps({"instance_id": obj["instance_id"], "system": "b",
                                    "output_text": "The motion is denied."}) + "\n")
        report = tmp_path / "cmp.json"
        rc = main(["eval-generation", str(genset), str(gold_run),
                   "--compare", str(weak_run), "--output", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        gains = payload["gain_over_compare"]
        assert gains["cr"]["with_refs"] == 1.0
        assert gains["cr"]["without_refs"] == 0.0
        assert gains["rouge1"]["with_refs"] > gains["rouge1"]["without_refs"]


    def test_repeated_instance_id_is_data_error(self, tmp_path, raw_corpus, capsys):
        corpus = tmp_path / "corpus.jsonl"
        genset = tmp_path / "genset.jsonl"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        assert main(["build-genset", str(corpus), str(genset)]) == 0
        first = json.loads(genset.read_text().splitlines()[0])["instance_id"]
        both = tmp_path / "both.jsonl"
        both.write_text("".join(
            json.dumps({"instance_id": first, "system": system, "output_text": "x"}) + "\n"
            for system in ("a", "b")
        ))
        report = tmp_path / "report.json"
        rc = main(["eval-generation", str(genset), str(both), "--output", str(report)])
        assert rc == 2
        err = capsys.readouterr().err
        assert first in err and f"{both}:2" in err
        assert not report.exists()


class TestSearchQuotes:
    def test_empty_quote_counted_in_both_modes(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(json.dumps({
            "id": "d1", "name": "n", "cite": "",
            "opinions": [{"type": "m", "text": "The court said “” and then “summary judgment was proper” here."}],
        }) + "\n")
        corpus = tmp_path / "corpus.jsonl"
        quotes = tmp_path / "quotes.jsonl"
        assert main(["ingest", str(raw), str(corpus)]) == 0
        assert main(["parse-citations", str(corpus), str(tmp_path / "c.jsonl"), "--quotes-out", str(quotes)]) == 0
        assert [json.loads(line)["quote"] for line in quotes.read_text().splitlines()] == [
            "", "summary judgment was proper",
        ]
        for mode in ("ngram", "exact"):
            run = tmp_path / f"{mode}.trec"
            rc = main(["search-quotes", str(corpus), str(quotes), str(run), "--unit", "document", "--mode", mode])
            assert rc == 0, mode
            assert run.read_text() == f"d1:q1 Q0 d1 1 1.000000 {mode}-5\n"
            manifest = json.loads((tmp_path / f"{mode}.trec.manifest.json").read_text())
            assert manifest["counts"]["rejected_empty"] == 1

    @pytest.mark.parametrize("mode", ["ngram", "exact"])
    def test_passage_unit_ranks_passages(self, searchable, tmp_path, mode):
        passages = tmp_path / "passages.jsonl"
        run = tmp_path / "run.trec"
        assert main(["chunk", str(searchable / "corpus.jsonl"), str(passages)]) == 0
        assert main(["search-quotes", str(passages), str(searchable / "quotes.jsonl"), str(run),
                     "--unit", "passage", "--mode", mode]) == 0
        passage_doc = {}
        for line in passages.read_text().splitlines():
            row = json.loads(line)
            passage_doc[row["passage_id"]] = row["doc_id"]
        hits = {}
        for line in run.read_text().splitlines():
            qid, _, unit, *_ = line.split()
            hits.setdefault(qid, set()).add(passage_doc[unit])
        # Every row names a passage, and each quote finds a passage of the
        # document it was taken from.
        assert len(hits) == len((searchable / "quotes.jsonl").read_text().splitlines()) > 0
        assert all(qid.rsplit(":q", 1)[0] in docs for qid, docs in hits.items())

    def test_twelve_gram_passage_rows_match_overlap_oracle(self, searchable, tmp_path):
        passages = tmp_path / "passages.jsonl"
        run = tmp_path / "run.trec"
        assert main(["chunk", str(searchable / "corpus.jsonl"), str(passages)]) == 0
        assert main(["search-quotes", str(passages), str(searchable / "quotes.jsonl"), str(run),
                     "--unit", "passage", "--mode", "ngram", "--n", "12", "--k", "5"]) == 0
        units = [(p.passage_id, p.text) for p in iter_passages_jsonl(passages)]
        rows = {}
        for line in run.read_text().splitlines():
            qid, _, unit, rank, score, tag = line.split()
            assert tag == "ngram-12"
            rows.setdefault(qid, []).append((unit, float(score), int(rank)))
        long_quotes = [
            json.loads(line) for line in (searchable / "quotes.jsonl").read_text().splitlines()
            if len(fold_words(json.loads(line)["quote"])) >= 12
        ]
        assert long_quotes
        for q in long_quotes:
            expected = ngram_overlap_oracle(units, q["quote"], 12)[:5]
            assert rows[q["query_id"]] == [(u, s, r) for r, (u, s) in enumerate(expected, 1)], q["query_id"]


class TestLabeledAccuracy:
    def test_parse_citations_reports_accuracy(self, tmp_path, raw_corpus, capsys):
        corpus = tmp_path / "corpus.jsonl"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        text = "Prior sentence. See Tilden v. Marsh Chemical Corp., 601 U.S. 101, 105 (2023). Next."
        from casebench.citations import citation_sentence_bounds, find_case_citations

        span = find_case_citations(text, TABLE)[0]
        start, end = citation_sentence_bounds(text, span, find_case_citations(text, TABLE))
        labeled = tmp_path / "labeled.jsonl"
        labeled.write_text(json.dumps({
            "text": text,
            "citation_start": span.start, "citation_end": span.end,
            "sentence_start": start, "sentence_end": end,
        }) + "\n")
        rc = main([
            "parse-citations", str(corpus), str(tmp_path / "cites.jsonl"),
            "--labeled-sample", str(labeled),
        ])
        assert rc == 0
        assert "sentence extraction accuracy: 1.000" in capsys.readouterr().out


class TestSweepLengths:
    """``build-queries --window-words`` (or ``query_window``) takes a comma
    list of lengths and builds every query at each of them."""

    def test_sweep_emits_queries_per_length(self, tmp_path, raw_corpus):
        corpus = tmp_path / "corpus.jsonl"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        out = tmp_path / "windows.jsonl"
        rc = main(["build-queries", str(corpus), str(out), str(tmp_path / "qrels.txt"), "--window-words", "100,300"])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert {r["window_words"] for r in rows} == {100, 300}
        # Skips are counted once per central, not once per length.
        counts = json.loads((tmp_path / "windows.jsonl.manifest.json").read_text())["counts"]
        assert counts["skipped_unresolvable"] == 6
        assert counts["queries"] == counts["built"] == len(rows) == 2 * (counts["centrals_considered"] - 6)
        assert counts["window_words"] == [100, 300]
        assert all(r["query_id"].endswith(f":w{r['window_words']}") for r in rows)

    def test_one_length_keeps_build_queries_ids(self, tmp_path, raw_corpus):
        corpus = tmp_path / "corpus.jsonl"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        assert main(["build-queries", str(corpus), str(tmp_path / "w300.jsonl"), str(tmp_path / "w300.txt"),
                     "--window-words", "300"]) == 0
        assert main(["build-queries", str(corpus), str(tmp_path / "queries.jsonl"), str(tmp_path / "qrels.txt")]) == 0
        assert (tmp_path / "w300.jsonl").read_bytes() == (tmp_path / "queries.jsonl").read_bytes()
        assert (tmp_path / "w300.txt").read_bytes() == (tmp_path / "qrels.txt").read_bytes()
        counts = json.loads((tmp_path / "w300.jsonl.manifest.json").read_text())["counts"]
        assert counts["window_words"] == 300

    def test_config_list_matches_flag_list(self, tmp_path, raw_corpus):
        corpus = tmp_path / "corpus.jsonl"
        cfg = tmp_path / "windows.cfg"
        cfg.write_text("query_window = 100,300\n")
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        assert main(["--config", str(cfg), "build-queries", str(corpus), str(tmp_path / "by_config.jsonl"),
                     str(tmp_path / "by_config.txt")]) == 0
        assert main(["build-queries", str(corpus), str(tmp_path / "by_flag.jsonl"), str(tmp_path / "by_flag.txt"),
                     "--window-words", "100,300"]) == 0
        assert (tmp_path / "by_config.jsonl").read_bytes() == (tmp_path / "by_flag.jsonl").read_bytes()
        assert (tmp_path / "by_config.txt").read_bytes() == (tmp_path / "by_flag.txt").read_bytes()

    @pytest.mark.parametrize("source, value", [
        ("flag", "100,,300"), ("flag", "100,abc"), ("flag", "0"), ("flag", "300,300"),
        ("config", "100,abc"), ("config", "0"),
    ])
    def test_bad_list_is_a_one_line_config_error(self, searchable, tmp_path, capsys, source, value):
        cfg = tmp_path / "windows.cfg"
        cfg.write_text(f"query_window = {value}\n")
        out = tmp_path / "queries.jsonl"
        argv = ["build-queries", str(searchable / "corpus.jsonl"), str(out), str(tmp_path / "qrels.txt")]
        argv = argv + ["--window-words", value] if source == "flag" else ["--config", str(cfg), *argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: query_window ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["windows.cfg"]


class TestFlagPrecedence:
    def test_config_file_turns_on_references_in_substring_check(self, tmp_path, raw_corpus):
        corpus = tmp_path / "corpus.jsonl"
        genset = tmp_path / "genset.jsonl"
        gens = tmp_path / "gens.jsonl"
        cfg = tmp_path / "refs.cfg"
        cfg.write_text("include_references_in_substring_check = true\n")
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        assert main(["build-genset", str(corpus), str(genset)]) == 0
        write_gold_generations(genset, gens)
        by_config, by_flag = tmp_path / "config.json", tmp_path / "flag.json"
        assert main(["--config", str(cfg), "eval-generation", str(genset), str(gens), "--output", str(by_config)]) == 0
        assert main(["eval-generation", str(genset), str(gens), "--output", str(by_flag),
                     "--include-references-in-substring-check"]) == 0
        assert by_config.read_bytes() == by_flag.read_bytes()
        config, _ = manifest_config(by_config)
        assert config["include_references_in_substring_check"] is True

    def test_seed_is_build_gensets_own_flag(self, tmp_path, raw_corpus, capsys):
        # The global --seed was accepted by every command and read by one.
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(["--seed", "3", "build-genset", str(raw_corpus), str(tmp_path / "genset.jsonl")]) == 1
        assert capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_search_quotes_n_overrides_config_and_is_recorded(self, tmp_path, raw_corpus):
        corpus = tmp_path / "corpus.jsonl"
        quotes = tmp_path / "quotes.jsonl"
        run = tmp_path / "quote_run.trec"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ngram_n = 3\n")
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        assert main(["parse-citations", str(corpus), str(tmp_path / "c.jsonl"), "--quotes-out", str(quotes)]) == 0
        rc = main(["--config", str(cfg), "search-quotes", str(corpus), str(quotes), str(run),
                   "--unit", "document", "--n", "7", "--k", "5"])
        assert rc == 0
        assert run.read_text().split("\n", 1)[0].endswith("ngram-7")
        manifest = json.loads((tmp_path / "quote_run.trec.manifest.json").read_text())
        assert manifest["config"]["ngram_n"] == 7


def manifest_inputs(output):
    return json.loads(Path(f"{output}.manifest.json").read_text())["inputs"]


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestManifestInputs:
    """A manifest hashes every file its command reads."""

    def test_reporters_file_tells_two_tables_apart(self, tmp_path, raw_corpus):
        corpus = tmp_path / "corpus.jsonl"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        reporters = tmp_path / "so2d.json"
        reporters.write_text(json.dumps({**default_reporter_table().variants, "So. 2d": "So.2d"}))
        manifests = []
        for name, extra in (("default", []), ("so2d", ["--reporters", str(reporters)])):
            out = tmp_path / name
            out.mkdir()
            rc = main(["build-queries", str(corpus), str(out / "queries.jsonl"), str(out / "qrels.txt"), *extra])
            assert rc == 0
            manifests.append((out / "queries.jsonl.manifest.json").read_text())
        assert manifests[0] != manifests[1]
        assert manifest_inputs(tmp_path / "so2d" / "queries.jsonl")["reporters"] == sha256_of(reporters)
        assert "reporters" not in manifest_inputs(tmp_path / "default" / "queries.jsonl")

    def test_eval_generation_hashes_the_compare_file(self, tmp_path, raw_corpus):
        corpus = tmp_path / "corpus.jsonl"
        genset = tmp_path / "genset.jsonl"
        gold = tmp_path / "gold.jsonl"
        weak = tmp_path / "weak.jsonl"
        report = tmp_path / "report.json"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        assert main(["build-genset", str(corpus), str(genset)]) == 0
        write_gold_generations(genset, gold)
        weak.write_text(gold.read_text().replace('"system": "gold"', '"system": "weak"'))
        assert main(["eval-generation", str(genset), str(gold), "--compare", str(weak), "--output", str(report)]) == 0
        inputs = manifest_inputs(report)
        assert inputs["compare"] == sha256_of(weak)
        assert set(inputs) == {"genset", "generations", "compare"}

    def test_parse_citations_hashes_the_labeled_sample(self, tmp_path, raw_corpus):
        corpus = tmp_path / "corpus.jsonl"
        cites = tmp_path / "cites.jsonl"
        labeled = tmp_path / "labeled.jsonl"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        labeled.write_text(json.dumps({
            "text": "See 601 U.S. 101 (2023). Next.",
            "citation_start": 4, "citation_end": 23, "sentence_start": 0, "sentence_end": 24,
        }) + "\n")
        assert main(["parse-citations", str(corpus), str(cites), "--labeled-sample", str(labeled)]) == 0
        assert manifest_inputs(cites) == {"input": sha256_of(corpus), "labeled_sample": sha256_of(labeled)}

    def test_same_named_inputs_keep_both_hashes(self, tmp_path, raw_corpus):
        corpus = tmp_path / "corpus.jsonl"
        genset = tmp_path / "genset.jsonl"
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        gold, weak = tmp_path / "a" / "gens.jsonl", tmp_path / "b" / "gens.jsonl"
        report = tmp_path / "report.json"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        assert main(["build-genset", str(corpus), str(genset)]) == 0
        write_gold_generations(genset, gold)
        weak.write_text(gold.read_text().replace('"system": "gold"', '"system": "weak"'))
        assert main(["eval-generation", str(genset), str(gold), "--compare", str(weak), "--output", str(report)]) == 0
        assert manifest_inputs(report) == {
            "genset": sha256_of(genset), "generations": sha256_of(gold), "compare": sha256_of(weak),
        }


def manifest_config(output):
    manifest = json.loads(Path(f"{output}.manifest.json").read_text())
    return manifest["config"], manifest["config_hash"]


class TestManifestConfig:
    """A manifest's config records every flag that names no file."""

    def test_maxp_and_k_change_the_config_hash(self, tmp_path, raw_corpus):
        corpus = tmp_path / "corpus.jsonl"
        passages = tmp_path / "passages.jsonl"
        queries = tmp_path / "queries.jsonl"
        index = tmp_path / "passages.idx"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        assert main(["chunk", str(corpus), str(passages)]) == 0
        assert main(["build-queries", str(corpus), str(queries), str(tmp_path / "qrels.txt")]) == 0
        assert main(["index", str(passages), str(index)]) == 0
        hashes = set()
        for name, flags in (("plain", []), ("maxp", ["--maxp"]), ("k5", ["--k", "5"])):
            run = tmp_path / f"{name}.trec"
            assert main(["search", str(index), str(queries), str(run), *flags]) == 0
            config, config_hash = manifest_config(run)
            assert config["maxp"] == (name == "maxp") and config["k"] == (5 if name == "k5" else 1000)
            hashes.add(config_hash)
        assert len(hashes) == 3

    def test_each_command_records_its_settings(self, tmp_path, raw_corpus):
        corpus = tmp_path / "corpus.jsonl"
        assert main(["ingest", str(raw_corpus), str(corpus)]) == 0
        assert main(["parse-citations", str(corpus), str(tmp_path / "c.jsonl"), "--quotes-out",
                     str(tmp_path / "quotes.jsonl")]) == 0
        runs = {
            "queries.jsonl": ["build-queries", str(corpus), str(tmp_path / "queries.jsonl"),
                              str(tmp_path / "qrels.txt"), "--view", "all-removed", "--kind", "direct"],
            "windows.jsonl": ["build-queries", str(corpus), str(tmp_path / "windows.jsonl"),
                              str(tmp_path / "windows_qrels.txt"), "--window-words", "100,300"],
            "docs.idx": ["index", str(corpus), str(tmp_path / "docs.idx"), "--unit", "document"],
            "exact.trec": ["search-quotes", str(corpus), str(tmp_path / "quotes.jsonl"), str(tmp_path / "exact.trec"),
                           "--unit", "document", "--mode", "exact", "--k", "7"],
        }
        # Without --passage-qrels, build-queries reads no window or stride.
        expected = {
            "queries.jsonl": {"view": "all-removed", "kind": "direct", "query_window": "300"},
            "windows.jsonl": {"view": "single-removed", "kind": "both", "query_window": "100,300"},
            "docs.idx": {"unit": "document"},
            "exact.trec": {"unit": "document", "mode": "exact", "k": 7, "ngram_n": 5},
        }
        for output, argv in runs.items():
            assert main(argv) == 0
            config, _ = manifest_config(tmp_path / output)
            assert config == expected[output], output


@pytest.fixture(scope="module")
def searchable(tmp_path_factory):
    """A corpus, its document index, queries, qrels, a run and quotes."""
    work = tmp_path_factory.mktemp("searchable")
    raw = work / "raw.jsonl"
    raw.write_bytes(Path(str(mini_corpus_path())).read_bytes())
    assert main(["ingest", str(raw), str(work / "corpus.jsonl")]) == 0
    assert main(["index", str(work / "corpus.jsonl"), str(work / "docs.idx"), "--unit", "document"]) == 0
    assert main(["build-queries", str(work / "corpus.jsonl"), str(work / "queries.jsonl"), str(work / "qrels.txt")]) == 0
    assert main(["search", str(work / "docs.idx"), str(work / "queries.jsonl"), str(work / "run.trec"), "--k", "10"]) == 0
    assert main(["parse-citations", str(work / "corpus.jsonl"), str(work / "c.jsonl"), "--quotes-out", str(work / "quotes.jsonl")]) == 0
    return work


@pytest.fixture(scope="module")
def every_input(searchable, tmp_path_factory):
    """``searchable``'s files, a generation set, two generation runs and a
    config file: an input for every command that writes a file."""
    work = tmp_path_factory.mktemp("every_input")
    for src in searchable.iterdir():
        (work / src.name).write_bytes(src.read_bytes())
    assert main(["build-genset", str(work / "corpus.jsonl"), str(work / "genset.jsonl")]) == 0
    ids = [json.loads(line)["instance_id"] for line in (work / "genset.jsonl").read_text().splitlines()]
    for name, text in (("gens.jsonl", "An answer."), ("gens2.jsonl", "Another answer.")):
        (work / name).write_text("".join(json.dumps({"instance_id": i, "output_text": text}) + "\n" for i in ids))
    (work / "run.cfg").write_text("seed = 1\n")
    return work


class TestUsageErrors:
    """Bad flags are usage errors: exit 1, and no output is written."""

    @pytest.mark.parametrize("argv", [
        ["build-queries", "{w}/corpus.jsonl", "{o}", "{d}/qrels.txt", "--window-words", "100,,300"],
        ["build-queries", "{w}/corpus.jsonl", "{o}", "{d}/qrels.txt", "--window-words", "100,abc"],
        ["build-queries", "{w}/corpus.jsonl", "{o}", "{d}/qrels.txt", "--window-words", "0"],
        ["--config", "{d}/query_window.cfg", "build-queries", "{w}/corpus.jsonl", "{o}", "{d}/qrels.txt"],
        ["eval-retrieval", "{w}/run.trec", "{w}/qrels.txt", "--k", "5,,10", "--output", "{o}"],
        ["eval-retrieval", "{w}/run.trec", "{w}/qrels.txt", "--k", "0", "--output", "{o}"],
        ["eval-retrieval", "{w}/run.trec", "{w}/qrels.txt", "--k", "5,-1", "--output", "{o}"],
        ["search", "{w}/docs.idx", "{w}/queries.jsonl", "{o}", "--k", "-3"],
        ["search", "{w}/docs.idx", "{w}/queries.jsonl", "{o}", "--k", "0"],
        ["search", "{w}/docs.idx", "{w}/queries.jsonl", "{o}", "--k", "abc"],
        # MaxP would cut document ids at their last "#" into documents that do not exist.
        ["search", "{w}/docs.idx", "{w}/queries.jsonl", "{o}", "--maxp"],
        # b > 1 made short documents' length norms negative, lifting them to rank 1.
        ["search", "{w}/docs.idx", "{w}/queries.jsonl", "{o}", "--bm25-b", "1.5"],
        ["search", "{w}/docs.idx", "{w}/queries.jsonl", "{o}", "--bm25-b", "-0.1"],
        ["search", "{w}/docs.idx", "{w}/queries.jsonl", "{o}", "--bm25-k1", "-1"],
        # A NaN k1 made every score NaN, and search wrote an empty run.
        ["search", "{w}/docs.idx", "{w}/queries.jsonl", "{o}", "--bm25-k1", "nan"],
        ["search-quotes", "{w}/corpus.jsonl", "{w}/quotes.jsonl", "{o}", "--unit", "document", "--k", "0"],
        ["search-quotes", "{w}/corpus.jsonl", "{w}/quotes.jsonl", "{o}", "--unit", "document", "--k", "-1"],
        ["no-such-command", "{w}/corpus.jsonl"],
        ["chunk", "{w}/corpus.jsonl", "{o}", "--window", "100", "--stride", "200"],
        ["--config", "{d}/window.cfg", "build-queries", "{w}/corpus.jsonl", "{o}", "{d}/qrels.txt",
         "--passage-qrels", "{d}/pq.txt"],
        ["--config", "{d}/absent.cfg", "chunk", "{w}/corpus.jsonl", "{o}"],
        # search reads no query_window, but every key the file sets is checked.
        ["--config", "{d}/query_window.cfg", "search", "{w}/docs.idx", "{w}/queries.jsonl", "{o}"],
    ], ids=[
        "lengths-empty-item", "lengths-not-integer", "lengths-zero", "config-query-window-zero",
        "eval-k-empty-item", "eval-k-zero", "eval-k-negative",
        "search-k-negative", "search-k-zero", "search-k-not-integer", "search-maxp-document-index",
        "search-bm25-b-above-1", "search-bm25-b-negative", "search-bm25-k1-negative", "search-bm25-k1-nan",
        "search-quotes-k-zero", "search-quotes-k-negative", "unknown-subcommand",
        "chunk-window-below-stride", "config-window-below-stride", "config-file-missing",
        "config-unlisted-key-out-of-range",
    ])
    def test_exits_1(self, searchable, tmp_path, capsys, argv):
        (tmp_path / "window.cfg").write_text("window = 10\nstride = 20\n")
        (tmp_path / "query_window.cfg").write_text("query_window = 0\n")
        out = tmp_path / "out"
        rc = main([a.format(w=searchable, d=tmp_path, o=out) for a in argv])
        assert rc == 1
        assert capsys.readouterr().err
        assert not out.exists()

    def test_chunk_onto_its_input_leaves_it_intact(self, searchable, tmp_path, capsys):
        # chunk writes passages while it reads documents, so writing onto
        # the input would truncate it before the first read.
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes((searchable / "corpus.jsonl").read_bytes())
        assert main(["chunk", str(corpus), str(tmp_path / "." / "corpus.jsonl")]) == 1
        assert "overwrite its input" in capsys.readouterr().err
        assert corpus.read_bytes() == (searchable / "corpus.jsonl").read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]

    @pytest.mark.parametrize("argv", [
        ["ingest", "{d}/raw.jsonl", "{d}/raw.jsonl"],
        ["chunk", "{d}/corpus.jsonl", "{d}/./corpus.jsonl"],
        ["parse-citations", "{d}/corpus.jsonl", "{d}/corpus.jsonl"],
        ["parse-citations", "{d}/corpus.jsonl", "{d}/c2.jsonl", "--quotes-out", "{d}/c2.jsonl"],
        ["build-queries", "{d}/corpus.jsonl", "{d}/corpus.jsonl", "{d}/q.txt"],
        ["build-queries", "{d}/corpus.jsonl", "{d}/same.txt", "{d}/same.txt"],
        ["build-queries", "{d}/corpus.jsonl", "{d}/q.jsonl", "{d}/q.txt", "--passage-qrels", "{d}/corpus.jsonl"],
        ["build-queries", "{d}/corpus.jsonl", "{d}/q.jsonl", "{d}/q.jsonl.manifest.json"],
        ["build-genset", "{d}/corpus.jsonl", "{d}/corpus.jsonl"],
        ["index", "{d}/corpus.jsonl", "{d}/corpus.jsonl", "--unit", "document"],
        ["search", "{d}/docs.idx", "{d}/queries.jsonl", "{d}/queries.jsonl"],
        ["search", "{d}/docs.idx", "{d}/queries.jsonl", "{d}/docs.idx"],
        ["search-quotes", "{d}/corpus.jsonl", "{d}/quotes.jsonl", "{d}/quotes.jsonl", "--unit", "document"],
        ["eval-retrieval", "{d}/run.trec", "{d}/qrels.txt", "--output", "{d}/qrels.txt"],
        ["eval-generation", "{d}/genset.jsonl", "{d}/gens.jsonl", "--output", "{d}/gens.jsonl"],
        ["eval-generation", "{d}/genset.jsonl", "{d}/gens.jsonl", "--compare", "{d}/gens2.jsonl",
         "--output", "{d}/gens2.jsonl"],
        ["density", "{d}/corpus.jsonl", "{d}/corpus.jsonl"],
        ["--config", "{d}/run.cfg", "ingest", "{d}/raw.jsonl", "{d}/run.cfg"],
    ], ids=[
        "ingest", "chunk", "parse-citations", "parse-citations-quotes-out-onto-output",
        "build-queries-onto-corpus", "build-queries-qrels-onto-queries", "build-queries-passage-qrels-onto-corpus",
        "build-queries-qrels-onto-manifest", "build-genset", "index", "search-onto-queries", "search-onto-index",
        "search-quotes", "eval-retrieval", "eval-generation", "eval-generation-onto-compare", "density",
        "onto-config",
    ])
    def test_no_command_overwrites_what_it_reads_or_writes(self, every_input, tmp_path, capsys, argv):
        for src in every_input.iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main([a.format(d=tmp_path) for a in argv]) == 1
        assert re.search(r"would (overwrite its input|write .* twice)", capsys.readouterr().err)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--help"])
        assert exc.value.code == 0
        assert "--maxp" in capsys.readouterr().out


class TestBM25Settings:
    """b = 0 turns length normalisation off and k1 = 0 ignores term
    frequency; both are valid settings, scored as the full-scan oracle
    scores them."""

    @pytest.mark.parametrize("flag, setting", [("--bm25-b", {"b": 0.0}), ("--bm25-k1", {"k1": 0.0})])
    def test_zero_setting_matches_oracle(self, searchable, tmp_path, flag, setting):
        run = tmp_path / "run.trec"
        assert main(["search", str(searchable / "docs.idx"), str(searchable / "queries.jsonl"), str(run),
                     "--k", "10", flag, "0"]) == 0
        got = read_trec_run(run)
        units = [(d.doc_id, d.text) for d in read_corpus_jsonl(searchable / "corpus.jsonl")]
        rows = read_queries_jsonl(searchable / "queries.jsonl")
        for row in rows:
            expected = bm25_rank(units, row["masked_text"], 10, **setting).entries
            ranked = got.get(row["query_id"], [])
            assert [unit for unit, _, _ in ranked] == [e.unit_id for e in expected]
            assert [score for _, score, _ in ranked] == [pytest.approx(e.score, abs=1e-6) for e in expected]
        assert len(got) == len(rows)


class TestMaxPRun:
    def test_rows_score_each_documents_best_passage(self, searchable, tmp_path):
        """Each row of a MaxP run scores its document's best passage, and a
        run at --k K holds min(K, documents that score) rows per query."""
        passages = tmp_path / "passages.jsonl"
        index = tmp_path / "passages.idx"
        assert main(["chunk", str(searchable / "corpus.jsonl"), str(passages)]) == 0
        assert main(["index", str(passages), str(index)]) == 0
        units = [(p.passage_id, p.text) for p in iter_passages_jsonl(passages)]
        runs = {}
        for k in (10, 100):
            run = tmp_path / f"run{k}.trec"
            assert main(["search", str(index), str(searchable / "queries.jsonl"), str(run), "--k", str(k), "--maxp"]) == 0
            runs[k] = read_trec_run(run)
        for row in read_queries_jsonl(searchable / "queries.jsonl"):
            best: dict[str, float] = {}
            for unit_id, score, _ in bm25_rank(units, row["masked_text"], len(units)).entries:
                best.setdefault(unit_id.rsplit("#", 1)[0], score)
            for k, run in runs.items():
                ranked = run.get(row["query_id"], [])
                assert len(ranked) == min(k, len(best))
                assert [score for _, score, _ in ranked] == [pytest.approx(best[doc], abs=1e-6) for doc, _, _ in ranked]


class TestOldQueryFiles:
    """A queries.jsonl written before rows carried ``redacted_at`` holds
    ``display_text`` in its place; search and stats read both alike."""

    def test_search_and_stats_give_the_same_output(self, searchable, tmp_path, capsys):
        corpus = searchable / "corpus.jsonl"
        new, old = tmp_path / "queries.jsonl", tmp_path / "old.jsonl"
        assert main(["build-queries", str(corpus), str(new), str(tmp_path / "qrels.txt"),
                     "--view", "single-removed,all-removed"]) == 0
        rows = [json.loads(line) for line in new.read_text(encoding="utf-8").splitlines()]
        with open(old, "w", encoding="utf-8") as f:
            for row in rows:
                # The old field order: display_text sat between masked_text and target_keys.
                masked, at, keys = row["masked_text"], row.pop("redacted_at"), row.pop("target_keys")
                row["display_text"] = seam_join(masked[:at], "REDACTED", masked[at:])
                row["target_keys"] = keys
                f.write(json.dumps(row, ensure_ascii=False) + "\n")
        assert "display_text" not in new.read_text(encoding="utf-8")
        assert "redacted_at" not in old.read_text(encoding="utf-8")
        passages, index = tmp_path / "passages.jsonl", tmp_path / "passages.idx"
        assert main(["chunk", str(corpus), str(passages)]) == 0
        assert main(["index", str(passages), str(index)]) == 0
        for idx, flags in ((searchable / "docs.idx", []), (index, ["--maxp"])):
            runs = []
            for queries in (new, old):
                run = tmp_path / f"{queries.stem}-{idx.stem}.trec"
                assert main(["search", str(idx), str(queries), str(run), "--k", "10", *flags]) == 0
                runs.append(run.read_bytes())
            assert runs[0] == runs[1] and runs[0], flags
        tables = []
        for queries in (new, old):
            capsys.readouterr()
            assert main(["stats", str(corpus), "--queries", str(queries)]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1] and f"{'queries':<12} {len(rows):>10}" in tables[0]


class TestSearchStreams:
    """search reads, ranks and writes one query row at a time: it holds the
    index and one query, whatever the number of queries."""

    def test_traced_peak_is_flat_in_the_number_of_queries(self, tmp_path):
        import tracemalloc

        rng = random.Random(28)
        words = [f"w{i}" for i in range(2000)]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(jsonl(*({**DOC_ROW, "doc_id": f"d{i}", "text": text, "paragraphs": [[0, len(text)]]}
                                  for i, text in enumerate(" ".join(rng.choices(words, k=200)) for _ in range(200)))))
        index = tmp_path / "docs.idx"
        assert main(["index", str(corpus), str(index), "--unit", "document"]) == 0
        sizes = (20, 2000)
        for n in sizes:
            rows = ({"query_id": f"q{i}", "masked_text": " ".join(rng.choices(words, k=100))} for i in range(n))
            (tmp_path / f"q{n}.jsonl").write_text(jsonl(*rows))

        def search(n: int) -> None:
            argv = ["search", str(index), str(tmp_path / f"q{n}.jsonl"), str(tmp_path / f"run{n}.trec"), "--k", "10"]
            assert main(argv) == 0

        search(sizes[0])  # imports numpy and retrieval before tracing
        peaks = []
        for n in sizes:
            tracemalloc.start()
            try:
                search(n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(read_trec_run(tmp_path / f"run{sizes[1]}.trec")) == sizes[1]
        # What remains per query is its id, in the reader's duplicate check.
        assert (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) < 256


class TestEvalRetrieval:
    def test_recall_at_1_is_hand_counted(self, tmp_path, capsys):
        # q1's positive is ranked first, q2's second.
        run = tmp_path / "run.trec"
        run.write_text("q1 Q0 a 1 2.0 t\nq1 Q0 b 2 1.0 t\nq2 Q0 x 1 2.0 t\nq2 Q0 b 2 1.0 t\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 a 1\nq2 0 b 1\n")
        out = tmp_path / "report.json"
        assert main(["eval-retrieval", str(run), str(qrels), "--k", "1", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert {qid: row["recall@1"] for qid, row in report["per_query"].items()} == {"q1": 1.0, "q2": 0.0}
        assert report["macro"]["recall@1"] == 0.5
        assert json.loads(Path(f"{out}.manifest.json").read_text())["counts"]["recall@1"] == 0.5


def jsonl(*rows) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


def index_bytes(units) -> bytes:
    """The bytes of a passage index over (unit_id, text) pairs, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "units.idx"
        save_index(build_index(units), path)
        return path.read_bytes()


GENSET_ROW = {
    "instance_id": "d:p3", "doc_id": "d", "t": 3, "prefix": "A.\nB.", "gold": "C.",
    "cited_keys": ["1 U.S. 1"], "references": [], "prompt_with_refs": "p", "prompt_without_refs": "p",
}
PASSAGE_ROW = {"passage_id": "d#0", "doc_id": "d", "word_start": 0, "word_end": 1, "text": "word"}
DOC_ROW = {"doc_id": "d", "title": "", "reporter_cite": "", "text": "word", "paragraphs": [[0, 4]]}


class TestDataErrors:
    """A malformed input file is a data error: exit 2, the message names the
    file, and every output of the command is removed.  ``files`` are written
    to the work directory; the first one is the malformed file."""

    @pytest.mark.parametrize("argv, files", [
        (["index", "{d}/passages.jsonl", "{o}"], {"passages.jsonl": jsonl(PASSAGE_ROW, PASSAGE_ROW)}),
        (["index", "{d}/corpus.jsonl", "{o}", "--unit", "document"], {"corpus.jsonl": jsonl(DOC_ROW, DOC_ROW)}),
        (["density", "{d}/corpus.jsonl", "{o}"], {"corpus.jsonl": ""}),
        (["eval-generation", "{d}/genset.jsonl", "{d}/gens.jsonl", "--output", "{o}"],
         {"genset.jsonl": jsonl({k: v for k, v in GENSET_ROW.items() if k != "cited_keys"}), "gens.jsonl": ""}),
        (["parse-citations", "{w}/corpus.jsonl", "{o}", "--labeled-sample", "{d}/labeled.jsonl"],
         {"labeled.jsonl": jsonl({"text": "short", "citation_start": 10, "citation_end": 20,
                                  "sentence_start": 0, "sentence_end": 5})}),
        (["build-queries", "{w}/corpus.jsonl", "{o}", "{d}/qrels.txt", "--reporters", "{d}/rep.json"],
         {"rep.json": '{"U.S.": '}),
        (["eval-retrieval", "{w}/run.trec", "{d}/qrels.txt", "--output", "{o}"], {"qrels.txt": "q1 0 d1 yes\n"}),
        (["eval-retrieval", "{d}/run.trec", "{w}/qrels.txt", "--output", "{o}"],
         {"run.trec": "q1 Q0 d1 1 high bm25\n"}),
        (["search", "{w}/docs.idx", "{d}/queries.jsonl", "{o}"], {"queries.jsonl": jsonl({"masked_text": "words"})}),
        (["search", "{w}/docs.idx", "{d}/queries.jsonl", "{o}"], {"queries.jsonl": jsonl({"query_id": "q1"})}),
        (["search-quotes", "{w}/corpus.jsonl", "{d}/quotes.jsonl", "{o}", "--unit", "document"],
         {"quotes.jsonl": jsonl({"query_id": "q1"})}),
        (["eval-generation", "{d}/genset.jsonl", "{d}/gens.jsonl", "--output", "{o}"],
         {"gens.jsonl": jsonl({"output_text": "x"}), "genset.jsonl": jsonl(GENSET_ROW)}),
        # A TypeError traceback, exit 1, before DataError.
        (["index", "{d}/corpus.jsonl", "{o}", "--unit", "document"], {"corpus.jsonl": "[1, 2]\n"}),
        (["eval-generation", "{d}/genset.jsonl", "{d}/gens.jsonl", "--output", "{o}"],
         {"gens.jsonl": jsonl({"instance_id": "d:p3", "output_text": 5}), "genset.jsonl": jsonl(GENSET_ROW)}),
        # An id holding whitespace: search used to exit 0 and write the run
        # row "q 1 Q0 ...", which eval-retrieval then could not read.
        (["search", "{w}/docs.idx", "{d}/queries.jsonl", "{o}"],
         {"queries.jsonl": jsonl({"query_id": "q 1", "masked_text": "words"})}),
        (["search-quotes", "{w}/corpus.jsonl", "{d}/quotes.jsonl", "{o}", "--unit", "document"],
         {"quotes.jsonl": jsonl({"query_id": "q\t1", "quote": "summary judgment"})}),
        (["index", "{d}/corpus.jsonl", "{o}", "--unit", "document"], {"corpus.jsonl": jsonl({**DOC_ROW, "doc_id": "a b"})}),
        (["index", "{d}/passages.jsonl", "{o}"], {"passages.jsonl": jsonl({**PASSAGE_ROW, "passage_id": "d #0"})}),
        (["chunk", "{d}/corpus.jsonl", "{o}"], {"corpus.jsonl": b"\xff\xfe not utf-8\n"}),
        (["stats", "{w}/corpus.jsonl", "--genset", "{d}/genset.jsonl"],
         {"genset.jsonl": jsonl({**GENSET_ROW, "prompt_with_refs": 5})}),
        (["eval-generation", "{d}/genset.jsonl", "{d}/gens.jsonl", "--output", "{o}"],
         {"genset.jsonl": jsonl({**GENSET_ROW, "cited_keys": []}), "gens.jsonl": ""}),
        (["build-queries", "{w}/corpus.jsonl", "{o}", "{d}/qrels.txt", "--reporters", "{d}/rep.json"],
         {"rep.json": '["U.S."]'}),
        # Genset and generations rows follow the id rule of every id-keyed
        # reader: a repeat used to score only the later row, a list id died
        # with a TypeError (exit 1), and an id with a space went unmatched.
        (["eval-generation", "{d}/genset.jsonl", "{d}/gens.jsonl", "--output", "{o}"],
         {"genset.jsonl": jsonl(GENSET_ROW, GENSET_ROW), "gens.jsonl": ""}),
        (["eval-generation", "{d}/genset.jsonl", "{d}/gens.jsonl", "--output", "{o}"],
         {"genset.jsonl": jsonl({**GENSET_ROW, "instance_id": ["d:p3"]}), "gens.jsonl": ""}),
        (["eval-generation", "{d}/genset.jsonl", "{d}/gens.jsonl", "--output", "{o}"],
         {"gens.jsonl": jsonl({"instance_id": ["d:p3"], "output_text": "x"}), "genset.jsonl": jsonl(GENSET_ROW)}),
        (["eval-generation", "{d}/genset.jsonl", "{d}/gens.jsonl", "--output", "{o}"],
         {"gens.jsonl": jsonl({"instance_id": "d: p3", "output_text": "x"}), "genset.jsonl": jsonl(GENSET_ROW)}),
        (["eval-generation", "{d}/genset.jsonl", "{d}/gens.jsonl", "--compare", "{d}/cmp.jsonl", "--output", "{o}"],
         {"cmp.jsonl": jsonl({"instance_id": "d:p3"}, {"instance_id": "d:p3"}), "genset.jsonl": jsonl(GENSET_ROW),
          "gens.jsonl": ""}),
        # A unit ranked twice for a query counted twice: nDCG@10 read 1.6309.
        (["eval-retrieval", "{d}/run.trec", "{w}/qrels.txt", "--output", "{o}"],
         {"run.trec": "q1 Q0 d1 1 1.0 t\nq1 Q0 d1 2 0.5 t\n"}),
        # A unit judged twice for a query: the later judgment won, so d1 counted relevant.
        (["eval-retrieval", "{w}/run.trec", "{d}/qrels.txt", "--output", "{o}"], {"qrels.txt": "q1 0 d1 0\nq1 0 d1 1\n"}),
        # A non-string reporter_cite died with a TypeError (exit 1), and a
        # list title was taken as given.
        (["build-queries", "{d}/corpus.jsonl", "{o}", "{d}/qrels.txt"],
         {"corpus.jsonl": jsonl({**DOC_ROW, "reporter_cite": 5})}),
        (["build-genset", "{d}/corpus.jsonl", "{o}"], {"corpus.jsonl": jsonl({**DOC_ROW, "reporter_cite": 5})}),
        (["build-genset", "{d}/corpus.jsonl", "{o}"], {"corpus.jsonl": jsonl({**DOC_ROW, "title": ["A v. B"]})}),
        # Paragraph spans that do not partition the text exited 0.
        (["build-queries", "{d}/corpus.jsonl", "{o}", "{d}/qrels.txt"],
         {"corpus.jsonl": jsonl({**DOC_ROW, "paragraphs": [[-5, 3]]})}),
        (["build-genset", "{d}/corpus.jsonl", "{o}"], {"corpus.jsonl": jsonl({**DOC_ROW, "paragraphs": [[0, 500]]})}),
        (["density", "{d}/corpus.jsonl", "{o}"], {"corpus.jsonl": jsonl({**DOC_ROW, "paragraphs": [[12, 0]]})}),
        # A span across a newline was one paragraph to density and two to the citation layer.
        (["density", "{d}/corpus.jsonl", "{o}"],
         {"corpus.jsonl": jsonl({**DOC_ROW, "text": "one\ntwo", "paragraphs": [[0, 7]]})}),
        # Document a's passages are apart, as only a hand-written passages file has them.
        (["search", "{d}/passages.idx", "{w}/queries.jsonl", "{o}", "--maxp"],
         {"passages.idx": index_bytes([("a#0", "word"), ("b#0", "word"), ("a#1", "word")])}),
    ], ids=[
        "index-duplicate-passage-ids", "index-duplicate-doc-ids", "density-empty-corpus",
        "genset-without-cited-keys", "labeled-span-outside-text", "reporters-malformed-json",
        "qrels-non-numeric-relevance", "run-non-numeric-score", "queries-without-query-id",
        "queries-without-masked-text", "quotes-without-quote", "generations-without-instance-id",
        "corpus-row-not-an-object", "generation-output-not-a-string",
        "query-id-with-space", "quote-id-with-tab", "doc-id-with-space", "passage-id-with-space",
        "corpus-not-utf8", "genset-prompt-not-a-string", "genset-empty-cited-keys", "reporters-not-an-object",
        "genset-repeated-instance-id", "genset-instance-id-a-list", "generations-instance-id-a-list",
        "generation-id-with-space", "compare-repeated-instance-id",
        "run-repeats-a-unit", "qrels-repeats-a-unit", "queries-reporter-cite-not-a-string", "genset-reporter-cite-not-a-string",
        "genset-title-a-list", "queries-span-before-text", "genset-span-past-text", "density-span-reversed",
        "density-span-across-a-newline",
        "search-maxp-document-split-up",
    ])
    def test_exits_2(self, searchable, tmp_path, capsys, argv, files):
        for name, content in files.items():
            path = tmp_path / name
            path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
        rc = main([a.format(w=searchable, d=tmp_path, o=tmp_path / "out") for a in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert str(tmp_path / next(iter(files))) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)

    @pytest.mark.parametrize("command, content, message", [
        (["index"], "", "no units in {p}"),
        (["index"], jsonl(PASSAGE_ROW, {**PASSAGE_ROW, "passage_id": "d#1"}) + "{\n", "{p}:3: malformed JSON"),
        (["chunk"], jsonl(DOC_ROW) + "{\n", "{p}:2: malformed JSON"),
        (["search", "{w}/docs.idx"], jsonl({"query_id": "q1", "masked_text": "summary judgment"},
                                           {"query_id": "q2", "masked_text": "court"}) + "{\n",
         "{p}:3: malformed JSON"),
    ], ids=["index-empty", "index-malformed-after-valid-rows", "chunk-malformed-after-valid-rows",
            "search-malformed-after-written-rows"])
    def test_streamed_input_error_names_file_and_line(self, searchable, tmp_path, capsys, command, content, message):
        """index, chunk and search stream their input: a bad row after good
        ones stops them part-way, after search has ranked and written the
        good ones, and neither output nor manifest is left behind."""
        path = tmp_path / "in.jsonl"
        path.write_text(content)
        assert main([*(a.format(w=searchable) for a in command), str(path), str(tmp_path / "out")]) == 2
        assert message.format(p=path) in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["in.jsonl"]

    @pytest.mark.parametrize("target", ["build_queries", "write_qrels"])
    def test_injected_key_error_propagates(self, searchable, tmp_path, monkeypatch, target):
        """A bug is not bad data: it surfaces as itself, and the outputs the
        command declared are removed."""
        def bug(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(f"casebench.queries.{target}", bug)
        out = tmp_path / "queries.jsonl"
        with pytest.raises(KeyError, match="bug"):
            main(["build-queries", str(searchable / "corpus.jsonl"), str(out), str(tmp_path / "qrels.txt")])
        assert list(tmp_path.iterdir()) == []


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def subcommands() -> set[str]:
    return set(subparsers())


def listed_keys(argv) -> tuple[str, ...]:
    """The config keys the command run by ``argv`` reads."""
    return build_parser().parse_args(argv).config_keys


# A successful run of every subcommand on ``every_input``'s files, writing
# under a directory that does not exist yet.
EVERY_COMMAND = [
    ["ingest", "{d}/raw.jsonl", "{d}/out/corpus.jsonl"],
    ["chunk", "{d}/corpus.jsonl", "{d}/out/passages.jsonl"],
    ["parse-citations", "{d}/corpus.jsonl", "{d}/out/c.jsonl", "--quotes-out", "{d}/out/quotes.jsonl"],
    ["build-queries", "{d}/corpus.jsonl", "{d}/out/q.jsonl", "{d}/out/q.txt", "--passage-qrels", "{d}/out/pq.txt"],
    ["--config", "{d}/run.cfg", "build-genset", "{d}/corpus.jsonl", "{d}/out/genset.jsonl"],
    ["index", "{d}/corpus.jsonl", "{d}/out/docs.idx", "--unit", "document"],
    ["search", "{d}/docs.idx", "{d}/queries.jsonl", "{d}/out/run.trec", "--k", "5"],
    ["search-quotes", "{d}/corpus.jsonl", "{d}/quotes.jsonl", "{d}/out/quotes.trec", "--unit", "document", "--k", "5"],
    ["eval-retrieval", "{d}/run.trec", "{d}/qrels.txt", "--output", "{d}/out/report.json"],
    ["eval-generation", "{d}/genset.jsonl", "{d}/gens.jsonl", "--compare", "{d}/gens2.jsonl",
     "--output", "{d}/out/gen.json"],
    ["density", "{d}/corpus.jsonl", "{d}/out/density.json"],
    ["stats", "{d}/corpus.jsonl", "--queries", "{d}/queries.jsonl"],
]


def command_of(argv) -> str:
    return argv[2] if argv[0] == "--config" else argv[0]


class TestOutputFiles:
    """``main`` names every file a command writes before the command runs:
    it refuses a clash before reading anything, and a failed command leaves
    none of the paths it names."""

    @pytest.mark.parametrize("config", [None, "bad.cfg"])
    def test_refusal_reads_nothing(self, tmp_path, capsys, config):
        # The corpus used to be read first: exit 2 on its bad row.  So was
        # the config file: exit 1 on its unknown key.
        bad = tmp_path / "BAD.jsonl"
        bad.write_text("{not json\n")
        (tmp_path / "bad.cfg").write_text("not_a_key = 1\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        argv = ["build-queries", str(bad), str(bad), str(tmp_path / "q.txt")]
        assert main((["--config", str(tmp_path / config)] if config else []) + argv) == 1
        assert "build-queries would overwrite its input" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failure_removes_stale_outputs(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(jsonl({**DOC_ROW, "reporter_cite": 5}))
        before = corpus.read_bytes()
        for name in ("q.jsonl", "q.jsonl.manifest.json"):
            (tmp_path / name).write_text("left by an earlier run\n")
        assert main(["build-queries", str(corpus), str(tmp_path / "q.jsonl"), str(tmp_path / "q.txt")]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]
        assert corpus.read_bytes() == before

    def test_failure_removes_the_directories_main_made(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        (tmp_path / "kept").mkdir()
        out = tmp_path / "kept" / "new" / "sub"
        assert main(["build-queries", str(bad), str(out / "q.jsonl"), str(out / "q.txt")]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.jsonl", "kept"]

    def test_every_subcommand_is_run_below(self):
        assert {command_of(argv) for argv in EVERY_COMMAND} == subcommands()

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=[command_of(argv) for argv in EVERY_COMMAND])
    def test_command_writes_exactly_the_paths_main_names(self, every_input, tmp_path, capsys, argv):
        for src in every_input.iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        before = {p for p in tmp_path.rglob("*") if p.is_file()}
        argv = [a.format(d=tmp_path) for a in argv]
        assert main(argv) == 0
        args = build_parser().parse_args(argv)
        named = [Path(getattr(args, dest)) for dest in OUTPUT_PATHS[1:] if getattr(args, dest, None) is not None]
        if named:
            named.append(Path(f"{named[0]}.manifest.json"))
        assert {p for p in tmp_path.rglob("*") if p.is_file()} - before == set(named)
        assert {p.name: p.read_bytes() for p in before} == {p.name: (every_input / p.name).read_bytes() for p in before}


# EVERY_COMMAND's runs that write a manifest, without a config file.
MANIFEST_COMMANDS = [argv[2:] if argv[0] == "--config" else argv for argv in EVERY_COMMAND if argv[0] != "stats"]

# A value for every config key, in its range and unlike its default.
NON_DEFAULTS = {
    "window": 100, "stride": 50, "query_window": "100,200", "bm25_k1": 0.9, "bm25_b": 0.5, "ngram_n": 7,
    "seed": 3, "salient_k": 3, "word_budget": 500, "per_doc": 2, "include_references_in_substring_check": True,
}


def manifest_of(work, argv, name, config=None) -> bytes:
    """Run ``argv`` on ``work``'s files, its outputs under ``work/name`` and
    ``config`` as its config file; return the manifest's bytes."""
    argv = [a.replace("{d}/out/", "{d}/" + name + "/").format(d=work) for a in argv]
    if config is not None:
        (work / f"{name}.cfg").write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        argv = ["--config", str(work / f"{name}.cfg"), *argv]
    assert main(argv) == 0
    args = build_parser().parse_args(argv)
    first = next(getattr(args, dest) for dest in OUTPUT_PATHS[1:] if getattr(args, dest, None) is not None)
    return Path(f"{first}.manifest.json").read_bytes()


class TestConfigKeys:
    """A manifest records every key its command lists at its effective
    value, defaults included, and no key the command does not list."""

    def test_every_key_is_listed_by_some_command(self):
        assert {key for argv in EVERY_COMMAND for key in listed_keys(argv)} == set(CONFIG_KEYS)

    def test_each_default_is_the_library_default_it_feeds(self):
        # seed and per_doc were written out here and in build_genset's signature.
        from casebench import corpus, genset, metrics, queries, retrieval

        feeds = {
            "window": (corpus.chunk_document, "window"),
            "stride": (corpus.chunk_document, "stride"),
            "query_window": (queries.build_queries, "window_words"),
            "bm25_k1": (retrieval.bm25_search, "k1"),
            "bm25_b": (retrieval.bm25_search, "b"),
            "seed": (genset.build_genset, "seed"),
            "per_doc": (genset.build_genset, "per_doc"),
            "salient_k": (genset.build_genset, "salient_k"),
            "word_budget": (genset.build_genset, "word_budget"),
            "include_references_in_substring_check": (metrics.score_generation_run,
                                                      "include_references_in_substring_check"),
        }
        # NgramIndex takes its shingle length with no default.
        assert inspect.signature(retrieval.NgramIndex).parameters["n"].default is inspect.Parameter.empty
        assert set(feeds) == set(CONFIG_KEYS) - {"ngram_n"}
        for key, (func, param) in feeds.items():
            default = CONFIG_KEYS[key].default
            if key == "query_window":
                default = tuple(map(int, default.split(",")))
            assert default == inspect.signature(func).parameters[param].default, key
        ks = build_parser().parse_args(["eval-retrieval", "run", "qrels"]).k
        assert tuple(map(int, ks.split(","))) == inspect.signature(metrics.evaluate_run).parameters["ks"].default

    @pytest.mark.parametrize("argv", MANIFEST_COMMANDS, ids=[argv[0] for argv in MANIFEST_COMMANDS])
    def test_spelled_out_defaults_write_the_bare_manifest(self, every_input, tmp_path, capsys, argv):
        # chunk --window 350 --stride 175 used to record both, and the bare run neither.
        for src in every_input.iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        # Flags that take a key's value; a store_true flag cannot spell False.
        flags = {a.dest: a.option_strings[0] for a in subparsers()[argv[0]]._actions
                 if a.dest in CONFIG_KEYS and a.nargs != 0}
        assert set(flags) <= set(listed_keys(argv))
        spelled, config = [], {}
        for key in listed_keys(argv):
            if key in flags:
                spelled += [flags[key], str(CONFIG_KEYS[key].default)]
            else:
                config[key] = CONFIG_KEYS[key].default
        assert manifest_of(tmp_path, argv + spelled, "spelled", config) == manifest_of(tmp_path, argv, "bare")

    @pytest.mark.parametrize("argv", MANIFEST_COMMANDS, ids=[argv[0] for argv in MANIFEST_COMMANDS])
    def test_unlisted_keys_leave_the_manifest_alone(self, every_input, tmp_path, capsys, argv):
        # index used to record every key a config file set, though it reads none.
        assert set(NON_DEFAULTS) == set(CONFIG_KEYS)
        assert all(value != CONFIG_KEYS[key].default for key, value in NON_DEFAULTS.items())
        for src in every_input.iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        unlisted = {key: value for key, value in NON_DEFAULTS.items() if key not in listed_keys(argv)}
        assert manifest_of(tmp_path, argv, "unlisted", unlisted) == manifest_of(tmp_path, argv, "bare")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_query_window_is_recorded_as_parsed(self, every_input, tmp_path, capsys, source):
        # --window-words 0300 used to record "0300", so its config_hash was not the default run's.
        for src in every_input.iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        argv = ["build-queries", "{d}/corpus.jsonl", "{d}/out/q.jsonl", "{d}/out/q.txt"]

        def manifest(spelling, name):
            if source == "flag":
                return manifest_of(tmp_path, [*argv, "--window-words", spelling], name)
            return manifest_of(tmp_path, argv, name, {"query_window": spelling})

        assert manifest("0300", "padded") == manifest_of(tmp_path, argv, "bare")
        assert json.loads(manifest("0100, +300", "list"))["config"]["query_window"] == "100,300"

    def test_build_queries_lists_chunking_only_with_passage_qrels(self, every_input, tmp_path, capsys):
        # window and stride used to be recorded, though only --passage-qrels reads them.
        for src in every_input.iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        argv = ["build-queries", "{d}/corpus.jsonl", "{d}/out/q.jsonl", "{d}/out/q.txt"]
        chunking = {"window": 100, "stride": 50}
        assert manifest_of(tmp_path, argv, "chunked", chunking) == manifest_of(tmp_path, argv, "bare")
        derived = [*argv, "--passage-qrels", "{d}/out/pq.txt"]
        assert json.loads(manifest_of(tmp_path, derived, "derived", chunking))["config"] == {
            "view": "single-removed", "kind": "both", "query_window": "300", **chunking,
        }


# Runs each stage's argv in turn in one interpreter and records, after the
# import and after every stage, its exit code and whether numpy is loaded.
_STAGES_SCRIPT = """
import json, sys
from casebench.cli import main
seen = [["import", 0, "numpy" in sys.modules]]
for name, argv in json.loads(sys.argv[1]):
    seen.append([name, main(argv), "numpy" in sys.modules])
with open(sys.argv[2], "w") as f:
    json.dump(seen, f)
"""


def command_argv(command: str, searchable: Path, out: Path) -> list[str]:
    """A run of ``command`` over ``searchable``'s files, writing into ``out``."""
    return {
        "ingest": ["ingest", str(mini_corpus_path()), str(out / "corpus.jsonl")],
        "chunk": ["chunk", str(searchable / "corpus.jsonl"), str(out / "passages.jsonl")],
        "build-queries": ["build-queries", str(searchable / "corpus.jsonl"), str(out / "q.jsonl"), str(out / "q.txt")],
        "index": ["index", str(searchable / "corpus.jsonl"), str(out / "docs.idx"), "--unit", "document"],
        "search": ["search", str(searchable / "docs.idx"), str(searchable / "queries.jsonl"),
                   str(out / "run.trec"), "--k", "5"],
        "search-quotes": ["search-quotes", str(searchable / "corpus.jsonl"), str(searchable / "quotes.jsonl"),
                          str(out / "quotes.trec"), "--unit", "document"],
        "eval-retrieval": ["eval-retrieval", str(searchable / "run.trec"), str(searchable / "qrels.txt"),
                           "--output", str(out / "retrieval.json")],
        # every_input's files.
        "density": ["density", str(searchable / "corpus.jsonl"), str(out / "density.json")],
        "eval-generation": ["eval-generation", str(searchable / "genset.jsonl"), str(searchable / "gens.jsonl"),
                            "--output", str(out / "generation.json")],
    }[command]


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(casebench.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# Runs one command and records its exit code, the casebench modules loaded,
# and OPENBLAS_NUM_THREADS as numpy's import found it (None: never imported).
_IMPORTS_SCRIPT = """
import json, os, sys
seen = {"blas_at_numpy_import": None}

class NumpySpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen["blas_at_numpy_import"] = os.environ.get("OPENBLAS_NUM_THREADS")

sys.meta_path.insert(0, NumpySpy())
from casebench.cli import main
seen["exit"] = main(json.loads(sys.argv[1]))
seen["modules"] = sorted(m for m in sys.modules if m.split(".")[0] == "casebench")
with open(sys.argv[2], "w") as f:
    json.dump(seen, f)
"""


class TestNumpyOnlyWhereBM25Runs:
    def test_stages_without_bm25_never_import_numpy(self, searchable, tmp_path):
        genset = tmp_path / "genset.jsonl"
        gens = tmp_path / "gens.jsonl"
        assert main(["build-genset", str(searchable / "corpus.jsonl"), str(genset)]) == 0
        write_gold_generations(genset, gens)
        w = tmp_path / "w"
        w.mkdir()
        raw = w / "raw.jsonl"
        raw.write_bytes(Path(str(mini_corpus_path())).read_bytes())
        corpus = str(w / "corpus.jsonl")
        stages = [
            ("ingest", ["ingest", str(raw), corpus]),
            ("chunk", ["chunk", corpus, str(w / "passages.jsonl")]),
            ("parse-citations", ["parse-citations", corpus, str(w / "c.jsonl"), "--quotes-out", str(w / "quotes.jsonl")]),
            ("build-queries", ["build-queries", corpus, str(w / "queries.jsonl"), str(w / "qrels.txt")]),
            ("density", ["density", corpus, str(w / "density.json")]),
            ("build-genset", ["build-genset", corpus, str(w / "genset.jsonl")]),
            ("search-quotes", ["search-quotes", corpus, str(w / "quotes.jsonl"), str(w / "quotes.trec"), "--unit", "document"]),
            ("eval-retrieval", ["eval-retrieval", str(searchable / "run.trec"), str(w / "qrels.txt"),
                                "--output", str(w / "retrieval.json")]),
            ("eval-generation", ["eval-generation", str(genset), str(gens), "--output", str(w / "generation.json")]),
            ("index", ["index", corpus, str(w / "docs.idx"), "--unit", "document"]),
        ]
        seen = w / "seen.json"
        proc = subprocess.run(
            [sys.executable, "-c", _STAGES_SCRIPT, json.dumps(stages), str(seen)],
            env=fresh_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        # index runs last: it must load numpy, or the guard could not fail.
        assert [tuple(row) for row in json.loads(seen.read_text())] == (
            [("import", 0, False)] + [(name, 0, False) for name, _ in stages[:-1]] + [("index", 0, True)]
        )

    @pytest.mark.parametrize("command, extra, blas", [
        ("ingest", (), None),
        ("chunk", (), None),
        ("build-queries", ("citations", "data", "queries"), None),
        ("index", ("retrieval",), "1"),
        ("search", ("retrieval",), "1"),
        ("search", ("retrieval",), "3"),
        ("search-quotes", ("retrieval",), None),
        ("density", ("citations", "data", "genset"), None),
        ("eval-retrieval", ("metrics", "retrieval"), None),
        ("eval-generation", ("citations", "data", "genset", "metrics"), None),
    ], ids=["ingest", "chunk", "build-queries", "index", "search", "search-caller-threads", "search-quotes",
            "density", "eval-retrieval", "eval-generation"])
    def test_each_command_imports_only_what_it_runs(self, every_input, tmp_path, command, extra, blas):
        """In a fresh interpreter, a command loads only its own casebench
        modules, and numpy, where it loads, starts with one BLAS thread
        unless the caller chose a count.  Layer modules import the layers
        that only some of their functions use inside those functions."""
        argv = command_argv(command, every_input, tmp_path)
        env = fresh_env()
        # main() sets the variable in this process too.
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas == "3":
            env["OPENBLAS_NUM_THREADS"] = blas
        seen = tmp_path / "seen.json"
        proc = subprocess.run([sys.executable, "-c", _IMPORTS_SCRIPT, json.dumps(argv), str(seen)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(seen.read_text()) == {
            "exit": 0,
            "modules": sorted(["casebench", "casebench.cli", "casebench.corpus", *(f"casebench.{m}" for m in extra)]),
            "blas_at_numpy_import": blas,
        }


# Records whether OpenSSL's hashlib backend is loaded when the command's
# cmd_* function returns, and when main returns.
_OPENSSL_SCRIPT = """
import json, sys
import casebench.cli as cli
argv = json.loads(sys.argv[1])
name = "cmd_" + argv[0].replace("-", "_")
run = getattr(cli, name)
seen = {}

def spy(args, cfg):
    counts = run(args, cfg)
    seen["at_return"] = "_hashlib" in sys.modules
    return counts

setattr(cli, name, spy)
seen["exit"] = cli.main(argv)
seen["at_exit"] = "_hashlib" in sys.modules
with open(sys.argv[2], "w") as f:
    json.dump(seen, f)
"""


class TestOpenSSLOnlyForTheManifest:
    @pytest.mark.parametrize("command", ["ingest", "chunk", "index", "search"])
    def test_work_ends_before_openssl_loads(self, searchable, tmp_path, command):
        """A command's peak RSS does not hold OpenSSL's pages on top of its
        work: hashlib loads only when the manifest is written, after it."""
        seen = tmp_path / "seen.json"
        argv = command_argv(command, searchable, tmp_path)
        proc = subprocess.run([sys.executable, "-c", _OPENSSL_SCRIPT, json.dumps(argv), str(seen)],
                              env=fresh_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # Loaded at exit: the manifest hashes, so the guard could fail.
        assert json.loads(seen.read_text()) == {"exit": 0, "at_return": False, "at_exit": True}


class TestLazyPackage:
    def test_public_names_resolve_to_their_modules_objects(self):
        for name in casebench.__all__:
            module = importlib.import_module(f"casebench.{casebench._EXPORTS[name]}")
            assert getattr(casebench, name) is getattr(module, name)
        assert set(casebench.__all__) <= set(dir(casebench))
        with pytest.raises(AttributeError, match="no_such_name"):
            casebench.no_such_name

    @staticmethod
    def fresh(script: str) -> str:
        """``script``'s stdout, run in a new interpreter on this checkout."""
        src = str(Path(casebench.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_import_loads_no_module(self):
        script = "import sys, casebench; print(sorted(m for m in sys.modules if m.split('.')[0] == 'casebench'))"
        assert self.fresh(script) == "['casebench']\n"

    def test_modules_resolve_as_attributes(self):
        # The readers and evaluate_run are reached only through their modules.
        script = (
            "import casebench as cb\n"
            "print(cb.metrics.evaluate_run.__module__, cb.corpus.read_corpus_jsonl.__module__)\n"
            "print(all(getattr(cb, m).__name__ == f'casebench.{m}' for m in set(cb._EXPORTS.values())))\n"
        )
        assert self.fresh(script) == "casebench.metrics casebench.corpus\nTrue\n"


def readme_blocks(lang: str) -> list[str]:
    """The bodies of README's fenced ``lang`` blocks, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{lang}\n(.*?)```", readme, re.S)


def readme_commands() -> list[list[str]]:
    """The arguments of each ``casebench`` command in README's shell blocks,
    continuation lines joined."""
    commands = []
    for block in readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("casebench "):
                commands.append(shlex.split(line)[1:])
    return commands


class TestReadme:
    def test_shell_examples_name_every_subcommand_and_parse(self):
        parser = build_parser()
        commands = readme_commands()
        assert {argv[0] for argv in commands} == subcommands()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: casebench {shlex.join(argv)}")

    def test_python_block_runs(self, tmp_path, monkeypatch):
        """The library example runs as written, in a directory holding no
        ``corpus.jsonl``: it prints the error it catches."""
        (block,) = readme_blocks("python")
        monkeypatch.chdir(tmp_path)
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
