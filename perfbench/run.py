"""Pipeline benchmark for casebench.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The benchmark generates the
workload's inputs from the seed, then runs the workload's CLI chain over
and over for ``--seconds`` seconds, one ``casebench`` subprocess per stage,
stages in sequence, as a user would.  It checks the outputs of the first
chain against naive oracles and the bytes of every later chain against the
first, prints every metric by name and unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts stage runs and output checks; ``failed`` counts stages
that exit non-zero and checks that fail.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
chains of the run.  With ``--trace 1`` the chain runs instead inside one
process (``perfbench/tracer.py``), alternately untraced and traced, and the
metrics are the per-layer ones; the span file and every derived per-layer
metric are written under ``.perfbench_work/trace/``.

Nothing runs in parallel: the closed loop has one client.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

# Set up at least this often, and for at least this long, per run; the
# median is reported.
SETUP_REPS = 3
SETUP_MIN_S = 3.0
WINDOW, STRIDE = 350, 175  # the CLI's default passage chunking
SEARCH_K = 100
QUOTE_K = 100
SAMPLED_QUERIES = 5
SAMPLED_QUOTES = 20
SAMPLED_INSTANCES = 5

# name -> (unit, better).  The two throughput metrics count each
# workload's own work items; see ITEM_NAMES.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "primary_items_per_s": ("1/s", "higher"),
    "secondary_items_per_s": ("1/s", "higher"),
}
ITEM_NAMES = {
    "construct": ("centrals_per_s", "instances_per_s"),
    "search": ("queries_per_s", "index_units_per_s"),
    "quotes-score": ("quotes_per_s", "generations_per_s"),
}

# Per-layer metrics printed on every workload with --trace 1.  Times are
# listed only where every workload does the work; layer shares, counts and
# ratios may be zero where a workload does not use the layer.  The full
# set, workload-specific timings included, goes to the trace report.
PER_LAYER = {
    "cli.stage_wall_s": ("s", "lower"),
    "cli.stage_cpu_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.manifest_s": ("s", "lower"),
    "corpus.load_s": ("s", "lower"),
    "cli.self_frac": ("ratio", "lower"),
    "corpus.self_frac": ("ratio", "lower"),
    "citations.self_frac": ("ratio", "lower"),
    "queries.self_frac": ("ratio", "lower"),
    "genset.self_frac": ("ratio", "lower"),
    "retrieval.self_frac": ("ratio", "lower"),
    "metrics.self_frac": ("ratio", "lower"),
    "corpus.tokenize_calls": ("count", "lower"),
    "corpus.words_tokenized_per_corpus_word": ("ratio", "lower"),
    "citations.find_calls": ("count", "lower"),
    "citations.chars_scanned_per_corpus_char": ("ratio", "lower"),
    "queries.built_frac": ("ratio", "higher"),
    "genset.salient_index_builds": ("count", "lower"),
    "retrieval.index_bytes_per_posting": ("B", "lower"),
    "retrieval.postings_per_query": ("count", "lower"),
    "retrieval.candidates_per_query": ("count", "lower"),
    "retrieval.topk_frac": ("ratio", "higher"),
    "retrieval.short_quote_fallbacks": ("count", "lower"),
    "metrics.lcs_cells": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Running stages
# ---------------------------------------------------------------------------

def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_stage(argv: list[str], cwd: Path, log: Path) -> dict:
    """One ``casebench`` subprocess; wall time from the parent, CPU time and
    peak RSS from the child's own rusage."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "casebench.cli", *argv],
            cwd=cwd, env=cli_env(), stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


def manifest_counts(out: Path, name: str) -> dict:
    with open(out / f"{name}.manifest.json", "r", encoding="utf-8") as f:
        return json.load(f)["counts"]


def digest_dir(d: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(d.iterdir())
        if p.is_file()
    }


def mini_records() -> list[dict]:
    return gen.read_jsonl(SRC / "casebench" / "data" / "mini_corpus.jsonl")


def corpus_size(corpus_path: Path) -> tuple[int, int]:
    words = chars = 0
    for doc in gen.read_jsonl(corpus_path):
        words += len(doc["text"].split())
        chars += len(doc["text"])
    return words, chars


def bucket_of(corpus_path: Path) -> dict[str, str]:
    """doc id -> length bucket; generated ids read "g<seed>-<bucket>-<n>"."""
    out = {}
    for doc in gen.read_jsonl(corpus_path):
        parts = doc["doc_id"].split("-")
        out[doc["doc_id"]] = parts[1] if doc["doc_id"].startswith("g") and len(parts) == 3 else "mini"
    return out


def reporter_finder() -> checks.CaseCiteFinder:
    with open(SRC / "casebench" / "data" / "reporters.json", "r", encoding="utf-8") as f:
        return checks.CaseCiteFinder(json.load(f))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs made by ``setup``, a timed chain of CLI stages, two
    throughput figures, and the output checks."""

    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, d: Path, log: Path) -> None:
        raise NotImplementedError

    def stages(self, s: str) -> list[tuple[str, list[str]]]:
        """(stage name, argv); ``s`` is the set-up directory relative to the
        chain's output directory."""
        raise NotImplementedError

    def throughput(self, out: Path, setup: Path, walls: dict[str, float]) -> tuple[float, float]:
        raise NotImplementedError

    def check(self, out: Path, setup: Path) -> dict[str, list[str]]:
        raise NotImplementedError

    def corpus_path(self, out: Path, setup: Path) -> Path:
        return setup / "corpus.jsonl"

    def built_frac(self, out: Path) -> float:
        """Share of central citations that became queries; 0 when the chain
        builds none."""
        return 0.0

    def _ingest_and_chunk(self, d: Path, log: Path, records: list[dict]) -> None:
        gen.write_jsonl(records, d / "raw.jsonl")
        for argv in (["ingest", "raw.jsonl", "corpus.jsonl"], ["chunk", "corpus.jsonl", "passages.jsonl"]):
            if run_stage(argv, d, log)["exit"] != 0:
                raise BenchError(f"set-up stage {argv[0]} failed; see {log}")


class Construct(Workload):
    name = "construct"
    why = (
        "Builds the benchmark from long opinions: queries and citations do most of the work, "
        "and their cost grows with document length."
    )
    # Document-length buckets of about 1k, 5k and 20k words.
    SPECS = [gen.DocSpec("1k", 1000, 16)] * 12 + [gen.DocSpec("5k", 5000, 16)] * 4 + [gen.DocSpec("20k", 20000, 16)]

    def setup(self, d, log):
        gen.write_jsonl(gen.generate_records(self.seed, mini_records(), self.SPECS), d / "raw.jsonl")

    def stages(self, s):
        return [
            ("ingest", ["ingest", f"{s}/raw.jsonl", "corpus.jsonl"]),
            ("chunk", ["chunk", "corpus.jsonl", "passages.jsonl"]),
            ("parse-citations", ["parse-citations", "corpus.jsonl", "citations.jsonl", "--quotes-out", "quotes.jsonl"]),
            ("build-queries", [
                "build-queries", "corpus.jsonl", "queries.jsonl", "qrels.txt",
                "--view", "single-removed,all-removed", "--kind", "both", "--passage-qrels", "passage_qrels.txt",
            ]),
            ("build-genset", ["build-genset", "corpus.jsonl", "genset.jsonl", "--seed", str(self.seed)]),
            ("density", ["density", "corpus.jsonl", "density.json"]),
        ]

    def throughput(self, out, setup, walls):
        q = manifest_counts(out, "queries.jsonl")
        g = manifest_counts(out, "genset.jsonl")
        return (
            q["centrals_considered"] / walls["build-queries"],
            (g["instances"] + g["skipped"]) / walls["build-genset"],
        )

    def corpus_path(self, out, setup):
        return out / "corpus.jsonl"

    def built_frac(self, out):
        c = manifest_counts(out, "queries.jsonl")
        return c["built"] / (2 * c["centrals_considered"])  # two views per central

    def check(self, out, setup):
        finder = reporter_finder()
        corpus = gen.read_jsonl(out / "corpus.jsonl")
        passages = gen.read_jsonl(out / "passages.jsonl")
        queries = gen.read_jsonl(out / "queries.jsonl")
        passage_doc = {p["passage_id"]: p["doc_id"] for p in passages}
        raw = gen.read_jsonl(setup / "raw.jsonl")
        return {
            "ingest keeps every record": [] if len(corpus) == len(raw) else [f"{len(corpus)} of {len(raw)} records"],
            "chunk coverage and overlap": checks.check_chunks(corpus, passages, WINDOW, STRIDE),
            "masking soundness": checks.check_masking(queries, finder),
            "qrels target is not the query's document": checks.check_qrels_not_self(
                queries, checks.read_qrels(out / "qrels.txt")
            ) + checks.check_qrels_not_self(queries, checks.read_qrels(out / "passage_qrels.txt"), passage_doc),
            "genset invariants": checks.check_genset(corpus, gen.read_jsonl(out / "genset.jsonl"), finder),
        }


class Search(Workload):
    name = "search"
    why = (
        "Lexical retrieval over a Zipf-vocabulary collection at two unit sizes: index build, load, "
        "scoring and top-k do the work, and query construction does none."
    )
    N_DOCS = 240
    N_QUERIES = 100

    def setup(self, d, log):
        # One document in ten carries citing paragraphs; the rest are
        # filler and plain mini-corpus paragraphs.
        specs = [gen.DocSpec("2k", 2000, 12 if i % 10 == 0 else 0) for i in range(self.N_DOCS)]
        self._ingest_and_chunk(d, log, gen.generate_records(self.seed, mini_records(), specs))
        from casebench import corpus, queries

        docs = corpus.read_corpus_jsonl(d / "corpus.jsonl")
        built, qrels, _ = queries.build_queries(docs, views=["single-removed", "all-removed"])
        pick = sorted(random.Random(self.seed).sample(range(len(built)), min(self.N_QUERIES, len(built))))
        queries.write_queries_jsonl([built[i] for i in pick], d / "queries.jsonl")
        queries.write_qrels([qrels[i] for i in pick], d / "qrels.txt")

    def stages(self, s):
        k = str(SEARCH_K)
        return [
            ("index-passage", ["index", f"{s}/passages.jsonl", "passages.idx", "--unit", "passage"]),
            ("index-document", ["index", f"{s}/corpus.jsonl", "docs.idx", "--unit", "document"]),
            ("search-document", ["search", "docs.idx", f"{s}/queries.jsonl", "run_doc.trec", "--k", k]),
            ("search-maxp", ["search", "passages.idx", f"{s}/queries.jsonl", "run_maxp.trec", "--k", k, "--maxp"]),
            ("eval-document", ["eval-retrieval", "run_doc.trec", f"{s}/qrels.txt", "--k", f"10,{k}",
                               "--output", "report_doc.json"]),
            ("eval-maxp", ["eval-retrieval", "run_maxp.trec", f"{s}/qrels.txt", "--k", f"10,{k}",
                           "--output", "report_maxp.json"]),
        ]

    def throughput(self, out, setup, walls):
        answered = sum(manifest_counts(out, f)["queries"] for f in ("run_doc.trec", "run_maxp.trec"))
        units = sum(manifest_counts(out, f)["units"] for f in ("passages.idx", "docs.idx"))
        return (
            answered / (walls["search-document"] + walls["search-maxp"]),
            units / (walls["index-passage"] + walls["index-document"]),
        )

    def check(self, out, setup):
        corpus = gen.read_jsonl(setup / "corpus.jsonl")
        passages = gen.read_jsonl(setup / "passages.jsonl")
        queries = gen.read_jsonl(setup / "queries.jsonl")
        qrels = checks.read_qrels(setup / "qrels.txt")
        passage_doc = {p["passage_id"]: p["doc_id"] for p in passages}
        sample = random.Random(self.seed).sample(queries, min(SAMPLED_QUERIES, len(queries)))
        docs = checks.NaiveBM25([(d["doc_id"], d["text"]) for d in corpus])
        psgs = checks.NaiveBM25([(p["passage_id"], p["text"]) for p in passages])
        run_doc = checks.read_run(out / "run_doc.trec")
        run_maxp = checks.read_run(out / "run_maxp.trec")
        doc_bad, maxp_bad = [], []
        for q in sample:
            own = {q["doc_id"]}
            doc_bad += checks.check_ranking(
                q["query_id"], run_doc.get(q["query_id"], []), docs.scores(q["masked_text"]), SEARCH_K, own, True
            )
            truth = checks.maxp_truth(psgs.scores(q["masked_text"]), passage_doc)
            maxp_bad += checks.check_ranking(
                q["query_id"], run_maxp.get(q["query_id"], []), truth, SEARCH_K, own, False
            )
        ks = [10, SEARCH_K]
        reports = {}
        for tag, run in (("doc", run_doc), ("maxp", run_maxp)):
            with open(out / f"report_{tag}.json", "r", encoding="utf-8") as f:
                reports[tag] = checks.check_retrieval_report(json.load(f), checks.brute_force_report(run, qrels, ks))
        return {
            "qrels target is not the query's document": checks.check_qrels_not_self(queries, qrels),
            "document BM25 rows match a full scan": doc_bad,
            "MaxP rows match a full scan of passages": maxp_bad,
            "document Recall/nDCG match brute force": reports["doc"],
            "MaxP Recall/nDCG match brute force": reports["maxp"],
        }


class QuotesScore(Workload):
    name = "quotes-score"
    why = (
        "Quote retrieval through the shingle dict and substring scans, and generation scoring, "
        "the only heavy use of ROUGE-L and the citation metrics."
    )
    SPECS = [gen.DocSpec("3k", 3000, 6)] * 48

    def setup(self, d, log):
        self._ingest_and_chunk(d, log, gen.generate_records(self.seed, mini_records(), self.SPECS))
        for argv in (
            ["parse-citations", "corpus.jsonl", "citations.jsonl", "--quotes-out", "quotes.jsonl"],
            ["build-genset", "corpus.jsonl", "genset.jsonl", "--seed", str(self.seed), "--per-doc", "2"],
        ):
            if run_stage(argv, d, log)["exit"] != 0:
                raise BenchError(f"set-up stage {argv[0]} failed; see {log}")
        genset = gen.read_jsonl(d / "genset.jsonl")
        rng = random.Random(self.seed)
        gen.write_jsonl(gen.generation_rows(rng, genset, "with-refs", True), d / "with_refs.jsonl")
        gen.write_jsonl(gen.generation_rows(rng, genset, "without-refs", False), d / "without_refs.jsonl")

    def stages(self, s):
        k = str(QUOTE_K)
        return [
            ("quotes-ngram5-document", ["search-quotes", f"{s}/corpus.jsonl", f"{s}/quotes.jsonl", "q5_doc.trec",
                                        "--mode", "ngram", "--n", "5", "--unit", "document", "--k", k]),
            ("quotes-ngram12-passage", ["search-quotes", f"{s}/passages.jsonl", f"{s}/quotes.jsonl", "q12_psg.trec",
                                        "--mode", "ngram", "--n", "12", "--unit", "passage", "--k", k]),
            ("quotes-exact-document", ["search-quotes", f"{s}/corpus.jsonl", f"{s}/quotes.jsonl", "qx_doc.trec",
                                       "--mode", "exact", "--unit", "document", "--k", k]),
            ("eval-generation", ["eval-generation", f"{s}/genset.jsonl", f"{s}/with_refs.jsonl",
                                 "--compare", f"{s}/without_refs.jsonl", "--output", "generation_report.json"]),
        ]

    def throughput(self, out, setup, walls):
        quotes = sum(manifest_counts(out, f)["quotes"] for f in ("q5_doc.trec", "q12_psg.trec", "qx_doc.trec"))
        rows = len(gen.read_jsonl(setup / "with_refs.jsonl")) + len(gen.read_jsonl(setup / "without_refs.jsonl"))
        quote_wall = sum(walls[n] for n in walls if n.startswith("quotes-"))
        return quotes / quote_wall, rows / walls["eval-generation"]

    def check(self, out, setup):
        quotes = gen.read_jsonl(setup / "quotes.jsonl")
        sample = random.Random(self.seed).sample(quotes, min(SAMPLED_QUOTES, len(quotes)))
        doc_text = {d["doc_id"]: d["text"] for d in gen.read_jsonl(setup / "corpus.jsonl")}
        psg_text = {p["passage_id"]: p["text"] for p in gen.read_jsonl(setup / "passages.jsonl")}
        genset = gen.read_jsonl(setup / "genset.jsonl")
        gens = gen.read_jsonl(setup / "with_refs.jsonl")
        with open(out / "generation_report.json", "r", encoding="utf-8") as f:
            report = json.load(f)
        ids = sorted(g["instance_id"] for g in genset)
        return {
            "5-gram document hits match brute force": checks.check_quote_run(
                sample, checks.read_run(out / "q5_doc.trec"), doc_text, "ngram", 5, QUOTE_K),
            "12-gram passage hits match brute force": checks.check_quote_run(
                sample, checks.read_run(out / "q12_psg.trec"), psg_text, "ngram", 12, QUOTE_K),
            "exact hits contain the quote": checks.check_quote_run(
                sample, checks.read_run(out / "qx_doc.trec"), doc_text, "exact", 0, QUOTE_K),
            "ROUGE matches brute force": checks.check_generation_report(
                report, genset, gens, random.Random(self.seed).sample(ids, min(SAMPLED_INSTANCES, len(ids)))),
        }


WORKLOADS = {w.name: w for w in (Construct, Search, QuotesScore)}


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"FAIL {name}: {len(problems)} problem(s); first: {problems[0]}")

    def stage(self, name: str, res: dict) -> None:
        self.record(f"stage {name}", [] if res["exit"] == 0 else [f"exit code {res['exit']}"])


def timed_setups(wl: Workload, run_dir: Path, reps: int, min_s: float, tally: Tally) -> tuple[Path, list[float]]:
    """Set up from scratch at least ``reps`` times and for at least
    ``min_s`` seconds; every set-up must write the same bytes.  Returns the
    first set-up directory and the set-up times."""
    times, digests = [], []
    while len(times) < reps or sum(times) < min_s:
        i = len(times)
        d = run_dir / f"setup{i}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        wl.setup(d, run_dir / "setup.log")
        times.append(time.perf_counter() - t0)
        digests.append(digest_dir(d))
        if i:
            tally.record("set-up writes identical bytes", [] if digests[i] == digests[0] else ["set-up outputs differ"])
            shutil.rmtree(d)
    return run_dir / "setup0", times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def run_checks(wl: Workload, out: Path, setup: Path, tally: Tally) -> None:
    """Judge one chain's outputs; outputs that cannot be read fail."""
    try:
        results = wl.check(out, setup)
    except (OSError, ValueError, KeyError) as exc:
        results = {"outputs are readable": [f"{type(exc).__name__}: {exc}"]}
    for name, problems in results.items():
        tally.record(name, problems)


def measure(wl: Workload, seconds: int, run_dir: Path) -> tuple[dict, Tally]:
    tally = Tally()
    setup_dir, setup_times = timed_setups(wl, run_dir, SETUP_REPS, SETUP_MIN_S, tally)
    stages = wl.stages(f"../{setup_dir.name}")
    reps: list[dict] = []
    first_digest = None
    started = time.perf_counter()
    while True:
        out = run_dir / f"chain{len(reps)}"
        out.mkdir()
        results = {}
        for name, argv in stages:
            results[name] = run_stage(argv, out, run_dir / "stages.log")
            tally.stage(name, results[name])
        walls = {n: r["wall_s"] for n, r in results.items()}
        rep = {
            "wall_s": sum(walls.values()),
            "peak_rss_mb": max(r["rss_mb"] for r in results.values()),
            "stages": walls,
        }
        if all(r["exit"] == 0 for r in results.values()):
            rep["primary_items_per_s"], rep["secondary_items_per_s"] = wl.throughput(out, setup_dir, walls)
        if first_digest is None:
            first_digest = digest_dir(out)
        else:
            tally.record("chain writes identical bytes", [] if digest_dir(out) == first_digest else ["artifacts differ"])
            shutil.rmtree(out)
        reps.append(rep)
        if time.perf_counter() - started + rep["wall_s"] > seconds:
            break
    run_checks(wl, run_dir / "chain0", setup_dir, tally)
    values = {"setup_s": setup_times}
    for key in ("wall_s", "peak_rss_mb", "primary_items_per_s", "secondary_items_per_s"):
        values[key] = [r[key] for r in reps if key in r]
    for name in stages:
        values[f"cli.{name[0]}.wall_s"] = [r["stages"][name[0]] for r in reps]
    return values, tally


def measure_traced(wl: Workload, seconds: int, run_dir: Path) -> tuple[dict, Tally, list]:
    """Alternate untraced and traced in-process chains; per-layer metrics of
    each traced chain, with its overhead against the untraced one before it."""
    tally = Tally()
    setup_dir, _ = timed_setups(wl, run_dir, 1, 0.0, tally)
    stages = wl.stages(str(setup_dir))
    per_rep: list[dict] = []
    spans: list = []
    started = time.perf_counter()
    while True:
        pair_started = time.perf_counter()
        pair = {}
        for traced in (False, True):
            out = run_dir / f"{'traced' if traced else 'plain'}{len(per_rep)}"
            out.mkdir()
            spec = {"src": str(SRC), "cwd": str(out), "stages": stages, "traced": traced}
            spec_path = run_dir / "spec.json"
            spec_path.write_text(json.dumps(spec), "utf-8")
            res_path = run_dir / "result.json"
            with open(run_dir / "tracer.log", "ab") as err:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "tracer.py"), str(spec_path), str(res_path)],
                    env=cli_env(), stdout=subprocess.DEVNULL, stderr=err,
                )
            if proc.returncode != 0:
                raise BenchError(f"in-process chain failed; see {run_dir / 'tracer.log'}")
            pair[traced] = json.loads(res_path.read_text("utf-8"))
            for st in pair[traced]["stages"]:
                tally.stage(st["name"], st)
        plain_dir, traced_dir = run_dir / f"plain{len(per_rep)}", run_dir / f"traced{len(per_rep)}"
        if any(st["exit"] != 0 for res in pair.values() for st in res["stages"]):
            break
        tally.record(
            "tracing changes no artifact", [] if digest_dir(plain_dir) == digest_dir(traced_dir) else ["artifacts differ"]
        )
        corpus = wl.corpus_path(traced_dir, setup_dir)
        words, chars = corpus_size(corpus)
        context = {
            "corpus_words": words,
            "corpus_chars": chars,
            "bucket_of": bucket_of(corpus),
            "built_frac": wl.built_frac(traced_dir),
        }
        m = tracer.layer_metrics(pair[True], context)
        plain_wall = sum(st["wall_s"] for st in pair[False]["stages"])
        m["trace.overhead_frac"] = m["cli.stage_wall_s"] / plain_wall - 1.0
        per_rep.append(m)
        spans = pair[True]["spans"]
        shutil.rmtree(plain_dir)
        if per_rep[1:]:
            shutil.rmtree(traced_dir)
        now = time.perf_counter()
        if now - started + (now - pair_started) > seconds:
            break
    run_checks(wl, run_dir / "traced0", setup_dir, tally)
    if not per_rep:
        raise BenchError("a stage of the in-process chain failed; no per-layer metrics")
    names = sorted({k for m in per_rep for k in m})
    values = {k: [m.get(k, 0.0) for m in per_rep] for k in names}
    return values, tally, spans


def write_trace(trace_dir: Path, wl: Workload, values: dict, spans: list) -> Path:
    trace_dir.mkdir(parents=True, exist_ok=True)
    stem = trace_dir / f"{wl.name}-seed{wl.seed}"
    with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
        for s in spans:
            f.write(json.dumps(dict(zip(("name", "start", "end", "parent", "stage", "counts"), s))) + "\n")
    with open(HERE / "layers.json", "r", encoding="utf-8") as f:
        moves = json.load(f)["moves"]
    layers = {
        k: {"median": statistics.median(v), "runs": len(v), "moves": moves.get(_family(k))}
        for k, v in values.items()
    }
    with open(f"{stem}.layers.json", "w", encoding="utf-8") as f:
        json.dump({"workload": wl.name, "seed": wl.seed, "metrics": layers}, f, indent=2, sort_keys=True)
    return Path(f"{stem}.layers.json")


def _family(metric: str) -> str:
    """Key of a metric in layers.json: per-stage, per-layer, per-bucket and
    per-kind variants share one entry."""
    parts = metric.split(".")
    if parts[0] == "cli" and len(parts) == 3:
        return f"cli.<stage>.{parts[2]}"
    if parts[-1] in ("self_s", "self_frac"):
        return f"<layer>.{parts[-1]}"
    if metric.startswith("queries.ms_per_central."):
        return "queries.ms_per_central.<bucket>"
    if metric.startswith("retrieval.search_ms_"):
        return parts[0] + "." + parts[1] + ".<kind>"
    return metric


def unit_of(metric: str) -> str:
    """Unit of a metric, read from its name."""
    if metric in END_TO_END:
        return END_TO_END[metric][0]
    if metric in PER_LAYER:
        return PER_LAYER[metric][0]
    if metric.endswith("_per_s"):
        return "1/s"
    if "_ms_" in metric or ".ms_per_" in metric:
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_frac", "_per_corpus_word", "_per_corpus_char")):
        return "ratio"
    return "count"


def print_table(values: dict) -> None:
    """Every metric with its unit, median, quartiles and sample count."""
    print(f"{'metric':<48} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name in sorted(values):
        v = values[name]
        if not v:
            continue
        q1, med, q3 = quartiles(v)
        print(f"{name:<48} {unit_of(name):>6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(v):>3}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "casebench" / "cli.py").is_file():
        print(f"casebench sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    run_dir = WORK / f"{wl.name}-seed{wl.seed}-trace{args.trace}-pid{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            values, tally, spans = measure_traced(wl, args.seconds, run_dir)
            report = write_trace(WORK / "trace", wl, values, spans)
            print_table(values)
            print(f"per-layer report: {report.relative_to(ROOT)}")
            metrics = {k: {"value": statistics.median(values.get(k, [0.0])), "unit": u} for k, (u, _) in PER_LAYER.items()}
        else:
            values, tally = measure(wl, args.seconds, run_dir)
            a, b = ITEM_NAMES[wl.name]
            print_table({**values, a: values["primary_items_per_s"], b: values["secondary_items_per_s"]})
            metrics = {}
            for k, (u, _) in END_TO_END.items():
                if not values.get(k):
                    raise BenchError(f"no measurement of {k}: every chain failed")
                metrics[k] = {"value": statistics.median(values[k]), "unit": u}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    # Failures are reported here and in the result line, not as a gated
    # metric: a gated metric must never read 0.
    print(f"{'failed_frac':<48} {'ratio':>6} {tally.failed / tally.attempted:>12.6g}"
          f"   ({tally.failed} failed of {tally.attempted} stages and checks)")
    for line in tally.messages:
        print(line)
    if tally.failed == 0:
        shutil.rmtree(run_dir)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
