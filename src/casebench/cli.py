"""Command-line pipeline: ingest -> chunk -> parse-citations -> build-queries
-> index -> search -> eval, plus the generation-set and quote-retrieval
paths.  Every subcommand writes a manifest recording its config hash, input
hashes, and counts, so identical runs produce byte-identical artifacts.

Exit codes: 0 success, 1 usage or config error, 2 a malformed or unreadable
input file (``DataError``, ``OSError``); any other exception is a bug.

``main`` owns the output files.  One that resolves to an input, the
``--config`` file or another output is refused (exit 1) before anything is
read or removed; a command that fails leaves none of the paths it names,
nor a directory made for them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Generic, NamedTuple, TypeVar

# Every command reads or writes corpus files; each imports the other layer
# modules it runs, so a stage starts only what it uses.
from . import corpus

if TYPE_CHECKING:
    from .citations import ReporterTable
    from .metrics import MetricReport

T = TypeVar("T")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class ConfigError(Exception):
    pass


class Key(NamedTuple):
    """A config key: the type of its values, its default, and the range
    [low, high] that a numeric value must lie in; an infinite value never does."""

    type: type
    default: object
    low: float | None = None
    high: float = math.inf


# Config file keys (TOML-like "key = value" lines).  Each command lists the
# keys it reads; its flags override the file.  query_window, a comma list of
# lengths, is held to the rules of _window_lengths and recorded in canonical
# form.  The library defaults live in corpus, which every command loads.
CONFIG_KEYS = {
    "window": Key(int, corpus.DEFAULT_WINDOW, 1),
    "stride": Key(int, corpus.DEFAULT_STRIDE, 1),
    "query_window": Key(str, str(corpus.DEFAULT_QUERY_WINDOW)),
    "bm25_k1": Key(float, corpus.BM25_K1, 0),
    "bm25_b": Key(float, corpus.BM25_B, 0, 1),
    "ngram_n": Key(int, corpus.DEFAULT_NGRAM_N, 1),
    "seed": Key(int, corpus.DEFAULT_GENSET_SEED, 0),
    "salient_k": Key(int, corpus.DEFAULT_SALIENT_K, 1),
    "word_budget": Key(int, corpus.DEFAULT_WORD_BUDGET, 1),
    "per_doc": Key(int, corpus.DEFAULT_PER_DOC, 1),
    "include_references_in_substring_check": Key(bool, False),
}


def load_config_file(path) -> dict:
    """Parse flat "key = value" lines; '#' starts a comment.  Unknown or
    repeated keys and unparseable values are configuration errors."""
    out = {}
    lines = {}  # key -> the line that set it
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().strip('"')
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        caster = CONFIG_KEYS[key].type
        try:
            if caster is bool:
                if value.lower() not in ("true", "false", "1", "0"):
                    raise ValueError(value)
                out[key] = value.lower() in ("true", "1")
            else:
                out[key] = caster(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}")
    return out


# hashlib maps OpenSSL's pages at import, so a command imports it only to
# write its manifest, after its work: its peak RSS then need not hold both.
# A file is hashed in 64 KiB blocks, for the same reason.
def _sha256(path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


# Argparse destinations that name a file the command reads; a manifest
# hashes each one under its destination's name.
INPUT_ROLES = (
    "input", "index", "queries", "corpus", "quotes", "run", "qrels", "genset",
    "generations", "compare", "labeled_sample", "reporters", "passages",
)
# The other destinations that name a file: outputs, and the config file,
# whose settings the config records.  Any destination in neither list is
# a setting, and the manifest's config records it too.
OUTPUT_PATHS = ("config", "output", "qrels_out", "quotes_out", "passage_qrels")


def write_manifest(out_path, command: str, config: dict, inputs: dict, counts: dict) -> None:
    """``inputs`` maps each role to the file read in it."""
    import hashlib

    manifest = {
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "inputs": {role: _sha256(inputs[role]) for role in sorted(inputs)},
        "counts": {k: counts[k] for k in sorted(counts)},
    }
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _output_paths(args, reads: Iterable) -> list[Path]:
    """The output-role arguments, in ``OUTPUT_PATHS`` order, then the first
    one's manifest.  One that resolves to a file the command reads, or to
    an earlier output, is a ``ConfigError``."""
    paths = [Path(path) for dest in OUTPUT_PATHS[1:] if (path := getattr(args, dest, None)) is not None]
    if paths:
        paths.append(paths[0].with_suffix(paths[0].suffix + ".manifest.json"))
    reads = {Path(path).resolve() for path in reads if path is not None}
    resolved = [path.resolve() for path in paths]
    for i, path in enumerate(paths):
        if resolved[i] in reads:
            raise ConfigError(f"{args.command} would overwrite its input {path}")
        if resolved[i] in resolved[:i]:
            raise ConfigError(f"{args.command} would write {path} twice")
    return paths


class _Counted(Generic[T]):
    """``items``, to be iterated once; ``n`` counts the items yielded so far."""

    def __init__(self, items: Iterable[T]):
        self.items = items
        self.n = 0

    def __iter__(self) -> Iterator[T]:
        for item in self.items:
            self.n += 1
            yield item


def _nonempty(items: Iterator[T], what: str) -> Iterator[T]:
    """``items``, unless it yields nothing: that is a ``DataError``, "no ``what``"."""
    first = next(items, None)
    if first is None:
        raise corpus.DataError(f"no {what}")
    return chain([first], items)


def _reporters(args) -> ReporterTable:
    from .citations import load_reporter_table

    return load_reporter_table(getattr(args, "reporters", None))


def _positive(flag: str, n: int) -> int:
    if n < 1:
        raise ConfigError(f"{flag} must be at least 1, got {n}")
    return n


def _chunking(cfg) -> tuple[int, int]:
    """The configured passage (window, stride); window < stride skips words."""
    window, stride = cfg["window"], cfg["stride"]
    if window < stride:
        raise ConfigError(f"window ({window}) must be at least stride ({stride})")
    return window, stride


def _positive_ints(flag: str, value: str) -> list[int]:
    """A comma list of integers, each at least 1; anything else is a usage
    error."""
    try:
        return [_positive(flag, int(item)) for item in value.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated integers, got {value!r}")


def _window_lengths(value: str) -> list[int]:
    """The distinct query window lengths of ``--window-words`` or ``query_window``."""
    lengths = _positive_ints("query_window", value)
    if len(set(lengths)) < len(lengths):
        raise ConfigError(f"query_window repeats a length: {value!r}")
    return lengths


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args, cfg) -> dict:
    docs, diagnostics = corpus.load_corpus_jsonl(args.input)
    if not docs:
        raise corpus.DataError(f"no loadable records in {args.input}")
    n = corpus.write_corpus_jsonl(docs, args.output)
    for d in diagnostics:
        print(f"rejected: {d}", file=sys.stderr)
    return {"documents": n, "rejected": len(diagnostics)}


def cmd_chunk(args, cfg) -> dict:
    window, stride = _chunking(cfg)
    docs = _Counted(corpus.iter_corpus_jsonl(args.input))
    passages = chain.from_iterable(corpus.chunk_document(doc, window, stride) for doc in docs)
    n = corpus.write_passages_jsonl(passages, args.output)
    return {"documents": docs.n, "passages": n, "window": window, "stride": stride}


def cmd_parse_citations(args, cfg) -> dict:
    from . import citations, queries

    docs = corpus.read_corpus_jsonl(args.input)
    table = _reporters(args)
    rows = []
    quote_rows = []
    counts = {"case": 0, "statute": 0, "short-form": 0, "quotes": 0}
    for doc in docs:
        parsed = queries.parse_document(doc, table)
        for span in parsed.citations:
            rows.append((doc.doc_id, span))
            counts[span.kind] += 1
        if args.quotes_out:
            for i, quote in enumerate(parsed.quotes):
                paired = quote.paired_citation
                quote_rows.append(
                    {
                        "query_id": f"{doc.doc_id}:q{i}",
                        "doc_id": doc.doc_id,
                        "quote": quote.text,
                        "paired_key": str(paired.key) if paired and paired.key else None,
                    }
                )
                counts["quotes"] += 1
    citations.write_citations_jsonl(rows, args.output)
    if args.quotes_out:
        corpus.write_jsonl(quote_rows, args.quotes_out)
    if args.labeled_sample:
        samples = citations.read_labeled_samples(args.labeled_sample)
        accuracy, n = citations.sentence_extraction_accuracy(samples, table)
        counts["labeled_samples"] = n
        counts["sentence_extraction_accuracy"] = round(accuracy, 4)
        print(f"sentence extraction accuracy: {accuracy:.3f} on {n} labeled samples")
    return counts


def _parse_views(value: str) -> list[str]:
    from . import queries

    views = [v.strip() for v in value.split(",") if v.strip()]
    if not views:
        raise ConfigError(f"--view names no view: {value!r}")
    for v in views:
        if v not in (queries.VIEW_SINGLE_REMOVED, queries.VIEW_ALL_REMOVED):
            raise ConfigError(f"unknown view {v!r}")
    return views


def cmd_build_queries(args, cfg) -> dict:
    from . import queries

    views = _parse_views(args.view)
    chunking = _chunking(cfg) if args.passage_qrels else None
    docs = corpus.read_corpus_jsonl(args.input)
    table = _reporters(args)
    kinds = None if args.kind == "both" else [args.kind]
    lengths = _window_lengths(cfg["query_window"])
    built, qrels, report = queries.build_queries(
        docs, views=views, kinds=kinds, window_words=lengths, reporters=table
    )
    queries.write_queries_jsonl(built, args.output)
    queries.write_qrels(qrels, args.qrels_out)
    counts = dict(report.to_dict())
    if chunking:
        cited = {entry.unit_id for entry in qrels}
        passages_by_doc = {
            doc.doc_id: [pid for pid, _, _ in corpus.passage_windows(doc.doc_id, doc.word_count(), *chunking)]
            for doc in docs
            if doc.doc_id in cited
        }
        pq = queries.passage_qrels(qrels, passages_by_doc)
        queries.write_qrels(pq, args.passage_qrels)
        counts["passage_qrels"] = len(pq)
    counts["queries"] = len(built)
    counts["window_words"] = lengths if len(lengths) > 1 else lengths[0]
    return counts


def cmd_build_genset(args, cfg) -> dict:
    from . import genset

    docs = corpus.read_corpus_jsonl(args.input)
    table = _reporters(args)
    # The listed keys are build_genset's seed, per_doc, salient_k and word_budget.
    instances, diagnostics = genset.build_genset(docs, reporters=table, **cfg)
    genset.write_genset_jsonl(instances, args.output)
    for d in diagnostics:
        print(f"skipped: {d}", file=sys.stderr)
    return {"instances": len(instances), "skipped": len(diagnostics)}


def _units(path, unit: str) -> Iterator[tuple[str, str]]:
    """(id, text) of each passage, or each document, in the file at
    ``path``, read as they are consumed."""
    if unit == "passage":
        return ((p.passage_id, p.text) for p in corpus.iter_passages_jsonl(path))
    return ((d.doc_id, d.text) for d in corpus.iter_corpus_jsonl(path))


def cmd_index(args, cfg) -> dict:
    from . import retrieval

    units = _nonempty(_units(args.input, args.unit), f"units in {args.input}")
    index = retrieval.build_index(units, unit_kind=args.unit)
    retrieval.save_index(index, args.output)
    return {"units": index.n_units, "vocabulary": index.vocabulary_size, "unit_kind": args.unit}


def cmd_search(args, cfg) -> dict:
    from . import retrieval

    k = _positive("--k", args.k)
    index = retrieval.load_index(args.index)
    if args.maxp and index.unit_kind != "passage":
        raise ConfigError(f"--maxp ranks a passage index's documents, but {args.index} indexes {index.unit_kind}s")
    k1, b = cfg["bm25_k1"], cfg["bm25_b"]
    # Each query row is read, ranked and written before the next is read.
    rows = _Counted(corpus.iter_queries_jsonl(args.queries))
    runs = (
        retrieval.bm25_search(index, row["masked_text"], k, k1=k1, b=b, query_id=row["query_id"], maxp=args.maxp)
        for row in rows
    )
    tag = "bm25-maxp" if args.maxp else "bm25"
    n = retrieval.write_trec_run(runs, args.output, tag=tag)
    return {"queries": rows.n, "rows": n, "k": k, "tag": tag}


def cmd_search_quotes(args, cfg) -> dict:
    from . import retrieval

    k = _positive("--k", args.k)
    units = list(_units(args.corpus, args.unit))
    rows = corpus.read_queries_jsonl(args.quotes, "quote")
    n = cfg["ngram_n"]
    index = retrieval.NgramIndex(units, n, [row["quote"] for row in rows])
    search = retrieval.ngram_search if args.mode == "ngram" else retrieval.exact_match_search
    runs = []
    empty = 0
    for row in rows:
        try:
            runs.append(search(index, row["quote"], k, query_id=row["query_id"]))
        except retrieval.EmptyQuoteError:
            empty += 1
    rows_written = retrieval.write_trec_run(runs, args.output, tag=f"{args.mode}-{n}")
    return {"quotes": len(rows), "rows": rows_written, "rejected_empty": empty, "mode": args.mode}


def cmd_eval_retrieval(args, cfg) -> dict:
    from . import metrics, retrieval

    ks = _positive_ints("--k", args.k)
    run = retrieval.read_trec_run(args.run)
    qrels = corpus.read_qrels(args.qrels)
    if not qrels:
        raise corpus.DataError(f"no positive judgments in {args.qrels}")
    ranked = {qid: [unit for unit, _, _ in rows] for qid, rows in run.items()}
    report = metrics.evaluate_run(ranked, qrels, ks=ks)
    return _write_report(args.output, report.to_dict(), report, "queries_scored")


def cmd_eval_generation(args, cfg) -> dict:
    from . import genset, metrics

    table = _reporters(args)
    instances = genset.read_genset_jsonl(args.genset)
    outputs = metrics.read_generations_jsonl(args.generations)
    report = metrics.score_generation_run(instances, outputs, reporters=table, **cfg)
    result = report.to_dict()
    if args.compare:
        other = metrics.read_generations_jsonl(args.compare)
        other_report = metrics.score_generation_run(instances, other, reporters=table, **cfg)
        result["gain_over_compare"] = metrics.compare_runs(report, other_report)
    return _write_report(args.output, result, report, "instances_scored")


def _write_report(path, payload: dict, report: MetricReport, scored: str) -> dict:
    """Write ``payload`` as sorted JSON and print ``report``'s macro table;
    return the manifest counts: items ``scored``, macro scores and skips."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(_format_table(report.macro))
    return {
        scored: len(report.per_query),
        **{k: round(v, 6) for k, v in report.macro.items()},
        **report.skipped,
    }


def cmd_density(args, cfg) -> dict:
    from . import genset

    docs = _Counted(_nonempty(corpus.iter_corpus_jsonl(args.input), f"documents in {args.input}"))
    profile = genset.citation_density_profile(docs, _reporters(args))
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(dataclasses.asdict(profile), f, indent=2)
        f.write("\n")
    return {"documents": docs.n, "total_words": sum(profile.decile_words)}


def cmd_stats(args, cfg) -> dict:
    rows = [("documents", *_count_avg(d.word_count() for d in corpus.iter_corpus_jsonl(args.input)))]
    if args.passages:
        words = (p.word_end - p.word_start for p in corpus.iter_passages_jsonl(args.passages))
        rows.append(("passages", *_count_avg(words)))
    if args.queries:
        words = (len(r["masked_text"].split()) for r in corpus.iter_queries_jsonl(args.queries))
        rows.append(("queries", *_count_avg(words)))
    if args.genset:
        from . import genset

        words = (len(i.prompt_with_refs.split()) for i in genset.iter_genset_jsonl(args.genset))
        rows.append(("generation", *_count_avg(words)))
    print(f"{'collection':<12} {'count':>10} {'avg words':>10}")
    for name, count, avg in rows:
        print(f"{name:<12} {count:>10} {avg:>10.1f}")
    return {name: count for name, count, _ in rows}


def _count_avg(values: Iterable[int]) -> tuple[int, float]:
    """How many ``values`` there are, and their mean (0.0 for none)."""
    values = _Counted(values)
    total = sum(values)
    return values.n, total / values.n if values.n else 0.0


def _format_table(macro: dict) -> str:
    keys = sorted(macro)
    header = "  ".join(f"{k:>12}" for k in keys)
    values = "  ".join(f"{macro[k]:>12.4f}" for k in keys)
    return header + "\n" + values


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

class _ReadsChunking(argparse.Action):
    """``--passage-qrels``: store the path, and list the window and stride
    keys, which chunk the passages its qrels name."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        if "window" not in namespace.config_keys:
            namespace.config_keys += ("window", "stride")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casebench",
        description="Corpus-to-benchmark toolkit for case-law retrieval and generation evaluation.",
    )
    parser.add_argument("--config", help="TOML-like key=value config file")
    # Each subcommand lists the CONFIG_KEYS it reads as its config_keys.
    parser.set_defaults(config_keys=())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize raw case records into a corpus file")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("chunk", help="split documents into overlapping passages")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--window", type=int, dest="window")
    p.add_argument("--stride", type=int, dest="stride")
    p.set_defaults(func=cmd_chunk, config_keys=("window", "stride"))

    p = sub.add_parser("parse-citations", help="dump citation spans per document")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--reporters", help="reporter table JSON")
    p.add_argument("--quotes-out", help="also dump paired direct quotes")
    p.add_argument("--labeled-sample", help="labeled sentence-bounds JSONL; reports accuracy")
    p.set_defaults(func=cmd_parse_citations)

    p = sub.add_parser("build-queries", help="construct masked queries and qrels")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("qrels_out", metavar="qrels")
    p.add_argument("--view", default="single-removed", help="comma list: single-removed,all-removed")
    p.add_argument("--kind", default="both", choices=["direct", "indirect", "both"])
    p.add_argument("--window-words", dest="query_window", help="comma list; several lengths suffix ids :w<length>")
    p.add_argument("--passage-qrels", action=_ReadsChunking, help="also derive passage-level qrels")
    p.add_argument("--reporters")
    p.set_defaults(func=cmd_build_queries, config_keys=("query_window",))

    p = sub.add_parser("build-genset", help="build generation instances with prompts")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--seed", type=int, help="seed for sampling gold paragraphs")
    p.add_argument("--per-doc", type=int, dest="per_doc")
    p.add_argument("--salient-k", type=int, dest="salient_k")
    p.add_argument("--word-budget", type=int, dest="word_budget")
    p.add_argument("--reporters")
    p.set_defaults(func=cmd_build_genset, config_keys=("seed", "per_doc", "salient_k", "word_budget"))

    p = sub.add_parser("index", help="build a BM25 inverted index")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--unit", default="passage", choices=["passage", "document"])
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="BM25 search over an index, TREC run output")
    p.add_argument("index")
    p.add_argument("queries")
    p.add_argument("output")
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--maxp", action="store_true", help="rank documents by their best passage (MaxP)")
    p.add_argument("--bm25-k1", type=float, dest="bm25_k1")
    p.add_argument("--bm25-b", type=float, dest="bm25_b")
    p.set_defaults(func=cmd_search, config_keys=("bm25_k1", "bm25_b"))

    p = sub.add_parser("search-quotes", help="n-gram or exact retrieval with quotes")
    p.add_argument("corpus")
    p.add_argument("quotes")
    p.add_argument("output")
    p.add_argument("--unit", default="passage", choices=["passage", "document"])
    p.add_argument("--mode", default="ngram", choices=["ngram", "exact"])
    p.add_argument("--n", type=int, dest="ngram_n", help=f"shingle length (default {CONFIG_KEYS['ngram_n'].default})")
    p.add_argument("--k", type=int, default=1000)
    p.set_defaults(func=cmd_search_quotes, config_keys=("ngram_n",))

    p = sub.add_parser("eval-retrieval", help="Recall@k / nDCG@k on a TREC run")
    p.add_argument("run")
    p.add_argument("qrels")
    p.add_argument("--k", default=",".join(map(str, corpus.DEFAULT_RECALL_KS)))
    p.add_argument("--output", default="retrieval_report.json")
    p.set_defaults(func=cmd_eval_retrieval)

    p = sub.add_parser("eval-generation", help="ROUGE and citation metrics on generations")
    p.add_argument("genset")
    p.add_argument("generations")
    p.add_argument("--compare", help="second generations file for paired gains")
    p.add_argument("--output", default="generation_report.json")
    # None when absent, so a config file's value stands.
    p.add_argument("--include-references-in-substring-check", action="store_true", default=None,
                   dest="include_references_in_substring_check")
    p.add_argument("--reporters")
    p.set_defaults(func=cmd_eval_generation, config_keys=("include_references_in_substring_check",))

    p = sub.add_parser("density", help="citation density per paragraph decile")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--reporters")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("stats", help="collection counts and average lengths")
    p.add_argument("input")
    p.add_argument("--passages")
    p.add_argument("--queries")
    p.add_argument("--genset")
    p.set_defaults(func=cmd_stats)

    return parser


def _gather_config(args) -> dict:
    """The effective value of each key the command lists: its flag, else the
    ``--config`` file, else the default.  Every key the file sets is held to
    its range too, but only the listed keys are returned."""
    cfg = {key: CONFIG_KEYS[key].default for key in args.config_keys}
    if args.config:
        cfg.update(load_config_file(args.config))
    cfg.update((key, value) for key in args.config_keys if (value := getattr(args, key, None)) is not None)
    for name, value in cfg.items():
        key = CONFIG_KEYS[name]
        if key.type is str:
            cfg[name] = ",".join(map(str, _window_lengths(value)))
        elif key.low is not None and not (math.isfinite(value) and key.low <= value <= key.high):
            bounds = f"[{key.low}, {key.high}]" if key.high < math.inf else f"[{key.low}, inf)"
            raise ConfigError(f"config key {name!r} must be in {bounds}, got {value}")
    return {key: cfg[key] for key in args.config_keys}


def _settings(args) -> dict:
    """Every flag and positional that names no file, as parsed.  Config
    keys are left out: the gathered config holds their effective values."""
    skip = {"command", "func", "config_keys", *INPUT_ROLES, *OUTPUT_PATHS, *CONFIG_KEYS}
    return {dest: value for dest, value in vars(args).items() if dest not in skip}


def main(argv=None) -> int:
    # casebench makes no BLAS call, so numpy need not start a thread per core.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 is the data-error code.
        if exc.code == 2:
            return EXIT_USAGE
        raise
    inputs = {role: path for role in INPUT_ROLES if (path := getattr(args, role, None)) is not None}
    outputs: list[Path] = []
    made: list[Path] = []  # the directories main creates, outermost first
    try:
        outputs = _output_paths(args, [*inputs.values(), args.config])
        cfg = _gather_config(args)
        for path in outputs:
            for parent in reversed(path.parents):
                if not parent.exists():
                    parent.mkdir()
                    made.append(parent)
        counts = args.func(args, cfg)
        if outputs:
            write_manifest(outputs[-1], args.command, {**_settings(args), **cfg}, inputs, counts)
    except BaseException as exc:
        # A refused run has no outputs to remove: the path it refused may be an input.
        for path in outputs:
            path.unlink(missing_ok=True)
        for path in reversed(made):
            path.rmdir()
        if isinstance(exc, ConfigError):
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if isinstance(exc, (corpus.DataError, OSError)):
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        raise
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
