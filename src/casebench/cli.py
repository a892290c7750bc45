"""Command-line pipeline: ingest -> chunk -> parse-citations -> build-queries
-> index -> search -> eval, plus the generation-set and quote-retrieval
paths.  Every subcommand writes a manifest recording its config hash, input
hashes, and counts, so identical runs produce byte-identical artifacts.

Exit codes: 0 success, 1 usage or config error, 2 a malformed or unreadable
input file (``DataError``, ``OSError``); any other exception is a bug.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections.abc import Iterator
from itertools import chain
from pathlib import Path

from . import citations, corpus, genset, metrics, queries, retrieval

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class ConfigError(Exception):
    pass


# Config file keys (TOML-like "key = value" lines); flags override these.
CONFIG_KEYS = {
    "window": int,
    "stride": int,
    "query_window": str,  # a comma list of lengths, parsed by _window_lengths
    "bm25_k1": float,
    "bm25_b": float,
    "ngram_n": int,
    "seed": int,
    "salient_k": int,
    "word_budget": int,
    "per_doc": int,
    "include_references_in_substring_check": bool,
}


def load_config_file(path) -> dict:
    """Parse flat "key = value" lines; '#' starts a comment.  Unknown keys
    and unparseable values are configuration errors."""
    out = {}
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
        caster = CONFIG_KEYS[key]
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


def _validate_config(cfg: dict) -> None:
    """Hold each key to its range, whether a flag or the file set it."""
    for key, value in cfg.items():
        if key == "query_window":
            _window_lengths(cfg)
        elif key == "bm25_b":
            if not 0 <= value <= 1:
                raise ConfigError(f"config key 'bm25_b' must be in [0, 1], got {value}")
        elif key in ("seed", "bm25_k1"):
            if not 0 <= value < float("inf"):
                raise ConfigError(f"config key {key!r} must be non-negative, got {value}")
        elif not isinstance(value, bool) and value <= 0:
            raise ConfigError(f"config key {key!r} must be positive, got {value}")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
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


class OutputSet:
    """Declared output files, removed as a group if the command fails."""

    def __init__(self):
        self.paths: list[Path] = []

    def declare(self, path) -> Path:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        self.paths.append(p)
        return p

    def discard_all(self) -> None:
        for p in self.paths:
            p.unlink(missing_ok=True)


def _reporters(args) -> citations.ReporterTable:
    return citations.load_reporter_table(getattr(args, "reporters", None))


def _positive(flag: str, n: int) -> int:
    if n < 1:
        raise ConfigError(f"{flag} must be at least 1, got {n}")
    return n


def _chunking(cfg) -> tuple[int, int]:
    """The configured passage (window, stride); window < stride skips words."""
    window = cfg.get("window", corpus.DEFAULT_WINDOW)
    stride = cfg.get("stride", corpus.DEFAULT_STRIDE)
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


def _window_lengths(cfg) -> list[int]:
    """The distinct query window lengths of ``--window-words`` or ``query_window``."""
    lengths = _positive_ints("query_window", cfg.get("query_window", str(queries.DEFAULT_QUERY_WINDOW)))
    if len(set(lengths)) < len(lengths):
        raise ConfigError(f"query_window repeats a length: {cfg['query_window']!r}")
    return lengths


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args, cfg, out: OutputSet) -> dict:
    docs, diagnostics = corpus.load_corpus_jsonl(args.input)
    if not docs:
        raise corpus.DataError(f"no loadable records in {args.input}")
    n = corpus.write_corpus_jsonl(docs, out.declare(args.output))
    for d in diagnostics:
        print(f"rejected: {d}", file=sys.stderr)
    return {"documents": n, "rejected": len(diagnostics)}


def cmd_chunk(args, cfg, out: OutputSet) -> dict:
    window, stride = _chunking(cfg)
    # Passages are written while the documents are read, so the output
    # must not be the input.
    if Path(args.output).resolve() == Path(args.input).resolve():
        raise ConfigError(f"chunk would overwrite its input {args.input}")
    docs = 0

    def passages():
        nonlocal docs
        for doc in corpus.iter_corpus_jsonl(args.input):
            docs += 1
            yield from corpus.chunk_document(doc, window, stride)

    n = corpus.write_passages_jsonl(passages(), out.declare(args.output))
    return {"documents": docs, "passages": n, "window": window, "stride": stride}


def cmd_parse_citations(args, cfg, out: OutputSet) -> dict:
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
    citations.write_citations_jsonl(rows, out.declare(args.output))
    if args.quotes_out:
        corpus.write_jsonl(quote_rows, out.declare(args.quotes_out))
    if args.labeled_sample:
        samples = citations.read_labeled_samples(args.labeled_sample)
        accuracy, n = citations.sentence_extraction_accuracy(samples, table)
        counts["labeled_samples"] = n
        counts["sentence_extraction_accuracy"] = round(accuracy, 4)
        print(f"sentence extraction accuracy: {accuracy:.3f} on {n} labeled samples")
    return counts


def _parse_views(value: str) -> list[str]:
    views = [v.strip() for v in value.split(",") if v.strip()]
    if not views:
        raise ConfigError(f"--view names no view: {value!r}")
    for v in views:
        if v not in (queries.VIEW_SINGLE_REMOVED, queries.VIEW_ALL_REMOVED):
            raise ConfigError(f"unknown view {v!r}")
    return views


def cmd_build_queries(args, cfg, out: OutputSet) -> dict:
    views = _parse_views(args.view)
    chunking = _chunking(cfg) if args.passage_qrels else None
    docs = corpus.read_corpus_jsonl(args.input)
    table = _reporters(args)
    kinds = None if args.kind == "both" else [args.kind]
    lengths = _window_lengths(cfg)
    built, qrels, report = queries.build_queries(
        docs, views=views, kinds=kinds, window_words=lengths, reporters=table
    )
    queries.write_queries_jsonl(built, out.declare(args.output))
    queries.write_qrels(qrels, out.declare(args.qrels_out))
    counts = dict(report.to_dict())
    if chunking:
        passages_by_doc = {
            doc.doc_id: [p.passage_id for p in corpus.chunk_document(doc, *chunking)] for doc in docs
        }
        pq = queries.passage_qrels(qrels, passages_by_doc)
        queries.write_qrels(pq, out.declare(args.passage_qrels))
        counts["passage_qrels"] = len(pq)
    counts["queries"] = len(built)
    counts["window_words"] = lengths if len(lengths) > 1 else lengths[0]
    return counts


def cmd_build_genset(args, cfg, out: OutputSet) -> dict:
    docs = corpus.read_corpus_jsonl(args.input)
    table = _reporters(args)
    instances, diagnostics = genset.build_genset(
        docs,
        seed=cfg.get("seed", 0),
        per_doc=cfg.get("per_doc", 1),
        salient_k=cfg.get("salient_k", genset.DEFAULT_SALIENT_K),
        word_budget=cfg.get("word_budget", genset.DEFAULT_WORD_BUDGET),
        reporters=table,
    )
    genset.write_genset_jsonl(instances, out.declare(args.output))
    for d in diagnostics:
        print(f"skipped: {d}", file=sys.stderr)
    return {"instances": len(instances), "skipped": len(diagnostics)}


def _units(path, unit: str) -> Iterator[tuple[str, str]]:
    """(id, text) of each passage, or each document, in the file at
    ``path``, read as they are consumed."""
    if unit == "passage":
        return ((p.passage_id, p.text) for p in corpus.iter_passages_jsonl(path))
    return ((d.doc_id, d.text) for d in corpus.iter_corpus_jsonl(path))


def cmd_index(args, cfg, out: OutputSet) -> dict:
    units = _units(args.input, args.unit)
    first = next(units, None)
    if first is None:
        raise corpus.DataError(f"no units in {args.input}")
    index = retrieval.build_index(chain([first], units), unit_kind=args.unit)
    retrieval.save_index(index, out.declare(args.output))
    return {"units": index.n_units, "vocabulary": index.vocabulary_size, "unit_kind": args.unit}


def cmd_search(args, cfg, out: OutputSet) -> dict:
    k = _positive("--k", args.k)
    index = retrieval.load_index(args.index)
    if args.maxp and index.unit_kind != "passage":
        raise ConfigError(f"--maxp ranks a passage index's documents, but {args.index} indexes {index.unit_kind}s")
    rows = queries.read_queries_jsonl(args.queries)
    k1 = cfg.get("bm25_k1", retrieval.BM25_K1)
    b = cfg.get("bm25_b", retrieval.BM25_B)
    runs = [
        retrieval.bm25_search(index, row["masked_text"], k, k1=k1, b=b, query_id=row["query_id"], maxp=args.maxp)
        for row in rows
    ]
    tag = "bm25-maxp" if args.maxp else "bm25"
    n = retrieval.write_trec_run(runs, out.declare(args.output), tag=tag)
    return {"queries": len(runs), "rows": n, "k": k, "tag": tag}


def cmd_search_quotes(args, cfg, out: OutputSet) -> dict:
    k = _positive("--k", args.k)
    units = list(_units(args.corpus, args.unit))
    rows = queries.read_queries_jsonl(args.quotes, "quote")
    n = cfg.get("ngram_n", 5)
    index = retrieval.NgramIndex(units, n, [row["quote"] for row in rows])
    search = retrieval.ngram_search if args.mode == "ngram" else retrieval.exact_match_search
    runs = []
    empty = 0
    for row in rows:
        try:
            runs.append(search(index, row["quote"], k, query_id=row["query_id"]))
        except retrieval.EmptyQuoteError:
            empty += 1
    rows_written = retrieval.write_trec_run(runs, out.declare(args.output), tag=f"{args.mode}-{n}")
    return {"quotes": len(rows), "rows": rows_written, "rejected_empty": empty, "mode": args.mode}


def cmd_eval_retrieval(args, cfg, out: OutputSet) -> dict:
    ks = _positive_ints("--k", args.k)
    run = retrieval.read_trec_run(args.run)
    qrels = queries.read_qrels(args.qrels)
    if not qrels:
        raise corpus.DataError(f"no positive judgments in {args.qrels}")
    ranked = {qid: [unit for unit, _, _ in rows] for qid, rows in run.items()}
    report = metrics.evaluate_run(ranked, qrels, ks=ks)
    with open(out.declare(args.output), "w", encoding="utf-8") as f:
        f.write(report.to_json(indent=2) + "\n")
    print(_format_table(report.macro))
    return {
        "queries_scored": len(report.per_query),
        **{k: round(v, 6) for k, v in report.macro.items()},
        **report.skipped,
    }


def cmd_eval_generation(args, cfg, out: OutputSet) -> dict:
    table = _reporters(args)
    instances = genset.read_genset_jsonl(args.genset)
    outputs = metrics.read_generations_jsonl(args.generations)
    include_refs = cfg.setdefault("include_references_in_substring_check", False)
    report = metrics.score_generation_run(
        instances, outputs, include_references_in_substring_check=include_refs, reporters=table
    )
    result = report.to_dict()
    if args.compare:
        other = metrics.read_generations_jsonl(args.compare)
        other_report = metrics.score_generation_run(
            instances, other, include_references_in_substring_check=include_refs, reporters=table
        )
        result["gain_over_compare"] = metrics.compare_runs(report, other_report)
    with open(out.declare(args.output), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    print(_format_table(report.macro))
    return {
        "instances_scored": len(report.per_query),
        **{k: round(v, 6) for k, v in report.macro.items()},
        **report.skipped,
    }


def cmd_density(args, cfg, out: OutputSet) -> dict:
    docs = corpus.read_corpus_jsonl(args.input)
    if not docs:
        raise corpus.DataError(f"no documents in {args.input}")
    profile = genset.citation_density_profile(docs, _reporters(args))
    payload = {
        "decile_densities": list(profile.decile_densities),
        "decile_words": list(profile.decile_words),
        "decile_citations": list(profile.decile_citations),
    }
    with open(out.declare(args.output), "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return {"documents": len(docs), "total_words": sum(profile.decile_words)}


def cmd_stats(args, cfg, out: OutputSet) -> dict:
    docs = corpus.read_corpus_jsonl(args.input)
    rows = [("documents", len(docs), _avg(d.word_count() for d in docs))]
    if args.passages:
        passages = corpus.read_passages_jsonl(args.passages)
        rows.append(("passages", len(passages), _avg(p.word_end - p.word_start for p in passages)))
    if args.queries:
        qrows = queries.read_queries_jsonl(args.queries)
        rows.append(("queries", len(qrows), _avg(len(r["masked_text"].split()) for r in qrows)))
    if args.genset:
        insts = genset.read_genset_jsonl(args.genset)
        rows.append(("generation", len(insts), _avg(len(i.prompt_with_refs.split()) for i in insts)))
    print(f"{'collection':<12} {'count':>10} {'avg words':>10}")
    for name, count, avg in rows:
        print(f"{name:<12} {count:>10} {avg:>10.1f}")
    return {name: count for name, count, _ in rows}


def _avg(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _format_table(macro: dict) -> str:
    keys = sorted(macro)
    header = "  ".join(f"{k:>12}" for k in keys)
    values = "  ".join(f"{macro[k]:>12.4f}" for k in keys)
    return header + "\n" + values


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casebench",
        description="Corpus-to-benchmark toolkit for case-law retrieval and generation evaluation.",
    )
    parser.add_argument("--config", help="TOML-like key=value config file")
    parser.add_argument("--seed", type=int, help="seed for sampled artifacts")
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
    p.set_defaults(func=cmd_chunk)

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
    p.add_argument("--passage-qrels", help="also derive passage-level qrels")
    p.add_argument("--reporters")
    p.set_defaults(func=cmd_build_queries)

    p = sub.add_parser("build-genset", help="build generation instances with prompts")
    p.add_argument("input")
    p.add_argument("output")
    # SUPPRESS keeps an absent subcommand flag from overwriting the global --seed.
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--per-doc", type=int, dest="per_doc")
    p.add_argument("--salient-k", type=int, dest="salient_k")
    p.add_argument("--word-budget", type=int, dest="word_budget")
    p.add_argument("--reporters")
    p.set_defaults(func=cmd_build_genset)

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
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("search-quotes", help="n-gram or exact retrieval with quotes")
    p.add_argument("corpus")
    p.add_argument("quotes")
    p.add_argument("output")
    p.add_argument("--unit", default="passage", choices=["passage", "document"])
    p.add_argument("--mode", default="ngram", choices=["ngram", "exact"])
    p.add_argument("--n", type=int, dest="ngram_n", help="shingle length (default 5)")
    p.add_argument("--k", type=int, default=1000)
    p.set_defaults(func=cmd_search_quotes)

    p = sub.add_parser("eval-retrieval", help="Recall@k / nDCG@k on a TREC run")
    p.add_argument("run")
    p.add_argument("qrels")
    p.add_argument("--k", default="10,100,1000")
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
    p.set_defaults(func=cmd_eval_generation)

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
    cfg: dict = {}
    if args.config:
        cfg.update(load_config_file(args.config))
    # Flags override the config file.
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    _validate_config(cfg)
    return cfg


def _settings(args) -> dict:
    """Every flag and positional that names no file, as parsed.  Config
    keys are left out: the gathered config holds their effective values."""
    skip = {"command", "func", *INPUT_ROLES, *OUTPUT_PATHS, *CONFIG_KEYS}
    return {dest: value for dest, value in vars(args).items() if dest not in skip}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 is the data-error code.
        if exc.code == 2:
            return EXIT_USAGE
        raise
    out = OutputSet()
    try:
        cfg = _gather_config(args)
        counts = args.func(args, cfg, out)
    except BaseException as exc:
        out.discard_all()
        if isinstance(exc, ConfigError):
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if isinstance(exc, (corpus.DataError, OSError)):
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        raise
    if out.paths:
        manifest_path = out.paths[0].with_suffix(out.paths[0].suffix + ".manifest.json")
        inputs = {
            role: path
            for role in INPUT_ROLES
            if (path := getattr(args, role, None)) is not None and Path(path).exists()
        }
        write_manifest(manifest_path, args.command, {**_settings(args), **cfg}, inputs, counts)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
