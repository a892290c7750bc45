"""In-process chain runner with optional layer tracing.

Run as a script, it executes a list of CLI stages by calling
``casebench.cli.main(argv)`` for each, inside one process, and writes the
stage walls (and, when traced, the spans) to a JSON file::

    python3 perfbench/tracer.py SPEC.json RESULT.json

SPEC.json holds ``{"src": ..., "cwd": ..., "stages": [[name, argv], ...],
"traced": bool}``.

Tracing wraps every public function of the layer modules where its callers
look it up: ``corpus.tokenize_words`` is wrapped in ``corpus`` and also in
``queries`` and ``genset``, which import it by name.  Each call records a
span ``[name, start, end, parent, stage, counts]``; counts are taken after
the span closes, from the call's arguments and result, so they do not add
to the span's own time.  Spans stay in memory until the chain ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import math
import os
import sys
import time
from collections import Counter
from statistics import median

LAYERS = ("cli", "corpus", "citations", "queries", "genset", "retrieval", "metrics")

NAME, START, END, PARENT, STAGE, COUNTS = range(6)


class Tracer:
    """Collects nested spans from wrapped calls on one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.stage = ""

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.stage, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                tracer.stack.pop()
            if counter is not None:
                rec[COUNTS] = counter(args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _counters(mods) -> dict:
    """Per-function count hooks: (args, kwargs, result) -> dict.  They call
    the unwrapped functions captured here, so counting opens no spans."""
    import numpy as np

    analyze = mods["retrieval"].analyze
    bm25_idf = mods["retrieval"].bm25_idf
    fold_words = mods["corpus"].fold_words

    def text_chars(args, kwargs, result):
        return {"chars": len(_arg(args, kwargs, 0, "text", ""))}

    def bm25(args, kwargs, result):
        index = args[0]
        terms = Counter(analyze(_arg(args, kwargs, 1, "query_text", ""), index.analyzer))
        postings = 0
        scoring = []
        for term in terms:
            entry = index.postings.get(term)
            if entry is None:
                continue
            postings += len(entry[0])
            if bm25_idf(index.n_units, len(entry[0])) > 0.0:
                scoring.append(entry[0])
        candidates = int(np.unique(np.concatenate(scoring)).size) if scoring else 0
        return {
            "unit_kind": index.unit_kind,
            "postings": postings,
            "candidates": candidates,
            "returned": len(result.entries),
        }

    def load_index(args, kwargs, result):
        return {
            "bytes": os.path.getsize(args[0]),
            "postings": int(sum(len(ids) for ids, _ in result.postings.values())),
        }

    def rouge(args, kwargs, result):
        variant = str(_arg(args, kwargs, 2, "variant", 1)).lower()
        counts = {"variant": variant}
        if variant == "l":
            counts["cells"] = len(fold_words(args[0])) * len(fold_words(args[1]))
        return counts

    return {
        "corpus.tokenize_words": lambda a, k, r: {"words": len(r)},
        "citations.find_citations": text_chars,
        "citations.find_case_citations": text_chars,
        "citations.find_statute_citations": text_chars,
        "queries.build_query": lambda a, k, r: {"doc": a[0].doc_id},
        "queries.with_view": lambda a, k, r: {"doc": a[0].doc_id},
        "retrieval.bm25_search": bm25,
        "retrieval.load_index": load_index,
        "metrics.rouge_f": rouge,
    }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module, and the n-gram
    index constructor, in every casebench namespace that names them."""
    import importlib

    mods = {layer: importlib.import_module(f"casebench.{layer}") for layer in LAYERS}
    counters = _counters(mods)
    wrapped = {}
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                qual = f"{layer}.{name}"
                wrapped[obj] = tracer.wrap(qual, obj, counters.get(qual))
    namespaces = [m for n, m in sorted(sys.modules.items()) if n == "casebench" or n.startswith("casebench.")]
    for mod in namespaces:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    ngram = mods["retrieval"].NgramIndex
    ngram.__init__ = tracer.wrap("retrieval.NgramIndex", ngram.__init__)


def run_chain(spec: dict) -> dict:
    """Run the stages in-process; return stage walls, CPU times, exit codes,
    the import time of the CLI module and, when traced, the spans."""
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import casebench.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    if spec["traced"]:
        install(tracer)
    os.chdir(spec["cwd"])
    stages = []
    for name, argv in spec["stages"]:
        tracer.stage = name
        w0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        stages.append(
            {"name": name, "wall_s": time.perf_counter() - w0, "cpu_s": time.process_time() - c0, "exit": code}
        )
    return {"import_s": import_s, "stages": stages, "spans": tracer.spans}


# ---------------------------------------------------------------------------
# Span arithmetic and per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    child spans (the union of the children's intervals, clipped to it)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[END] - s[START]) - covered)
    return out


def _ancestors(spans: list, i: int):
    p = spans[i][PARENT]
    while p >= 0:
        yield spans[p]
        p = spans[p][PARENT]


def _outermost(spans: list, names) -> list:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    names = set(names)
    return [
        s
        for i, s in enumerate(spans)
        if s[NAME] in names and not any(a[NAME] in names for a in _ancestors(spans, i))
    ]


def _under(spans: list, name: str, prefix: str) -> list:
    """Spans called ``name`` with an ancestor whose name starts with ``prefix``."""
    return [
        s
        for i, s in enumerate(spans)
        if s[NAME] == name and any(a[NAME].startswith(prefix) for a in _ancestors(spans, i))
    ]


def _dur(spans) -> float:
    return sum(s[END] - s[START] for s in spans)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v), max(1, math.ceil(q * len(v)))) - 1]


def _ms(spans) -> list[float]:
    return [1000.0 * (s[END] - s[START]) for s in spans]


def layer_metrics(result: dict, context: dict) -> dict:
    """Per-layer metrics of one traced chain.

    ``context`` carries ``corpus_words`` and ``corpus_chars`` (the sizes of
    the workload's corpus), ``bucket_of`` (doc id -> length bucket) and
    ``built_frac`` (from the build-queries manifest, 0 when absent).
    """
    spans = result["spans"]
    by = {}
    for s in spans:
        by.setdefault(s[NAME], []).append(s)
    get = lambda name: by.get(name, [])  # noqa: E731
    selfs = self_times(spans)
    m: dict[str, float] = {}

    stage_wall = sum(st["wall_s"] for st in result["stages"])
    for st in result["stages"]:
        m[f"cli.{st['name']}.wall_s"] = st["wall_s"]
        m[f"cli.{st['name']}.cpu_s"] = st["cpu_s"]
    m["cli.stage_wall_s"] = stage_wall
    m["cli.stage_cpu_s"] = sum(st["cpu_s"] for st in result["stages"])
    # Per-process start-up of a stage: module import plus everything in
    # main() before the subcommand runs (parser construction, parsing,
    # config gathering).
    pre = []
    for i, s in enumerate(spans):
        if s[NAME].startswith("cli.cmd_") and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "cli.main":
            pre.append(s[START] - spans[s[PARENT]][START])
    m["cli.startup_s"] = result["import_s"] + (median(pre) if pre else 0.0)
    m["cli.manifest_s"] = _dur(get("cli.write_manifest"))

    layer_self = Counter()
    for s, t in zip(spans, selfs):
        layer_self[s[NAME].split(".", 1)[0]] += t
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.self_frac"] = layer_self[layer] / stage_wall if stage_wall else 0.0

    words = max(1, context["corpus_words"])
    chars = max(1, context["corpus_chars"])
    m["corpus.load_s"] = _dur(
        _outermost(spans, ("corpus.read_corpus_jsonl", "corpus.read_passages_jsonl", "corpus.load_corpus_jsonl"))
    )
    m["corpus.chunk_s"] = _dur(get("corpus.chunk_document"))
    tok = get("corpus.tokenize_words")
    m["corpus.tokenize_calls"] = len(tok)
    m["corpus.words_tokenized_per_corpus_word"] = sum(s[COUNTS]["words"] for s in tok) / words

    finds = _outermost(
        spans, ("citations.find_citations", "citations.find_case_citations", "citations.find_statute_citations")
    )
    m["citations.find_s"] = _dur(finds)
    m["citations.find_calls"] = len(finds)
    m["citations.chars_scanned_per_corpus_char"] = sum(s[COUNTS]["chars"] for s in finds) / chars
    m["citations.sentence_bounds_s"] = _dur(get("citations.citation_sentence_bounds"))
    m["citations.quotes_s"] = _dur(_outermost(spans, ("citations.extract_direct_quotes",)))

    bq = get("queries.build_query")
    m["queries.build_query_ms_p50"] = percentile(_ms(bq), 0.50)
    m["queries.build_query_ms_p99"] = percentile(_ms(bq), 0.99)
    per_bucket: dict[str, list[float]] = {}
    centrals = Counter()
    for s in bq:
        b = context["bucket_of"].get(s[COUNTS]["doc"], "other")
        centrals[b] += 1
        per_bucket.setdefault(b, []).append(s[END] - s[START])
    for s in get("queries.with_view"):
        b = context["bucket_of"].get(s[COUNTS]["doc"], "other")
        per_bucket.setdefault(b, []).append(s[END] - s[START])
    for b in sorted(per_bucket):
        m[f"queries.ms_per_central.{b}"] = 1000.0 * sum(per_bucket[b]) / max(1, centrals[b])
    m["queries.with_view_s"] = _dur(get("queries.with_view"))
    m["queries.built_frac"] = context.get("built_frac", 0.0)

    m["genset.instance_ms_p50"] = percentile(_ms(get("genset.build_generation_instance")), 0.50)
    m["genset.select_s"] = _dur(get("genset.select_reference_paragraphs"))
    salient = _under(spans, "retrieval.build_index", "genset.") + _under(spans, "retrieval.bm25_search", "genset.")
    m["genset.salient_index_builds"] = len(_under(spans, "retrieval.build_index", "genset."))
    m["genset.salient_s"] = _dur(salient)

    m["retrieval.analyze_s"] = _dur(get("retrieval.analyze"))
    m["retrieval.index_build_s"] = _dur(get("retrieval.build_index"))
    m["retrieval.index_save_s"] = _dur(get("retrieval.save_index"))
    loads = get("retrieval.load_index")
    m["retrieval.index_load_s"] = _dur(loads)
    postings = sum(s[COUNTS]["postings"] for s in loads)
    m["retrieval.index_bytes_per_posting"] = sum(s[COUNTS]["bytes"] for s in loads) / postings if postings else 0.0
    searches = _under(spans, "retrieval.bm25_search", "cli.cmd_search")
    for kind in ("passage", "document"):
        ms = _ms([s for s in searches if s[COUNTS]["unit_kind"] == kind])
        m[f"retrieval.search_ms_p50.{kind}"] = percentile(ms, 0.50)
        m[f"retrieval.search_ms_p99.{kind}"] = percentile(ms, 0.99)
    n = len(searches)
    cands = sum(s[COUNTS]["candidates"] for s in searches)
    m["retrieval.postings_per_query"] = sum(s[COUNTS]["postings"] for s in searches) / n if n else 0.0
    m["retrieval.candidates_per_query"] = cands / n if n else 0.0
    m["retrieval.topk_frac"] = sum(s[COUNTS]["returned"] for s in searches) / cands if cands else 0.0
    m["retrieval.maxp_s"] = _dur(get("retrieval.aggregate_maxp"))
    m["retrieval.ngram_index_build_s"] = _dur(get("retrieval.NgramIndex"))
    m["retrieval.ngram_search_ms_p50"] = percentile(_ms(get("retrieval.ngram_search")), 0.50)
    fallbacks = _under(spans, "retrieval.exact_match_search", "retrieval.ngram_search")
    direct_exact = [s for s in get("retrieval.exact_match_search") if not any(s is f for f in fallbacks)]
    m["retrieval.exact_search_ms_p50"] = percentile(_ms(direct_exact), 0.50)
    m["retrieval.short_quote_fallbacks"] = len(fallbacks)

    m["metrics.evaluate_run_s"] = _dur(get("metrics.evaluate_run"))
    rouge = get("metrics.rouge_f")
    m["metrics.rouge_l_s"] = _dur([s for s in rouge if s[COUNTS]["variant"] == "l"])
    m["metrics.rouge_n_s"] = _dur([s for s in rouge if s[COUNTS]["variant"] != "l"])
    m["metrics.citation_report_s"] = _dur(get("metrics.citation_report"))
    m["metrics.lcs_cells"] = sum(s[COUNTS].get("cells", 0) for s in rouge)
    return m


def main(argv=None) -> int:
    spec_path, out_path = (argv or sys.argv[1:])[:2]
    with open(spec_path, "r", encoding="utf-8") as f:
        spec = json.load(f)
    result = run_chain(spec)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
