"""casebench: turn a case-law corpus into retrieval and generation
benchmarks, retrieve lexically, and score the results.

The public names below, and the modules themselves (``casebench.metrics``),
are imported on first use (PEP 562), so ``import casebench`` and each CLI
command load only the modules they run.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "citations": (
            "CitationError", "CitationKey", "CitationSpan", "QuoteSpan", "ReporterTable",
            "citation_sentence_bounds", "extract_direct_quotes", "find_case_citations", "find_citations",
            "find_statute_citations", "load_reporter_table", "parse_citation_key",
        ),
        "corpus": (
            "CaseDocument", "DataError", "Passage", "chunk_document", "load_corpus",
        ),
        "genset": (
            "DensityProfile", "GenerationInstance", "build_generation_instance", "build_genset",
            "citation_density_profile", "render_prompt", "select_reference_paragraphs",
        ),
        "metrics": (
            "CitationReport", "MetricReport", "citation_report", "citation_report_from_keys", "compare_runs",
            "ndcg_at_k", "recall_at_k", "rouge_f", "score_generation_run",
        ),
        "minicorpus": ("load_mini_corpus",),
        "queries": (
            "ParsedDocument", "QrelsEntry", "RetrievalQuery", "build_queries", "build_query", "parse_document",
        ),
        "retrieval": (
            "AnalyzerConfig", "EmptyQuoteError", "InvertedIndex", "NgramIndex", "RankedList", "bm25_rank",
            "bm25_search", "build_index", "exact_match_search", "load_index", "ngram_search", "save_index",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


_MODULES = frozenset(_EXPORTS.values())


def __getattr__(name: str):
    # Importing a submodule binds it in globals(), so each name resolves once.
    if name in _MODULES:
        return _import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULES})
