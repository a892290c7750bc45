"""casebench: turn a case-law corpus into retrieval and generation
benchmarks, retrieve lexically, and score the results."""

from .citations import (
    CitationError,
    CitationKey,
    CitationSpan,
    QuoteSpan,
    ReporterTable,
    citation_sentence_bounds,
    extract_direct_quotes,
    find_case_citations,
    find_citations,
    find_statute_citations,
    load_reporter_table,
    parse_citation_key,
)
from .corpus import (
    CaseDocument,
    DataError,
    Passage,
    WordSpan,
    chunk_document,
    load_corpus,
    tokenize_words,
)
from .genset import (
    DensityProfile,
    GenerationInstance,
    build_generation_instance,
    build_genset,
    citation_density_profile,
    render_prompt,
    select_reference_paragraphs,
)
from .metrics import (
    CitationReport,
    MetricReport,
    citation_report,
    citation_report_from_keys,
    compare_runs,
    ndcg_at_k,
    recall_at_k,
    rouge_f,
    score_generation_run,
)
from .minicorpus import load_mini_corpus
from .queries import (
    ParsedDocument,
    QrelsEntry,
    RetrievalQuery,
    build_queries,
    build_query,
    parse_document,
)
from .retrieval import (
    AnalyzerConfig,
    EmptyQuoteError,
    InvertedIndex,
    NgramIndex,
    RankedList,
    bm25_rank,
    bm25_search,
    build_index,
    exact_match_search,
    load_index,
    ngram_search,
    save_index,
)

__version__ = "0.1.0"
