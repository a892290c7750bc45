"""Bundled mini-corpus: three dozen hand-written synthetic cases covering
the citation forms the toolkit must handle (parallel reporters, pincite
ranges, Id./supra/at-page short forms, statutes, curly-quoted extracts,
spacing variants).  Used by the test suite and the docs walkthrough."""

from __future__ import annotations

from importlib import resources

from .corpus import CaseDocument, load_corpus_jsonl


def mini_corpus_path():
    return resources.files("casebench.data").joinpath("mini_corpus.jsonl")


def load_mini_corpus() -> list[CaseDocument]:
    # as_file gives a real path where the package is not unpacked on disk
    # (a zip install); open() takes no other resource.
    with resources.as_file(mini_corpus_path()) as path:
        docs, diagnostics = load_corpus_jsonl(path)
    if diagnostics:
        raise RuntimeError(f"bundled corpus failed to load cleanly: {diagnostics}")
    return docs
