"""Reference tokenizer ``retrieval.analyze`` is checked against: one regex
per ``AnalyzerConfig``, each run over ``text.lower()`` when the config
lowercases.  Slow and plain on purpose."""

from __future__ import annotations

import re

from casebench.retrieval import AnalyzerConfig

TOKEN_RES = {
    (True, True): re.compile(r"[0-9a-z]+(?:\.[0-9a-z]+)*"),
    (True, False): re.compile(r"[0-9a-z]+"),
    (False, True): re.compile(r"[0-9A-Za-z]+(?:\.[0-9A-Za-z]+)*"),
    (False, False): re.compile(r"[0-9A-Za-z]+"),
}

CONFIGS = [AnalyzerConfig(lowercase, periods) for lowercase in (True, False) for periods in (True, False)]


def analyze(text: str, config: AnalyzerConfig = AnalyzerConfig()) -> list[str]:
    if config.lowercase:
        text = text.lower()
    return TOKEN_RES[config.lowercase, config.keep_citation_periods].findall(text)
