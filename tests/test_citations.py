from __future__ import annotations

import inspect
import random

import pytest

import citation_oracles
from casebench import citations, genset, metrics, queries
from casebench.citations import (
    CitationError,
    CitationKey,
    ReporterTable,
    citation_sentence_bounds,
    default_reporter_table,
    extract_direct_quotes,
    find_case_citations,
    find_citations,
    find_statute_citations,
    load_reporter_table,
    parse_citation_key,
    sentence_extraction_accuracy,
)

TABLE = load_reporter_table()

# A summary-judgment passage in the Bluebook style the parser targets.
PASSAGE = (
    "Summary judgment should be granted where “the pleadings, depositions, answers "
    "to interrogatories and admissions on file, together with the affidavits, if any, "
    "show there is no genuine issue as to any material fact and that the moving party "
    "is entitled to judgment as a matter of law.” Fed.R.Civ.P. 56(c). The moving party "
    "has the responsibility of informing the Court of portions of the record or "
    "affidavits that demonstrate the absence of a triable issue. Celotex Corp. v. "
    "Catrett, 477 U.S. 317, 322, 106 S.Ct. 2548, 91 L.Ed.2d 265 (1986). The moving "
    "party may meet its burden of showing an absence of disputed material facts by "
    "demonstrating “that there is an absence of evidence to support the non-moving "
    "party’s case.” Id. at 325, 106 S.Ct. 2548. Any doubt as to the existence of a "
    "genuine issue for trial is resolved against the moving party. Anderson v. "
    "Liberty Lobby, Inc., 477 U.S. 242, 255, 106 S.Ct. 2505, 91 L.Ed.2d 202 (1986); "
    "accord Smith v. Jones, 1 F.3d 1 (1st Cir.1993)."
)


class TestOneExplicitTable:
    """Only the entry points fall back to the default reporter table; every
    function below them must be handed one."""

    def test_reporters_required_below_the_entry_points(self):
        required = [
            citations.find_case_citations,
            citations.find_citations,
            citations.parse_citation_key,
            citations.sentence_extraction_accuracy,
            queries.parse_document,
            queries.build_corpus_key_index,
            genset.select_reference_paragraphs,
            genset.build_generation_instance,
            genset.citation_density_profile,
            metrics.citation_report,
        ]
        for fn in required:
            param = inspect.signature(fn).parameters["reporters"]
            assert param.default is inspect.Parameter.empty, fn.__name__

    def test_entry_points_default_to_the_default_table(self):
        for fn in (queries.build_queries, genset.build_genset, metrics.score_generation_run):
            assert inspect.signature(fn).parameters["reporters"].default is None, fn.__name__
        assert inspect.signature(citations.load_reporter_table).parameters["path"].default is None
        assert load_reporter_table() is default_reporter_table()

    def test_forgotten_table_is_a_type_error(self):
        with pytest.raises(TypeError):
            find_citations("See 477 U.S. 317 (1986).")


class TestFindCaseCitations:
    def test_parallel_run_yields_three_spans(self):
        text = "Celotex Corp. v. Catrett, 477 U.S. 317, 322, 106 S.Ct. 2548, 91 L.Ed.2d 265 (1986)"
        spans = find_case_citations(text, TABLE)
        assert [str(s.key) for s in spans] == ["477 U.S. 317", "106 S.Ct. 2548", "91 L.Ed.2d 265"]

    def test_no_citations(self):
        assert find_case_citations("no citations here", TABLE) == []

    def test_pincite_and_court_year_absorbed(self):
        spans = find_case_citations("51 F.3d 1449, 1459 (9th Cir.1995)", TABLE)
        assert len(spans) == 1
        assert spans[0].raw == "51 F.3d 1449, 1459 (9th Cir.1995)"
        assert str(spans[0].key) == "51 F.3d 1449"

    def test_pincite_range(self):
        spans = find_case_citations("404 U.S. 519, 520-21 (1972)", TABLE)
        assert len(spans) == 1
        assert str(spans[0].key) == "404 U.S. 519"

    def test_en_dash_pincite_range(self):
        spans = find_case_citations("404 U.S. 519, 520–21 (1972)", TABLE)
        assert len(spans) == 1
        assert spans[0].raw.endswith("(1972)")

    def test_parallel_volume_not_swallowed_as_pincite(self):
        spans = find_case_citations("477 U.S. 317, 106 S.Ct. 2548", TABLE)
        assert [str(s.key) for s in spans] == ["477 U.S. 317", "106 S.Ct. 2548"]

    def test_adjacent_number_does_not_split(self):
        spans = find_case_citations("144 S.Ct. 901, 218 L.Ed.2d 44 (2023)", TABLE)
        assert [str(s.key) for s in spans] == ["144 S.Ct. 901", "218 L.Ed.2d 44"]

    def test_spaced_reporter_variants(self):
        spans = find_case_citations("See 404 U. S. 519, 520 (1972) and 627 F. 2d 83, 86 (CA7 1980).", TABLE)
        assert [str(s.key) for s in spans] == ["404 U.S. 519", "627 F.2d 83"]

    def test_ordered_and_nonoverlapping(self, mini_corpus):
        for doc in mini_corpus:
            spans = find_case_citations(doc.text, TABLE)
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start
            for s in spans:
                assert doc.text[s.start : s.end] == s.raw


class TestFindStatuteCitations:
    def test_frcp(self):
        spans = find_statute_citations("Fed.R.Civ.P. 56(c)")
        assert len(spans) == 1 and spans[0].kind == "statute"

    def test_usc(self):
        spans = find_statute_citations("29 U.S.C. § 1002(5)")
        assert len(spans) == 1
        assert spans[0].raw == "29 U.S.C. § 1002(5)"

    def test_prose_reference_is_not_a_citation(self):
        assert find_statute_citations("section 3(5) of ERISA") == []

    def test_usc_not_matched_as_case(self):
        assert find_case_citations("29 U.S.C. § 1002(5)", TABLE) == []


class TestShortForms:
    def test_id_resolves_to_preceding_case(self):
        spans = find_citations("See 477 U.S. 317, 322 (1986). Id. at 325.", TABLE)
        id_span = [s for s in spans if s.raw.startswith("Id.")][0]
        assert str(id_span.key) == "477 U.S. 317"

    def test_id_unresolved_across_paragraphs(self):
        spans = find_citations("See 477 U.S. 317 (1986).\nId. at 325.", TABLE)
        id_span = [s for s in spans if s.raw.startswith("Id.")][0]
        assert id_span.key is None

    def test_statute_blocks_id_resolution(self):
        spans = find_citations("See 477 U.S. 317 (1986). And 29 U.S.C. § 1002(5). Id.", TABLE)
        id_span = [s for s in spans if s.raw.startswith("Id.")][0]
        assert id_span.key is None

    def test_at_cite_resolves_by_volume_and_reporter(self):
        spans = find_citations("Hughes v. Rowe, 449 U.S. 5, 9 (1980). Later, 449 U.S. at 10.", TABLE)
        at_span = [s for s in spans if " at " in s.raw][-1]
        assert at_span.kind == "short-form"
        assert str(at_span.key) == "449 U.S. 5"


def overlaps_oracle(start, end, spans):
    """The full scan ``find_citations`` once filtered with."""
    return any(start < s.end and end > s.start for s in spans)


class TestOverlapFilter:
    """``_overlaps`` bisects disjoint spans sorted by start; the full scan
    judges it."""

    def test_random_disjoint_spans_match_the_scan(self):
        rng = random.Random(7)
        for _ in range(300):
            spans, pos = [], 0
            for _ in range(rng.randint(0, 8)):
                start = pos + rng.randint(0, 3)  # adjacent spans included
                pos = start + rng.randint(1, 5)
                spans.append(citations.CitationSpan(start, pos, "case", "x"))
            for _ in range(30):
                start = rng.randint(0, pos + 2)
                end = start + rng.randint(0, 6)
                assert citations._overlaps(start, end, spans) == overlaps_oracle(start, end, spans), (start, end, spans)

    # A case inside a statute, an at-page cite inside a case (their "5"),
    # and an id. inside a statute; none of the mini-corpus spans clash.
    CLASHES = "Smith, 5 U.S. 5 U.S. at 7. Later, 28 U.S.C. § 1291 U.S. 5 (1980). Fed.R.Civ.P. 56(id.) applies."

    def test_spans_inside_others_are_dropped(self):
        assert [(s.kind, s.raw) for s in find_citations(self.CLASHES, TABLE)] == [
            ("case", "5 U.S. 5"), ("statute", "28 U.S.C. § 1291"), ("statute", "Fed.R.Civ.P. 56(id.)"),
        ]

    def test_mini_corpus_spans_match_the_scan(self, mini_corpus, monkeypatch):
        texts = [doc.text for doc in mini_corpus]
        texts += ["\n\n".join(texts), self.CLASHES]
        got = [find_citations(text, TABLE) for text in texts]
        monkeypatch.setattr(citations, "_overlaps", overlaps_oracle)
        assert got == [find_citations(text, TABLE) for text in texts]


class TestNormalize:
    def test_spacing_variant_and_pincite_dropped(self):
        span = find_case_citations("477 U. S. 317, 322", TABLE)[0]
        assert span.key == CitationKey(477, "U.S.", 317)

    def test_court_year_parenthetical_dropped(self):
        span = find_case_citations("953 F.2d 1073, 1078 (7th Cir.1992)", TABLE)[0]
        assert str(span.key) == "953 F.2d 1073"

    def test_stray_leading_letter_stripped(self):
        span = find_case_citations("P51 F.3d 1449, 1459 (9th Cir.1995)", TABLE)[0]
        assert str(span.key) == "51 F.3d 1449"

    def test_round_trip_on_canonical_keys(self):
        rng = random.Random(99)
        reporters = ["U.S.", "S.Ct.", "L.Ed.2d", "F.2d", "F.3d", "F. Supp. 2d", "F.R.D.", "F."]
        for _ in range(200):
            key = CitationKey(rng.randint(1, 999), rng.choice(reporters), rng.randint(1, 9999))
            assert parse_citation_key(str(key), TABLE) == key

    def test_key_reads_back_from_its_own_string_under_no_table(self):
        rng = random.Random(7)
        reporters = ["U.S.", "US", "So.2d", "F. Supp. 2d", "F."]
        for _ in range(100):
            key = CitationKey(rng.randint(1, 999), rng.choice(reporters), rng.randint(1, 9999))
            assert CitationKey.from_str(str(key)) == key

    @pytest.mark.parametrize("text", ["", "455 US", "US 310", "x455 US 310", "455 US 3a10", "455  310"])
    def test_key_string_without_integer_volume_and_page_rejected(self, text):
        with pytest.raises(CitationError):
            CitationKey.from_str(text)


def central_span(text, key_str):
    return next(s for s in find_case_citations(text, TABLE) if str(s.key) == key_str)


def bounds(text, span):
    return citation_sentence_bounds(text, span, find_case_citations(text, TABLE))


class TestSentenceBounds:
    def test_caption_through_year_parenthetical(self):
        span = central_span(PASSAGE, "477 U.S. 317")
        start, end = bounds(PASSAGE, span)
        assert PASSAGE[start:end] == (
            "Celotex Corp. v. Catrett, 477 U.S. 317, 322, 106 S.Ct. 2548, 91 L.Ed.2d 265 (1986)."
        )

    def test_short_form_sentence_is_whole_string(self):
        span = central_span(PASSAGE, "106 S.Ct. 2548")
        # The parallel S.Ct. cite inside the Celotex sentence comes first;
        # the one in the Id. sentence is the second occurrence.
        spans = [s for s in find_case_citations(PASSAGE, TABLE) if str(s.key) == "106 S.Ct. 2548"]
        start, end = bounds(PASSAGE, spans[1])
        assert PASSAGE[start:end] == "Id. at 325, 106 S.Ct. 2548."

    def test_semicolon_terminates(self):
        span = central_span(PASSAGE, "477 U.S. 242")
        start, end = bounds(PASSAGE, span)
        got = PASSAGE[start:end]
        assert got.startswith("Anderson v. Liberty Lobby")
        assert got.endswith("91 L.Ed.2d 202 (1986);")

    def test_explanatory_parenthetical_closes_sentence(self):
        text = (
            "Officers are not exempt. See Kayes v. Pacific Lumber Co., 51 F.3d 1449, 1459 "
            "(9th Cir.1995) (“This court has held corporate officers to be liable as "
            "fiduciaries.”). Rather, he is liable."
        )
        span = find_case_citations(text, TABLE)[0]
        start, end = bounds(text, span)
        got = text[start:end]
        assert got.startswith("Kayes")
        assert got.endswith("fiduciaries.”).")

    def test_no_terminal_in_paragraph_fails(self):
        text = "some words 477 U.S. 317 and more words with no end"
        span = find_case_citations(text, TABLE)[0]
        assert bounds(text, span) is None

    def test_subsequent_history_absorbed(self):
        text = (
            "Control makes a fiduciary. IT Corp. v. General Am. Life Ins. Co., 107 F.3d "
            "1415, 1421 (9th Cir.1997), cert. denied, 522 U.S. 1068, 118 S.Ct. 738, 139 "
            "L.Ed.2d 675 (1998). Thus it is."
        )
        span = central_span(text, "107 F.3d 1415")
        start, end = bounds(text, span)
        assert text[start:end].endswith("(1998).")
        assert text[start:end].startswith("IT Corp.")

    def test_given_spans_are_the_only_skip_spans(self):
        # Not skipped, the parallel cites' year parenthetical closes the
        # sentence before its semicolon.
        span = central_span(PASSAGE, "477 U.S. 242")
        start, end = citation_sentence_bounds(PASSAGE, span, [])
        assert PASSAGE[start:end].endswith("91 L.Ed.2d 202 (1986)")

    def test_spans_of_other_paragraphs_are_ignored(self):
        text = "\n".join([PASSAGE] * 3)
        offset = len(PASSAGE) + 1
        spans = find_case_citations(text, TABLE)
        middle = [s for s in spans if offset <= s.start < 2 * offset]
        own = find_case_citations(PASSAGE, TABLE)
        assert len(middle) == len(own)
        for span, alone in zip(middle, own):
            lo, hi = bounds(PASSAGE, alone)
            assert citation_sentence_bounds(text, span, spans) == (lo + offset, hi + offset)
            assert citation_sentence_bounds(text, span, middle) == (lo + offset, hi + offset)

    def test_accuracy_metric(self):
        samples = []
        for text in [PASSAGE]:
            span = central_span(text, "477 U.S. 317")
            start, end = bounds(text, span)
            samples.append(
                {
                    "text": text,
                    "citation_start": span.start,
                    "citation_end": span.end,
                    "sentence_start": start,
                    "sentence_end": end,
                }
            )
        # One deliberately wrong label.
        samples.append(dict(samples[0], sentence_start=0, sentence_end=5))
        accuracy, n = sentence_extraction_accuracy(samples, TABLE)
        assert n == 2
        assert accuracy == 0.5

    def test_accuracy_uses_the_given_table(self):
        # Unknown to the default table, "So." reads as a sentence end.
        table = ReporterTable({**default_reporter_table().variants, "So. 2d": "So.2d"})
        text = "Smith v. Jones, 477 U.S. 317 (1986), followed in Brown v. Board, 123 So. 2d 456 (1960). Next."
        span = central_span(text, "477 U.S. 317")
        sample = {
            "text": text,
            "citation_start": span.start,
            "citation_end": span.end,
            "sentence_start": 0,
            "sentence_end": text.index(" Next."),
        }
        assert sentence_extraction_accuracy([sample], table) == (1.0, 1)
        assert sentence_extraction_accuracy([sample], TABLE) == (0.0, 1)


class TestDirectQuotes:
    def test_quote_pairs_with_following_id(self):
        quotes = extract_direct_quotes(PASSAGE, find_citations(PASSAGE, TABLE))
        target = [q for q in quotes if q.text.startswith("that there is an absence")]
        assert len(target) == 1
        paired = target[0].paired_citation
        assert paired is not None
        assert paired.raw.startswith("Id.")
        assert str(paired.key) == "91 L.Ed.2d 265"  # Id. resolves to the last parallel cite

    def test_ascii_quotes_ignored(self):
        text = 'he said "hello" to 477 U.S. 317'
        assert extract_direct_quotes(text, find_citations(text, TABLE)) == []

    def test_nearer_of_two_following_citations_wins(self):
        text = "“quoted words” 1 F.3d 1 (1st Cir.1993) and later 2 F.3d 2 (1st Cir.1994)."
        quotes = extract_direct_quotes(text, find_citations(text, TABLE))
        assert str(quotes[0].paired_citation.key) == "1 F.3d 1"

    def test_unpaired_when_farther_than_cap(self):
        text = "“quote”" + " filler" * 60 + " 1 F.3d 1 (1st Cir.1993)."
        quotes = extract_direct_quotes(text, find_citations(text, TABLE))
        assert quotes[0].paired_citation is None

    def test_unbalanced_opener_skipped(self):
        text = "“outer “inner” tail"
        quotes = extract_direct_quotes(text, find_citations(text, TABLE))
        assert [q.text for q in quotes] == ["inner"]

    def test_no_unmatched_marks_inside_spans(self, mini_corpus):
        for doc in mini_corpus:
            for q in extract_direct_quotes(doc.text, find_citations(doc.text, TABLE)):
                assert q.text.count("“") == q.text.count("”")

    def test_preceding_citation_pairs_for_explanatory_quote(self):
        text = "See Kayes v. Pacific Co., 51 F.3d 1449 (9th Cir.1995) (“officers are liable”)."
        quotes = extract_direct_quotes(text, find_citations(text, TABLE))
        assert str(quotes[0].paired_citation.key) == "51 F.3d 1449"


def walked_quote_spans(text):
    """The character walk that found the quote marks before the regex: the
    oracle for ``_balanced_quote_spans``."""
    stack, spans = [], []
    for i, ch in enumerate(text):
        if ch == "“":
            stack.append(i)
        elif ch == "”" and stack:
            spans.append((stack.pop() + 1, i))
    return sorted(spans)


class TestBalancedQuoteSpans:
    @pytest.mark.parametrize(
        "text, want",
        [
            ("“a “b” c”", [(1, 8), (4, 5)]),  # nested
            ("“”“”", [(1, 1), (3, 3)]),  # adjacent and empty
            ("” a “ b", []),  # unmatched closer, then unmatched opener
            ('"a" “b"', []),  # ASCII marks are not quote marks
        ],
    )
    def test_examples(self, text, want):
        assert citations._balanced_quote_spans(text) == want == walked_quote_spans(text)

    def test_matches_the_character_walk(self):
        rng = random.Random(201)
        for _ in range(3000):
            text = "".join(rng.choice("““””\"ab ") for _ in range(rng.randint(0, 30)))
            assert citations._balanced_quote_spans(text) == walked_quote_spans(text), text


# Pieces of random citation text: every pattern's opening character with and
# without a word boundary before it, OCR-lettered volumes, long s, reporter
# variants, statute signs, sentence punctuation and odd whitespace.
_CITE_PIECES = [
    "477 U.S. 317", "P51 F. Supp. 2d 9", "x7 F.3d 1", "12 U. S. 4, 9", "106 S.Ct. 2548", "(1986)", "(9th Cir.1995)",
    "5 U.S. at 7", "51 F. Supp. 2d at 3–4", "42 U.S.C. § 1983", "28 U.S.C. §§ 1291(a).", "Fed.R.Civ.P. 56(c).",
    "Id.", "id.", "Id. at 5", "supra", "SUPRA", "ſupra", "supra, at 4", "supra note 2", "Kſupra", "ısupra",
    "\u212asupra", "v.", "vs.", "Smith", "of", "the", "See", "See, e.g.,", "Cf.", "In re", "Corp.", "Inc.,", "Co.",
    "and", "Accord", "Accordingly", "E.g.,", "See\te.g.", "Seen",
    "A B C D E F G H I J K L M N", "“", "”", "’", '"', "said", "words", "1", "22", "8", "P", "§", ".", ",", "(",
    ")", ";", ":", "\n", "U.S.C. §", "F.", "Supp.", "2d",
]
_CITE_SEPARATORS = [" ", " ", " ", "", "\xa0", "\xa0\xa0", "　", " 　 ", "\t", "  "]


def random_citation_text(rng):
    pieces = [rng.choice(_CITE_PIECES) for _ in range(rng.randint(0, 24))]
    text = "".join(piece + rng.choice(_CITE_SEPARATORS) for piece in pieces)
    return rng.choice(["", " ", "\xa0　"]) + text + rng.choice(["", " ", "\n"])


def cases_of(spans):
    return [s for s in spans if s.kind == "case"]


class TestScannersMatchTheOracles:
    """The scanners open with the character they consume and visit only the
    punctuation a regex finds; the lookbehind patterns and character walks
    they replaced (``citation_oracles``) judge them."""

    def test_find_citations_on_random_text(self):
        rng = random.Random(2301)
        for _ in range(3000):
            text = random_citation_text(rng)
            assert find_citations(text, TABLE) == citation_oracles.find_citations(text, TABLE), text

    def test_find_case_citations_under_a_custom_table(self):
        table = ReporterTable({"U.S.": "U.S.", "Cal. App.": "Cal.App.", "P.": "P."})
        rng = random.Random(2302)
        for _ in range(1000):
            text = random_citation_text(rng).replace("F.3d", "Cal. App.").replace("S.Ct.", "P.")
            assert find_case_citations(text, table) == citation_oracles.find_case_citations(text, table), text

    @pytest.mark.parametrize(
        "text, want",
        [
            ("477 U.S. 317 (1986).", [(0, 19, "case")]),
            ("P51 F.2d 3 at first", [(0, 10, "case")]),
            ("Id. at 5.", [(0, 8, "short-form")]),
            ("supra, at 4.", [(0, 11, "short-form")]),
            ("ſupra note 2", [(0, 12, "short-form")]),
            ("5 U.S. at 7", [(0, 11, "short-form")]),
            ("42 U.S.C. § 1983.", [(0, 16, "statute")]),
            # A letter-prefixed volume right after ")" takes its letter.
            ("(1990)P51 F.2d 3.", [(6, 16, "case")]),
            # After a word character, period or section sign no volume opens.
            ("aP51 F.2d 3, §5 F.2d 3, .5 F.2d 3, 75 F.2d 3", [(35, 44, "case")]),
            ("xId. Kſupra ısupra", []),
        ],
    )
    def test_citation_at_the_edges(self, text, want):
        got = find_citations(text, TABLE)
        assert [(s.start, s.end, s.kind) for s in got] == want
        assert got == citation_oracles.find_citations(text, TABLE)
        assert all(s.raw == text[s.start : s.end] for s in got)

    def test_letter_volume_keeps_its_letter_and_key(self):
        text = "(1990)P51 F.2d 3."
        [span] = find_case_citations(text, TABLE)
        assert (span.raw, str(span.key)) == ("P51 F.2d 3", "51 F.2d 3")
        assert parse_citation_key("P51 F.2d 3", TABLE) == span.key

    def test_sentence_bounds_on_random_text(self):
        rng = random.Random(2303)
        checked = 0
        for _ in range(2000):
            text = random_citation_text(rng)
            spans = find_citations(text, TABLE)
            cases = cases_of(spans)
            probes = list(spans)
            for _ in range(3):
                if len(text) > 1:
                    start = rng.randrange(len(text) - 1)
                    probes.append(citations.CitationSpan(start, rng.randint(start + 1, len(text)), "case", ""))
            for span in probes:
                want = citation_oracles.citation_sentence_bounds(text, span, cases)
                assert citation_sentence_bounds(text, span, cases) == want, (text, span)
                checked += 1
        assert checked > 5000

    def test_starters_on_random_text(self):
        rng = random.Random(2307)
        for _ in range(3000):
            text = random_citation_text(rng)
            got = [m.span() for m in citations._STARTER_RE.finditer(text)]
            assert got == [m.span() for m in citation_oracles.STARTER_RE.finditer(text)], text

    def test_long_captions_take_at_most_twelve_words(self):
        rng = random.Random(2304)
        words = ["Alpha", "of", "the", "Beta,", "Co.", "See", "e.g.,", "(Gamma", "and", "D'", "7", ",", "in"]
        for n in range(0, 30):
            for _ in range(20):
                caption = " ".join(rng.choice(words) for _ in range(n))
                text = f"Earlier text. {caption} v. Jones, 477 U.S. 317 (1986)."
                [span] = find_case_citations(text, TABLE)
                want = citation_oracles.citation_sentence_bounds(text, span, [span])
                assert citation_sentence_bounds(text, span, [span]) == want, text
                v_pos = text.index(" v. ") + 1
                assert citations._caption_start(text, 0, v_pos) == citation_oracles.caption_start(text, 0, v_pos)

    def test_terminals_on_random_text(self):
        rng = random.Random(2305)
        for _ in range(2000):
            text = random_citation_text(rng)
            cases = [(s.start, s.end) for s in cases_of(find_citations(text, TABLE))]
            lo = rng.randint(0, len(text))
            hi = rng.randint(lo, len(text))
            for parens in (False, True):
                got = list(citations._iter_terminals(text, lo, hi, parens, cases))
                assert got == list(citation_oracles.walk_terminals(text, lo, hi, parens, cases)), (text, lo, hi)

    def test_direct_quotes_on_random_text(self, monkeypatch):
        rng = random.Random(2306)
        texts = [random_citation_text(rng) for _ in range(2000)]
        got = [extract_direct_quotes(text, find_citations(text, TABLE)) for text in texts]
        monkeypatch.setattr(citations, "_iter_terminals", citation_oracles.walk_terminals)
        assert got == [extract_direct_quotes(text, find_citations(text, TABLE)) for text in texts]

    def test_mini_corpus_matches_the_oracles(self, mini_corpus):
        for doc in mini_corpus:
            spans = find_citations(doc.text, TABLE)
            assert spans == citation_oracles.find_citations(doc.text, TABLE)
            cases = cases_of(spans)
            for span in spans:
                want = citation_oracles.citation_sentence_bounds(doc.text, span, cases)
                assert citation_sentence_bounds(doc.text, span, cases) == want
