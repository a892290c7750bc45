from __future__ import annotations

import random
from collections import Counter

import pytest

import query_oracles
from casebench.citations import (
    KIND_CASE,
    ReporterTable,
    default_reporter_table,
    find_case_citations,
    find_statute_citations,
    load_reporter_table,
)
from casebench.corpus import read_qrels
from casebench.queries import (
    _GAP_RE,
    KIND_DIRECT,
    KIND_INDIRECT,
    VIEW_ALL_REMOVED,
    VIEW_SINGLE_REMOVED,
    QrelsEntry,
    build_corpus_key_index,
    build_queries,
    build_query,
    parse_document,
    passage_qrels,
    write_qrels,
)
from conftest import make_doc

TABLE = load_reporter_table()

# A window-sized passage with one statute, a central citation with a quote
# attributed through an Id. short form, and one non-central citation.
QUERY_PARAGRAPH = (
    "Summary judgment is proper only where the record shows no genuine dispute. "
    "Fed.R.Civ.P. 56(c). The movant must identify the parts of the record showing "
    "the absence of a triable issue. Tilden v. Marsh Chemical Corp., 601 U.S. 101, "
    "105, 144 S.Ct. 901, 218 L.Ed.2d 44 (2023). The movant may do so by showing "
    "“an absence of proof on an essential element of the claim.” Id. at "
    "107, 144 S.Ct. 901. All doubts are resolved against the movant. Orton v. "
    "Delmar Packing Co., 602 U.S. 555, 560 (2024)."
)


def query_doc():
    return make_doc("qdoc", ["Intro paragraph without citations.", QUERY_PARAGRAPH], cite="9 F.3d 9")


def central_of(doc, key_str):
    return next(s for s in find_case_citations(doc.text, TABLE) if str(s.key) == key_str)


def one_query(doc, central, window_words=300, view=VIEW_SINGLE_REMOVED):
    built = build_query(parse_document(doc, TABLE), central, window_words, (view,))
    return None if built is None else built[view]


def so2d_table():
    """The default reporter table extended with Southern Reporter, 2d."""
    return ReporterTable({**default_reporter_table().variants, "So. 2d": "So.2d", "So.2d": "So.2d"})


class TestBuildQuery:
    def test_edge_citation_window_split(self):
        # Word 19 ends a sentence; the citation starts at word position 20 of
        # a 1000-word document, so the left side truncates to 20 words while
        # the right side keeps its full 150.
        words = [f"w{i}" for i in range(19)] + ["end."]
        words += ["477", "U.S.", "317", "(1986)."]
        words += [f"v{i}" for i in range(976)]
        doc = make_doc("edge", [" ".join(words)])
        central = find_case_citations(doc.text, TABLE)[0]
        q = one_query(doc, central, window_words=300)
        assert len(q.left_context.split()) == 20
        combined = len(q.central_sentence.split()) + len(q.right_context.split())
        assert combined == 150

    def test_interior_window_word_count_bounds(self):
        filler = " ".join(f"x{i}" for i in range(400)) + "."
        doc = make_doc("big", [filler + " " + QUERY_PARAGRAPH + " " + filler])
        central = central_of(doc, "601 U.S. 101")
        q = one_query(doc, central, window_words=300)
        total = len((q.left_context + q.central_sentence + q.right_context).split())
        sentence_words = len(q.central_sentence.split())
        assert 300 <= total <= 300 + sentence_words

    def test_single_removed_keeps_non_central_citations_and_statutes(self):
        doc = query_doc()
        q = one_query(doc, central_of(doc, "601 U.S. 101"), view=VIEW_SINGLE_REMOVED)
        assert "601 U.S. 101" not in q.masked_text
        assert "Orton v. Delmar Packing Co., 602 U.S. 555" in q.masked_text
        assert "Fed.R.Civ.P. 56(c)" in q.masked_text
        assert "REDACTED" in q.display_text
        assert "REDACTED" not in q.masked_text

    def test_single_removed_reparse_never_finds_central_key(self):
        doc = query_doc()
        q = one_query(doc, central_of(doc, "601 U.S. 101"), view=VIEW_SINGLE_REMOVED)
        for span in find_case_citations(q.masked_text, TABLE):
            assert span.key != q.target_keys[0]

    def test_all_removed_strips_all_case_citations_keeps_statutes(self):
        doc = query_doc()
        q = one_query(doc, central_of(doc, "601 U.S. 101"), view=VIEW_ALL_REMOVED)
        assert find_case_citations(q.masked_text, TABLE) == []
        assert [s.raw for s in find_statute_citations(q.masked_text)] == ["Fed.R.Civ.P. 56(c)"]
        assert "Id." not in q.masked_text

    def test_parallel_keys_become_targets(self):
        doc = query_doc()
        q = one_query(doc, central_of(doc, "601 U.S. 101"))
        assert [str(k) for k in q.target_keys] == ["601 U.S. 101", "144 S.Ct. 901", "218 L.Ed.2d 44"]

    def test_residual_central_mention_also_masked(self):
        text = (
            "First cite here. See Tilden v. Marsh Chemical Corp., 601 U.S. 101, 105 "
            "(2023). Some middle words. The same case again, 601 U.S. 101, 110 (2023), "
            "settles the point."
        )
        doc = make_doc("residual", [text])
        q = one_query(doc, find_case_citations(doc.text, TABLE)[0])
        assert "601 U.S. 101" not in q.masked_text

    def test_no_citation_text_unchanged_under_both_views(self):
        text = "Plain words without any citation at all. Fed.R.Civ.P. 56(c) stays."
        doc = make_doc("plain", [text, QUERY_PARAGRAPH])
        central = central_of(doc, "602 U.S. 555")
        built = build_query(parse_document(doc, TABLE), central, views=(VIEW_SINGLE_REMOVED, VIEW_ALL_REMOVED))
        sr = built[VIEW_SINGLE_REMOVED].masked_text
        ar = built[VIEW_ALL_REMOVED].masked_text
        # The first paragraph carries no case citations: identical in both views.
        assert text.split(". ")[0] in sr and text.split(". ")[0] in ar

    def test_bounds_failure_skips_query(self):
        doc = make_doc("nofail", ["words 477 U.S. 317 with no ending at all"])
        central = find_case_citations(doc.text, TABLE)[0]
        assert build_query(parse_document(doc, TABLE), central) is None

    def test_window_edge_cutting_a_target_citation_is_masked(self):
        # The 40-word window ends inside the second citation of the central
        # case: its in-window part must go, not survive as "477 U.S. 317,".
        filler = " ".join(f"w{i}" for i in range(30))
        text = (
            filler + ". The rule comes from Smith v. Jones, 477 U.S. 317 (1986). one two three four "
            "five six seven eight nine ten Later cases agree, 477 U.S. 317, 322 (1986). End."
        )
        doc = make_doc("cut", [text])
        central = find_case_citations(doc.text, TABLE)[0]
        built = build_query(parse_document(doc, TABLE), central, 40, (VIEW_SINGLE_REMOVED, VIEW_ALL_REMOVED))
        for q in built.values():
            assert q.right_context.endswith("477 U.S. 317,")
            assert "477 U.S." not in q.masked_text
            assert q.masked_text.endswith("Later cases agree,")

    def test_empty_views_rejected(self):
        doc = query_doc()
        with pytest.raises(ValueError):
            build_query(parse_document(doc, TABLE), central_of(doc, "601 U.S. 101"), views=())


def parallel_group_oracle(cases, central, text):
    """The run of ``cases`` (case citations, by start) joined to ``central``
    by bare ", " gaps on one line, found by walking out from ``central``."""
    try:
        idx = next(i for i, c in enumerate(cases) if c.start == central.start and c.end == central.end)
    except StopIteration:
        return [central]

    def joined(i):
        gap = text[cases[i].end : cases[i + 1].start]
        return _GAP_RE.match(gap) and "\n" not in gap

    lo = idx
    while lo > 0 and joined(lo - 1):
        lo -= 1
    hi = idx
    while hi + 1 < len(cases) and joined(hi):
        hi += 1
    return cases[lo : hi + 1]


def target_keys_oracle(parsed, central):
    """The keys of the central's parallel run in order, led by the central
    key when the run lacks it; a short form takes its antecedent's run, the
    last case citation before it with its key, found by a reversed scan."""
    if central.kind == KIND_CASE:
        group = parallel_group_oracle(parsed.cases, central, parsed.text)
    else:
        antecedent = next(
            (c for c in reversed(parsed.citations)
             if c.kind == KIND_CASE and c.end <= central.start and c.key == central.key),
            None,
        )
        group = parallel_group_oracle(parsed.cases, antecedent, parsed.text) if antecedent else [central]
    target_keys = []
    for span in group:
        if span.key is not None and span.key not in target_keys:
            target_keys.append(span.key)
    if central.key not in target_keys:
        target_keys.insert(0, central.key)
    return tuple(target_keys)


# Each way a run of parallel reporters starts, ends or repeats a key, and
# both kinds of keyed short form.
TARGETS_PARAGRAPHS = [
    "The rule is old. Tilden v. Marsh Chemical Corp., 601 U.S. 101, 144 S.Ct. 901, 218 L.Ed.2d 44 (2023). "
    "Id. at 105.",
    "Two cases share a volume. Smith v. Jones, 477 U.S. 317 (1986); Doe v. Roe, 477 U.S. 400, "
    "106 S.Ct. 2000 (1986). The later one controls. 477 U.S. at 405.",
    "A run split by a line break: Brown v. Board, 347 U.S. 483,",
    "74 S.Ct. 686 (1954). A gap with a word: Roe v. Wade, 410 U.S. 113, and 93 S.Ct. 705 (1973). "
    "One key twice: Hughes v. Rowe, 449 U.S. 5, 449 U.S. 5, 101 S.Ct. 173 (1980).",
]


class TestTargets:
    """``ParsedDocument.targets`` maps every central to the keys a
    walk-out-and-scan oracle gives it."""

    def test_hand_built_document(self):
        parsed = parse_document(make_doc("targets", TARGETS_PARAGRAPHS), TABLE)
        targets = {c.raw: [str(k) for k in parsed.targets[c.start]] for c in parsed.centrals()}
        tilden = ["601 U.S. 101", "144 S.Ct. 901", "218 L.Ed.2d 44"]
        doe = ["477 U.S. 400", "106 S.Ct. 2000"]
        hughes = ["449 U.S. 5", "101 S.Ct. 173"]
        assert targets == {
            "601 U.S. 101": tilden,
            "144 S.Ct. 901": tilden,
            "218 L.Ed.2d 44 (2023)": tilden,
            "Id. at 105": tilden,
            "477 U.S. 317 (1986)": ["477 U.S. 317"],
            "477 U.S. 400": doe,
            "106 S.Ct. 2000 (1986)": doe,
            "477 U.S. at 405": doe,
            "347 U.S. 483": ["347 U.S. 483"],
            "74 S.Ct. 686 (1954)": ["74 S.Ct. 686"],
            "410 U.S. 113": ["410 U.S. 113"],
            "93 S.Ct. 705 (1973)": ["93 S.Ct. 705"],
            "449 U.S. 5": hughes,
            "101 S.Ct. 173 (1980)": hughes,
        }
        assert sum(1 for c in parsed.centrals() if c.raw == "449 U.S. 5") == 2
        for central in parsed.centrals():
            assert parsed.targets[central.start] == target_keys_oracle(parsed, central)

    def test_short_form_central_query_targets_its_antecedent_run(self):
        parsed = parse_document(make_doc("targets", TARGETS_PARAGRAPHS), TABLE)
        for raw in ("Id. at 105", "477 U.S. at 405"):
            central = next(c for c in parsed.centrals() if c.raw == raw)
            built = build_query(parsed, central, 100, (VIEW_SINGLE_REMOVED, VIEW_ALL_REMOVED))
            for q in built.values():
                assert q.target_keys == target_keys_oracle(parsed, central)
                assert len(q.target_keys) > 1

    def test_mini_corpus_matches_oracle(self, mini_corpus):
        short_forms = 0
        for doc in mini_corpus:
            parsed = parse_document(doc, TABLE)
            centrals = parsed.centrals()
            assert set(parsed.targets) == {c.start for c in centrals}
            for central in centrals:
                assert parsed.targets[central.start] == target_keys_oracle(parsed, central)
                short_forms += central.kind != KIND_CASE
        assert short_forms > 0

    def test_central_from_another_document_rejected(self):
        parsed = parse_document(query_doc(), TABLE)
        stray = parse_document(make_doc("targets", TARGETS_PARAGRAPHS), TABLE).centrals()[0]
        assert stray.start not in parsed.targets
        with pytest.raises(ValueError):
            build_query(parsed, stray)


class TestResidualShortForms:
    """A short form left in the window outside the central sentence is
    tallied; one inside the masked sentence is not."""

    def corpus(self):
        in_context = make_doc("in-context", [
            "The rule is settled. Smith v. Jones, 477 U.S. 317 (1986). Later courts read the rule "
            "of the case cited supra broadly."
        ])
        in_sentence = make_doc("in-sentence", [
            "The rule is settled. Smith v. Jones, 477 U.S. 317 (1986), and the case cited supra agree. "
            "Later courts read the rule broadly."
        ])
        return [in_context, in_sentence, make_doc("smith", ["Opinion text."], cite="477 U.S. 317")]

    def test_short_form_in_context_counts_and_one_in_central_sentence_does_not(self):
        by_doc = {q.doc_id: q for q in build_queries(self.corpus())[0]}
        assert "supra" in by_doc["in-context"].right_context
        assert "supra" in by_doc["in-sentence"].central_sentence
        for views in ((VIEW_SINGLE_REMOVED,), (VIEW_ALL_REMOVED,), (VIEW_SINGLE_REMOVED, VIEW_ALL_REMOVED)):
            queries, _, report = build_queries(self.corpus(), views=views)
            flags = {(q.doc_id, q.view): q.residual_short_form for q in queries}
            assert flags == {
                (doc_id, view): doc_id == "in-context" for doc_id in ("in-context", "in-sentence") for view in views
            }
            assert report.residual_short_form_queries == 1

    @pytest.mark.parametrize("lengths", [(300,), (100, 300)])
    def test_tally_follows_the_kind_filter(self, mini_corpus, lengths):
        """The tally counts only the queries the kind filter keeps: direct
        and indirect add up to both, and each counts a flagged query once
        per length."""
        tally = {}
        for kinds in ((KIND_DIRECT,), (KIND_INDIRECT,), None):
            queries, _, report = build_queries(mini_corpus, kinds=kinds, window_words=lengths)
            assert report.residual_short_form_queries == sum(q.residual_short_form for q in queries)
            tally[kinds] = report.residual_short_form_queries
        assert tally[KIND_DIRECT,] > 0 and tally[KIND_INDIRECT,] > 0
        assert tally[KIND_DIRECT,] + tally[KIND_INDIRECT,] == tally[None]


class TestClassify:
    def test_quote_attributed_through_id_is_direct(self):
        doc = query_doc()
        q = one_query(doc, central_of(doc, "601 U.S. 101"))
        assert q.kind == KIND_DIRECT

    def test_no_quote_is_indirect(self):
        doc = query_doc()
        q = one_query(doc, central_of(doc, "602 U.S. 555"))
        assert q.kind == KIND_INDIRECT

    def test_view_variant_keeps_kind(self):
        doc = query_doc()
        built = build_query(
            parse_document(doc, TABLE), central_of(doc, "601 U.S. 101"), views=(VIEW_SINGLE_REMOVED, VIEW_ALL_REMOVED)
        )
        assert {q.kind for q in built.values()} == {KIND_DIRECT}


class TestSweep:
    @staticmethod
    def sweep(doc, central, lengths):
        """build_queries over ``doc`` and the document ``central`` cites;
        the queries of ``central`` alone, one per length."""
        target = make_doc("us-601-101", ["Opinion text."], cite="601 U.S. 101")
        built, _, _ = build_queries([doc, target], window_words=lengths, reporters=TABLE)
        return [q for q in built if q.query_id.split(":")[1] == str(central.start)]

    def test_nested_windows_same_sentence(self):
        filler = " ".join(f"x{i}" for i in range(600)) + "."
        doc = make_doc("sweepdoc", [filler + " " + QUERY_PARAGRAPH + " " + filler])
        central = central_of(doc, "601 U.S. 101")
        swept = self.sweep(doc, central, lengths=(100, 300))
        assert len(swept) == 2
        q100, q300 = swept
        assert q100.central_sentence == q300.central_sentence
        assert q100.masked_text in q300.masked_text or len(q100.masked_text) < len(q300.masked_text)
        assert q100.window_words == 100 and q300.window_words == 300

    def test_tiny_window_still_contains_whole_sentence(self):
        filler = " ".join(f"x{i}" for i in range(200)) + "."
        doc = make_doc("tiny", [filler + " " + QUERY_PARAGRAPH + " " + filler])
        central = central_of(doc, "601 U.S. 101")
        (q,) = self.sweep(doc, central, lengths=(2,))
        total = len((q.left_context + q.central_sentence + q.right_context).split())
        sentence_words = len(q.central_sentence.split())
        assert sentence_words <= total <= 2 + sentence_words
        assert "601 U.S. 101" in q.central_sentence

    # A repeated length gave every query id twice, which read_queries_jsonl
    # and read_qrels reject; 0 and -5 gave empty masked texts; () gave nothing.
    @pytest.mark.parametrize("lengths", [(300, 300), (0,), (-5,), ()])
    def test_bad_lengths_rejected(self, lengths):
        doc = query_doc()
        with pytest.raises(ValueError, match="window lengths"):
            self.sweep(doc, central_of(doc, "601 U.S. 101"), lengths)


class TestQrels:
    def test_key_index_first_wins_and_conflicts_logged(self, mini_corpus):
        index, conflicts = build_corpus_key_index(mini_corpus, TABLE)
        from casebench.citations import parse_citation_key

        assert index[parse_citation_key("77 F.R.D. 120", TABLE)] == "edge-dup-a"
        assert any("edge-dup-b" in c for c in conflicts)

    def test_build_queries_qrels_resolve_first_parallel_key(self, mini_corpus):
        doc = query_doc()
        sct = make_doc("sct-144-901", ["Opinion text."], cite="144 S.Ct. 901")
        q = one_query(doc, central_of(doc, "601 U.S. 101"))
        # Both the U.S. and the S.Ct. cite resolve: the first wins.
        _, qrels, _ = build_queries(list(mini_corpus) + [doc, sct])
        assert [e for e in qrels if e.query_id == q.query_id] == [QrelsEntry(q.query_id, "us-601-101", 1)]
        # Only the S.Ct. cite resolves: it is the first resolvable key.
        _, qrels, _ = build_queries([doc, sct])
        assert [e for e in qrels if e.query_id == q.query_id] == [QrelsEntry(q.query_id, "sct-144-901", 1)]

    def test_central_without_sentence_bounds_is_skipped_and_counted(self):
        # The central would resolve to "target"; no sentence terminal
        # follows it in its paragraph, so it is skipped before resolution.
        doc = make_doc("nobounds", ["words 477 U.S. 317 with no ending at all"])
        target = make_doc("target", ["Plain text."], cite="477 U.S. 317")
        queries, qrels, report = build_queries([doc, target])
        assert queries == [] and qrels == []
        assert report.centrals_considered == report.skipped_no_bounds == 1
        assert report.sentence_failure_rate == 1.0

    def test_unresolvable_emits_nothing(self):
        queries, qrels, report = build_queries([query_doc()])
        assert queries == [] and qrels == []
        assert report.skipped_unresolvable == report.centrals_considered > 0

    def test_passage_qrels_inherit(self):
        entries = [QrelsEntry("q1", "docA", 1)]
        derived = passage_qrels(entries, {"docA": ["docA#0", "docA#1"]})
        assert [(e.query_id, e.unit_id) for e in derived] == [("q1", "docA#0"), ("q1", "docA#1")]

    def test_qrels_file_round_trip(self, tmp_path):
        path = tmp_path / "qrels.txt"
        write_qrels([QrelsEntry("q1", "d1", 1), QrelsEntry("q2", "d2", 1)], path)
        assert path.read_text() == "q1 0 d1 1\nq2 0 d2 1\n"
        assert read_qrels(path) == {"q1": {"d1"}, "q2": {"d2"}}


class TestBuildQueriesOverCorpus:
    def test_all_views_built_with_report(self, mini_corpus):
        queries, qrels, report = build_queries(
            mini_corpus, views=(VIEW_SINGLE_REMOVED, VIEW_ALL_REMOVED)
        )
        assert report.built == len(queries) == len(qrels)
        assert report.centrals_considered > 0
        assert 0.0 <= report.sentence_failure_rate <= 1.0
        views = {q.view for q in queries}
        assert views == {VIEW_SINGLE_REMOVED, VIEW_ALL_REMOVED}
        kinds = {q.kind for q in queries}
        assert kinds == {KIND_DIRECT, KIND_INDIRECT}

    def test_kind_filter(self, mini_corpus):
        queries, _, _ = build_queries(mini_corpus, kinds=(KIND_DIRECT,))
        assert queries and all(q.kind == KIND_DIRECT for q in queries)

    def test_every_query_has_resolvable_target(self, mini_corpus):
        index, _ = build_corpus_key_index(mini_corpus, TABLE)
        queries, qrels, _ = build_queries(mini_corpus)
        for q, entry in zip(queries, qrels):
            assert entry.query_id == q.query_id
            assert entry.unit_id in {d.doc_id for d in mini_corpus}
            assert entry.unit_id != q.doc_id


# Pieces of random query documents: plain words, case citations (parallel
# runs among them) and citations that stay in a single-removed window.
WORDS = ["the", "court", "held", "that", "a", "claim", "fails", "under", "rule"]
CASES = ["Tilden v. Marsh, 601 U.S. 101, 105 (2023)", "601 U.S. 101, 144 S.Ct. 901",
         "Orton v. Delmar, 602 U.S. 555 (2024)", "12 F.3d 34"]
OTHERS = ["Id. at 107", "supra", "Fed.R.Civ.P. 56(c)", "42 U.S.C. § 1983"]


def random_sentence(rng, cited):
    parts = rng.choices(WORDS, k=rng.randint(0, 5))
    for pool, chance in ((CASES, 1.0 if cited else 0.0), (OTHERS, 0.3), (CASES, 0.2 if cited else 0.0)):
        if rng.random() < chance:
            parts.insert(rng.randint(0, len(parts)), rng.choice(pool))
    return " ".join([rng.choice(("The", "See", "A", "Courts"))] + parts) + "."


class TestDisplayText:
    """``display_text``, rebuilt from ``masked_text`` and ``redacted_at``, is
    the text that query rows stored before they carried the offset."""

    BOTH = (VIEW_SINGLE_REMOVED, VIEW_ALL_REMOVED)

    def test_mini_corpus_queries_match_the_stored_text(self, mini_corpus):
        queries, _, _ = build_queries(mini_corpus, views=self.BOTH)
        parsed = {d.doc_id: parse_document(d, TABLE) for d in mini_corpus}
        for q in queries:
            doc = parsed[q.doc_id]
            central = next(c for c in doc.centrals() if c.start == int(q.query_id.split(":")[1]))
            assert q.display_text == query_oracles.display_text(doc, central, q), q.query_id
        assert {q.view for q in queries} == set(self.BOTH)

    def test_random_documents_match_the_stored_text(self):
        rng = random.Random(30)
        shapes = Counter()
        for i in range(400):
            filler = [random_sentence(rng, False) for _ in range(rng.randint(1, 4))]
            cited = random_sentence(rng, True)
            # The cited sentence alone, opening the text, closing it, or inside
            # it; one paragraph, or one paragraph per sentence.
            body = ([cited], [cited, *filler], [*filler, cited], [*filler, cited, *filler])[i % 4]
            parsed = parse_document(make_doc(f"r{i}", body if rng.random() < 0.5 else [" ".join(body)]), TABLE)
            for central in parsed.centrals():
                built = build_query(parsed, central, rng.choice((2, 6, 300)), self.BOTH)
                for q in (built or {}).values():
                    expected = query_oracles.display_text(parsed, central, q)
                    assert q.display_text == expected, (parsed.text, q)
                    shapes[expected.startswith("REDACTED"), expected.endswith("REDACTED")] += 1
        # "REDACTED", "REDACTED …", "… REDACTED" and "… REDACTED …" each occur.
        assert len(shapes) == 4 and min(shapes.values()) >= 50, shapes


class TestCustomReporterTable:
    """A table passed to build_queries governs every step, both views."""

    TEXT = (
        "The rule is settled. Smith v. Jones, 477 U.S. 317 (1986), followed in Brown v. "
        "Board, 123 So. 2d 456 (1960). Courts apply it. Later, Smith v. Jones, 477 U.S. 317, "
        "320 (1986), was read with Brown v. Board, 123 So. 2d 456, 460 (1960). The end."
    )

    def corpus(self):
        return [make_doc("citing", [self.TEXT]), make_doc("smith", ["Opinion text."], cite="477 U.S. 317")]

    def test_all_removed_strips_citations_of_the_added_reporter(self):
        queries, _, _ = build_queries(self.corpus(), views=(VIEW_ALL_REMOVED,), reporters=so2d_table())
        assert queries
        for q in queries:
            assert "So. 2d" not in q.masked_text

    def test_central_sentence_does_not_end_inside_added_reporter(self):
        queries, _, _ = build_queries(self.corpus(), reporters=so2d_table())
        first = min(queries, key=lambda q: int(q.query_id.split(":")[1]))
        assert first.central_sentence == (
            "Smith v. Jones, 477 U.S. 317 (1986), followed in Brown v. Board, 123 So. 2d 456 (1960)."
        )

    def test_views_do_not_change_report(self):
        reports = [
            build_queries(self.corpus(), views=views, reporters=so2d_table())[2].to_dict()
            for views in ((VIEW_SINGLE_REMOVED,), (VIEW_ALL_REMOVED,), (VIEW_ALL_REMOVED, VIEW_SINGLE_REMOVED))
        ]
        counts = [{k: v for k, v in r.items() if k != "built"} for r in reports]
        assert counts[0] == counts[1] == counts[2]
