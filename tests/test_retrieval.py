from __future__ import annotations

import json
import math
import random
import re
import struct
from collections import Counter
from collections.abc import Mapping

import pytest

import analyzer_oracles
from casebench.corpus import DataError, fold_words
from casebench.retrieval import (
    AnalyzerConfig,
    EmptyQuoteError,
    IndexFormatError,
    NgramIndex,
    analyze,
    bm25_idf,
    bm25_rank,
    bm25_search,
    build_index,
    exact_match_search,
    load_index,
    ngram_search,
    read_trec_run,
    save_index,
    write_trec_run,
)
from fixtures import ngram_overlap_oracle


def rand_units(rng, n_units, vocab, max_len=30):
    units = []
    for i in range(n_units):
        words = rng.choices(vocab, k=rng.randint(1, max_len))
        units.append((f"u{i:04d}", " ".join(words)))
    return units


class TestAnalyzer:
    def test_citation_tokens_keep_internal_periods(self):
        assert analyze("Cited 51 F.3d 1449 and Fed.R.Civ.P. 56(c).") == [
            "cited", "51", "f.3d", "1449", "and", "fed.r.civ.p", "56", "c",
        ]

    def test_period_splitting_configurable(self):
        cfg = AnalyzerConfig(keep_citation_periods=False)
        assert analyze("F.3d", cfg) == ["f", "3d"]

    def test_lowercase(self):
        assert analyze("Hello WORLD") == ["hello", "world"]


class TestAnalyzerMatchesTheOracle:
    """``analyze`` folds bytes and splits; the token regexes it replaced
    (``analyzer_oracles``) judge it under every config."""

    @pytest.mark.parametrize("context", ["{}", "a{}b", "a.{}.b", "{}.A", "Z.{}"])
    def test_every_code_point_in_context(self, context):
        # A space between instances separates their terms under both
        # tokenizers, so one text per plane stands for 65,536 short ones.
        for plane in range(0, 0x110000, 0x10000):
            text = " ".join(map(context.format, map(chr, range(plane, plane + 0x10000))))
            for config in analyzer_oracles.CONFIGS:
                assert analyze(text, config) == analyzer_oracles.analyze(text, config), (hex(plane), config)

    def test_random_strings(self):
        rng = random.Random(2401)
        # Periods in runs, ASCII, the Kelvin sign, I with dot above, sharp s,
        # the fi ligature, lone surrogates, no-break and ideographic spaces.
        pieces = [".", "..", "...", " ", "a", "z", "\u212a", "\u0130", "\xdf", "\ufb01", "\ud800", "\udfff",
                  "\xa0", "\u3000", *"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"]
        for _ in range(20000):
            text = "".join(rng.choices(pieces, k=rng.randint(0, 24)))
            for config in analyzer_oracles.CONFIGS:
                assert analyze(text, config) == analyzer_oracles.analyze(text, config), (text, config)

    def test_mini_corpus_index_terms(self, mini_corpus):
        units = [(doc.doc_id, doc.text) for doc in mini_corpus]
        idx = build_index(units)
        oracle_terms = [analyzer_oracles.analyze(text) for _, text in units]
        assert idx.terms == sorted(set().union(*oracle_terms))
        assert idx.lengths.tolist() == list(map(len, oracle_terms))


class TestBuildIndex:
    def test_three_one_word_docs(self):
        idx = build_index([("a", "apple"), ("b", "pear"), ("c", "apple")])
        assert idx.n_units == 3
        assert idx.vocabulary_size == 2

    def test_empty_units_rejected(self):
        with pytest.raises(ValueError):
            build_index([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            build_index([("a", "x"), ("a", "y")])

    # A newline split the saved ids blob, so load_index found one id too
    # many; a space split the run line "q Q0 a b 1 ...".
    @pytest.mark.parametrize("bad", ["a\nb", "a b", "", ["a"]], ids=["newline", "space", "empty", "list"])
    def test_id_that_is_no_id_rejected(self, bad):
        units = [(bad, "x y"), ("c", "y z"), ("d", "q")]
        with pytest.raises(ValueError, match="unit id"):
            build_index(units)
        with pytest.raises(ValueError, match="unit id"):
            NgramIndex(units, 2, [])

    def test_rebuild_is_byte_deterministic(self, tmp_path):
        rng = random.Random(6)
        units = rand_units(rng, 40, ["x", "y", "z", "w"])
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(build_index(units), p1)
        save_index(build_index(units), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("slice_len", [1, 2, 3, 7])
    def test_one_shot_stream_matches_list_and_oracle(self, tmp_path, monkeypatch, slice_len):
        """A build reads its units once, from any iterable; the sorted keys
        are run-length encoded in place a slice at a time, and a run split
        across slices still makes one posting.  Tokenless units alone make
        no postings; units that all repeat one term write each run far
        behind the keys read, and that term's runs span every slice."""
        rng = random.Random(slice_len)
        tokenless = [(f"e{i}", "!! --" if i % 2 else "") for i in range(6)]
        one_term = [(f"r{i}", " ".join(["x"] * (1 + i % 12))) for i in range(25)]
        vocab = ["x", "y", "z", "w", "v", "!!"]
        random_units = [rand_units(rng, rng.randint(1, 25), vocab, max_len=12) for _ in range(30)]
        for trial, units in enumerate([tokenless, one_term, *random_units]):
            listed, streamed = tmp_path / f"list{trial}.idx", tmp_path / f"stream{trial}.idx"
            save_index(build_index(units), listed)
            with monkeypatch.context() as m:
                m.setattr("casebench.retrieval._RLE_SLICE", slice_len)
                save_index(build_index(iter(units)), streamed)
            assert streamed.read_bytes() == listed.read_bytes() == oracle_index_bytes(units)


def oracle_index_bytes(units) -> bytes:
    """The bytes ``save_index`` writes for a passage index over ``units``,
    made from a term -> [(unit, tf)] table built with ``Counter``."""
    postings: dict[str, list[tuple[int, int]]] = {}
    lengths = []
    for i, (_, text) in enumerate(units):
        terms = analyze(text)
        lengths.append(len(terms))
        for term, tf in Counter(terms).items():
            postings.setdefault(term, []).append((i, tf))
    terms = sorted(postings)
    rows = [row for term in terms for row in postings[term]]
    header = json.dumps(
        {"unit_kind": "passage", "n_units": len(units), "n_terms": len(terms), "n_postings": len(rows),
         "analyzer": AnalyzerConfig().to_dict()},
        sort_keys=True,
    ).encode()

    def blob(items):
        data = "\n".join(items).encode()
        return struct.pack("<Q", len(data)) + data

    def u4(values):
        return struct.pack(f"<{len(values)}I", *values)

    return (
        b"CBIX" + struct.pack("<II", 2, len(header)) + header
        + blob([unit_id for unit_id, _ in units]) + blob(terms)
        + u4(lengths) + u4([len(postings[term]) for term in terms])
        + u4([unit for unit, _ in rows]) + u4([tf for _, tf in rows])
    )


class TestBuildMemory:
    # The traced peak of a 100k-token build, per token, is 13.9 B with the
    # one int64 buffer encoded in place, and was 19.2 B with the token ids
    # or the postings held beside the keys (22.9 B before the keys were
    # encoded a slice at a time).  The budget is the peak plus 8%.
    BUDGET = 15.0

    def test_traced_peak_per_token_under_budget(self):
        import tracemalloc

        import numpy  # noqa: F401  (imported before tracing: its import is no build cost)

        rng = random.Random(16)
        n_units, words = 1000, 100
        pool = rng.choices([f"t{i}" for i in range(1000)], k=n_units * words)

        def units():
            for i in range(n_units):
                yield f"u{i}", " ".join(pool[i * words : (i + 1) * words])

        build_index([("warm", "up")])
        tracemalloc.start()
        try:
            build_index(units())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (n_units * words) < self.BUDGET


class TestBM25:
    def test_unique_term_ranks_its_unit_first(self):
        idx = build_index([("a", "cat dog"), ("b", "dog bird"), ("c", "dog fish")])
        ranked = bm25_search(idx, "cat", k=3)
        assert ranked.entries[0].unit_id == "a"
        assert ranked.entries[0].rank == 1

    def test_five_doc_corpus_matches_oracle(self):
        units = [
            ("d0", "the quick brown fox"),
            ("d1", "the lazy dog sleeps"),
            ("d2", "quick quick dog"),
            ("d3", "brown bears eat fish"),
            ("d4", "fox and dog play"),
        ]
        ranked = bm25_search(build_index(units), "quick dog", k=5)
        assert ranked.unit_ids() == ["d2", "d0"]  # "dog", in 3 of 5 units, has idf 0
        assert ranked == bm25_rank(units, "quick dog", k=5)

    def test_hand_worked_scores_follow_the_written_formula(self):
        # N = 3 units averaging 2 tokens.  "cat" is in 2 units, so its idf
        # log((3 - 2 + 0.5) / (2 + 0.5)) is negative and floored to 0, and
        # unit "b" scores nothing.  "dog" and "bird" are in 1 unit each.
        units = [("a", "cat cat dog"), ("b", "cat fish"), ("c", "bird")]
        k1, b, avgdl = 1.2, 0.75, 2.0
        idf = math.log((3 - 1 + 0.5) / (1 + 0.5))

        def term(qtf, tf, length):
            return qtf * idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * length / avgdl))

        expected = [("c", term(2, 1, 1)), ("a", term(1, 1, 3))]
        assert expected[0][1] == pytest.approx(1.284361, abs=1e-6)
        assert expected[1][1] == pytest.approx(0.424082, abs=1e-6)
        query = "bird cat dog bird"
        for ranked in (bm25_rank(units, query, k=3), bm25_search(build_index(units), query, k=3)):
            assert ranked.unit_ids() == ["c", "a"]
            assert [e.score for e in ranked.entries] == [pytest.approx(s, rel=1e-12) for _, s in expected]
        # Both rankers share bm25_idf, so it is held to the written formula
        # on its own, at every df of a few collection sizes, floor included.
        for n in (3, 7, 100):
            for df in range(n + 1):
                want = math.log((n - df + 0.5) / (df + 0.5))
                assert bm25_idf(n, df) == (pytest.approx(want, rel=1e-12) if want > 0 else 0.0), (n, df)

    def test_random_corpora_match_oracle_exactly(self):
        """``bm25_search`` and ``bm25_rank`` return the same ranked list:
        the same ids, bit-identical scores, under four settings and at
        three cuts, with ties by ascending id."""
        rng = random.Random(42)
        # The six-word vocabulary with one- to three-word units makes many
        # units tie, also at the k-th score of a cut below the candidates.
        tied_cuts = 0
        for vocab, max_len in (([f"w{i}" for i in range(60)], 30), (list("abcdef"), 3)):
            for _ in range(30):
                units = rand_units(rng, rng.randint(2, 120), vocab, max_len)
                rng.shuffle(units)  # so that ties are not already in id order
                idx = build_index(units)
                query = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
                for setting in ({}, {"k1": 0.0}, {"b": 0.0}, {"b": 1.0}):
                    scores = [e.score for e in bm25_rank(units, query, len(units), **setting).entries]
                    for k in (1, 3, len(units)):
                        assert bm25_search(idx, query, k, **setting) == bm25_rank(units, query, k, **setting)
                        tied_cuts += k < len(scores) and scores[k - 1] == scores[k]
        assert tied_cuts >= 5

    def test_ties_break_by_ascending_unit_id(self):
        # Fillers keep df below N/2 so the floored idf stays positive.
        fillers = [(f"f{i}", "noise words only") for i in range(4)]
        idx = build_index([("z", "term"), ("a", "term"), ("m", "term other")] + fillers)
        ranked = bm25_search(idx, "term", k=3)
        # "a" and "z" have identical lengths and tf; "m" is longer (lower score).
        assert [e.unit_id for e in ranked.entries] == ["a", "z", "m"]

    def test_empty_query_empty_result(self):
        idx = build_index([("a", "x")])
        assert bm25_search(idx, "!!! ...", k=5).entries == ()

    def test_scores_nonincreasing_ranks_contiguous(self):
        rng = random.Random(7)
        units = rand_units(rng, 50, ["a", "b", "c", "d", "e"])
        ranked = bm25_search(build_index(units), "a b c", k=10)
        scores = [e.score for e in ranked.entries]
        assert scores == sorted(scores, reverse=True)
        assert [e.rank for e in ranked.entries] == list(range(1, len(scores) + 1))


# 10 of 60 units hold the phrase, so every ranker has 10 hits to cut.
SETTINGS_UNITS = [(f"u{i:02d}", "alpha beta gamma" if i % 6 == 0 else f"filler {i}") for i in range(60)]


def rank_with(ranker, k, query="alpha beta", **settings):
    if ranker == "bm25_search":
        return bm25_search(build_index(SETTINGS_UNITS), query, k, **settings)
    if ranker == "bm25_rank":
        return bm25_rank(SETTINGS_UNITS, query, k, **settings)
    index = NgramIndex(SETTINGS_UNITS, 2, [query])
    search = ngram_search if ranker == "ngram_search" else exact_match_search
    return search(index, query, k)


class TestRankerSettings:
    """The library rankers reject the settings the CLI rejects, and do not
    quietly rank with them: ``[:k]`` at k = -1 kept every hit but the
    last, a NaN or negative k1 scored nothing, and b > 1 reordered."""

    @pytest.mark.parametrize("ranker", ["bm25_search", "bm25_rank", "ngram_search", "exact_match_search"])
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_1_raises(self, ranker, k):
        assert len(rank_with(ranker, 100).entries) == 10
        with pytest.raises(ValueError, match="k must be at least 1"):
            rank_with(ranker, k)

    @pytest.mark.parametrize("ranker", ["bm25_search", "bm25_rank"])
    @pytest.mark.parametrize("settings", [
        {"k1": -1.0}, {"k1": math.nan}, {"k1": math.inf}, {"b": -0.1}, {"b": 1.5}, {"b": math.nan},
    ], ids=["k1-negative", "k1-nan", "k1-inf", "b-negative", "b-above-1", "b-nan"])
    @pytest.mark.parametrize("query", ["alpha beta", "absent"])
    def test_bad_bm25_setting_raises(self, ranker, settings, query):
        # Even a query that shares no term with the units is refused.
        with pytest.raises(ValueError, match="k1 must|b must"):
            rank_with(ranker, 10, query, **settings)

    @pytest.mark.parametrize("settings", [{"k1": 0.0}, {"b": 0.0}, {"b": 1.0}])
    def test_edge_settings_rank(self, settings):
        assert rank_with("bm25_search", 10, **settings) == rank_with("bm25_rank", 10, **settings)


class TestMaxP:
    """``bm25_search(..., maxp=True)`` ranks a passage index's documents by
    their best passage.  The fillers keep every term's df below N/2, so its
    floored idf stays positive."""

    FILLERS = [(f"z{i}#0", "noise words only") for i in range(6)]

    def search(self, units, query):
        index = build_index(units + self.FILLERS)
        passages = {e.unit_id: e.score for e in bm25_search(index, query, k=100).entries}
        docs = [(e.unit_id, e.score) for e in bm25_search(index, query, k=10, maxp=True).entries]
        return passages, docs

    def test_max_rule(self):
        passages, docs = self.search([("A#0", "term x y z"), ("A#1", "term term"), ("B#0", "term other")], "term")
        assert passages["A#1"] > passages["B#0"] > passages["A#0"]
        assert docs == [("A", passages["A#1"]), ("B", passages["B#0"])]

    def test_identity_on_single_passage_docs(self):
        passages, docs = self.search([("C#0", "term a b"), ("A#0", "term term"), ("B#0", "term a")], "term")
        assert docs == [(unit_id.rsplit("#", 1)[0], score) for unit_id, score in passages.items()]
        assert [doc for doc, _ in docs] == ["A", "B", "C"]

    def test_equal_max_scores_tie_break_by_doc_id(self):
        passages, docs = self.search([("B#0", "term"), ("A#3", "term")], "term")
        assert passages["A#3"] == passages["B#0"]
        assert [doc for doc, _ in docs] == ["A", "B"]

    def test_document_index_rejected(self):
        # Cutting "a#1" and "a#2" at their last "#" made up a document "a".
        index = build_index([("a#1", "term"), ("a#2", "term")] + self.FILLERS, unit_kind="document")
        with pytest.raises(ValueError, match="passage index"):
            bm25_search(index, "term", k=10, maxp=True)

    def test_random_corpora_match_best_passage_oracle(self):
        # Documents come in a shuffled id order, some with twelve passages
        # ("#10" sorts before "#2"); one- to three-word passages over six
        # words make documents tie often.
        rng = random.Random(51)
        vocab = list("abcdef")
        tied = 0
        for _ in range(40):
            names = rng.sample([f"d{i}" for i in range(30)], rng.randint(1, 12))
            units = [
                (f"{name}#{chunk}", " ".join(rng.choices(vocab, k=rng.randint(1, 3))))
                for name in names
                for chunk in range(rng.choice((1, 2, 3, 12)))
            ]
            terms = rng.choices(vocab, k=rng.randint(1, 4))
            best: dict[str, float] = {}
            for unit_id, score, _ in bm25_rank(units, " ".join(terms), len(units)).entries:
                best.setdefault(unit_id.rsplit("#", 1)[0], score)
            expected = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
            index = build_index(units)
            for k in (1, 3, len(names)):
                ranked = bm25_search(index, " ".join(terms), k=k, maxp=True)
                assert [(e.unit_id, e.score) for e in ranked.entries] == expected[:k]
            tied += len(set(best.values())) < len(best)
        assert tied >= 5


class TestNgramSearch:
    CORPUS = [
        ("doc0", "A reading of the entire Act clearly shows that the purpose of the Act is to assist workers."),
        ("doc1", "Entirely different words that have no bearing on the quoted material at all here."),
        ("doc2", "The purpose of the Act is unclear, some say, but a reading helps."),
    ]

    def test_contained_quote_top_ranked_with_max_score(self):
        quote = "the entire Act clearly shows that the purpose"
        ranked = ngram_search(NgramIndex(self.CORPUS, 5, [quote]), quote, k=3)
        assert ranked.entries[0].unit_id == "doc0"
        q_words = len(quote.split())
        assert ranked.entries[0].score == q_words - 5 + 1

    def test_bracketed_insertion_still_matches_flanks(self):
        quote = "A reading of the entire [Wage] Act clearly shows that the purpose of the Act is to assist"
        index = NgramIndex(self.CORPUS, 5, [quote])
        assert exact_match_search(index, quote).unit_ids() == []
        ranked = ngram_search(index, quote, k=3)
        assert ranked.entries[0].unit_id == "doc0"

    def test_score_bounded_by_gram_count(self):
        rng = random.Random(11)
        vocab = [f"v{i}" for i in range(30)]
        units = rand_units(rng, 25, vocab)
        quotes = [" ".join(rng.choices(vocab, k=rng.randint(5, 15))) for _ in range(50)]
        index = NgramIndex(units, 5, quotes)
        for quote in quotes:
            ranked = ngram_search(index, quote, k=25)
            bound = len(quote.split()) - 5 + 1
            for e in ranked.entries:
                assert e.score <= bound

    def test_short_quote_falls_back_to_exact_match(self):
        ranked = ngram_search(NgramIndex(self.CORPUS, 5, ["purpose of the Act"]), "purpose of the Act", k=3)
        assert {e.unit_id for e in ranked.entries} == {"doc0", "doc2"}
        assert all(e.score == 1.0 for e in ranked.entries)

    def test_random_corpora_match_overlap_oracle(self):
        rng = random.Random(5)
        vocab = [f"w{i}" for i in range(12)] + ["w1“w2", "“w3”", "W4."]
        for _ in range(40):
            units = rand_units(rng, rng.randint(1, 60), vocab)
            n = rng.randint(2, 6)
            # One index serves a batch of five quotes, as in search-quotes.
            batch = []
            for _ in range(5):
                words = rng.choice(units)[1].split() + rng.choices(vocab, k=n)
                start = rng.randrange(len(words))
                quote = " ".join(words[start : start + rng.randint(n, 12)])
                if len(fold_words(quote)) < n:
                    continue
                batch.append((quote, rng.randint(1, len(units))))
            index = NgramIndex(units, n, [quote for quote, _ in batch])
            for quote, k in batch:
                ranked = ngram_search(index, quote, k=k)
                expected = ngram_overlap_oracle(units, quote, n)[:k]
                assert [(e.unit_id, e.score) for e in ranked.entries] == expected
                assert [e.rank for e in ranked.entries] == list(range(1, len(expected) + 1))

    def test_shingles_fold_the_raw_text(self):
        # Stripped of its marks, "word“next" would read as the one word
        # "wordnext"; shingles see two words, the exact search sees one.
        index = NgramIndex([("a", "one two word“next three four")], 3, ["two word next", "two wordnext three"])
        assert ngram_search(index, "two word next", k=5).unit_ids() == ["a"]
        assert ngram_search(index, "two wordnext three", k=5).unit_ids() == []
        assert exact_match_search(index, "two wordnext three").unit_ids() == ["a"]

    def test_each_table_is_built_once_and_only_when_used(self):
        quotes = ["that the purpose of the Act is to assist", "purpose of the Act", "the purpose of the Act", "of the Act"]
        exact_only = NgramIndex(self.CORPUS, 5, quotes)
        exact_match_search(exact_only, "purpose of the Act")
        assert "grams" not in vars(exact_only)
        index = NgramIndex(self.CORPUS, 5, quotes)
        ngram_search(index, "that the purpose of the Act is to assist", k=3)
        assert "stripped_texts" not in vars(index)
        grams = index.grams
        ngram_search(index, "purpose of the Act", k=3)  # under 5 words: exact
        stripped = index.stripped_texts
        ngram_search(index, "the purpose of the Act", k=3)
        ngram_search(index, "of the Act", k=3)
        assert index.grams is grams and index.stripped_texts is stripped

    def test_table_holds_only_the_quote_shingles(self):
        quotes = ["the purpose of the Act is to assist", "The purpose of the Act is", "no such words in any unit"]
        index = NgramIndex(self.CORPUS, 5, quotes)
        distinct = set()
        for quote in quotes:
            words = fold_words(quote)
            distinct |= {tuple(words[i : i + 5]) for i in range(len(words) - 4)}
        assert len(index.grams) == len(distinct) == 6
        assert index.grams[("the", "purpose", "of", "the", "act")] == [0, 2]
        assert index.grams[("no", "such", "words", "in", "any")] == []

    def test_table_cuts_only_runs_of_n_quote_words(self):
        # Quote words: a..e.  Unit 0 holds "a b c" in two runs split by a
        # non-quote word, and lists it once; unit 2's runs are n - 1 long;
        # unit 3's run of four holds "c d e" but not "b c d".
        units = [("u0", "a b c x A, b c."), ("u1", "x a b c x"), ("u2", "a b x c d x e"),
                 ("u3", "b c d e"), ("u4", "c d e a b c"), ("u5", "y z")]
        index = NgramIndex(units, 3, ["a b c", "c d e"])
        assert index.grams == {("a", "b", "c"): [0, 1, 4], ("c", "d", "e"): [3, 4]}

    def test_quote_outside_the_batch_rejected(self):
        index = NgramIndex(self.CORPUS, 5, ["the purpose of the Act is to assist"])
        with pytest.raises(ValueError, match="not among the quotes"):
            ngram_search(index, "a reading of the entire Act")
        # Under n words the quote is an exact search, which needs no table.
        assert ngram_search(index, "entire Act").unit_ids() == ["doc0"]

    @pytest.mark.parametrize("n", [0, -1])
    def test_shingle_length_below_one_rejected(self, n):
        # An empty shingle matched every unit: "zzz qqq" scored 1.0 everywhere.
        with pytest.raises(ValueError, match="shingle length"):
            NgramIndex(self.CORPUS, n, ["zzz qqq"])


class TestExactMatch:
    def test_verbatim_quote_found(self):
        index = NgramIndex([("a", "he said “the sky is blue” today"), ("b", "other text")], 5, ["the sky is blue"])
        ranked = exact_match_search(index, "the sky is blue", k=5, query_id="q1")
        assert ranked.query_id == "q1"
        assert [(e.unit_id, e.score, e.rank) for e in ranked.entries] == [("a", 1.0, 1)]

    def test_punctuation_change_misses(self):
        quote = "an account of the time place and content"
        index = NgramIndex([("a", "an account of the time, place, and content")], 5, [quote])
        assert exact_match_search(index, quote).unit_ids() == []

    def test_curly_marks_normalized_on_both_sides(self):
        index = NgramIndex([("a", "quote: “inner words” end")], 5, ["“inner words”"])
        assert exact_match_search(index, "“inner words”").unit_ids() == ["a"]

    def test_empty_quote_rejected(self):
        index = NgramIndex([("a", "text")], 5, ["“”"])
        with pytest.raises(EmptyQuoteError):
            exact_match_search(index, "“”")
        with pytest.raises(EmptyQuoteError):
            ngram_search(index, "“”")

    def test_ascending_id_order(self):
        index = NgramIndex([("z", "needle here"), ("a", "needle here too")], 5, ["needle"])
        assert exact_match_search(index, "needle").unit_ids() == ["a", "z"]
        assert exact_match_search(index, "needle", k=1).unit_ids() == ["a"]


class TestSerialization:
    def test_round_trip_preserves_search(self, tmp_path):
        rng = random.Random(3)
        units = rand_units(rng, 30, ["red", "green", "blue", "cyan"])
        idx = build_index(units, unit_kind="document")
        path = tmp_path / "i.idx"
        save_index(idx, path)
        loaded = load_index(path)
        assert loaded.unit_kind == "document"
        a = bm25_search(idx, "red blue", k=10)
        b = bm25_search(loaded, "red blue", k=10)
        assert [(e.unit_id, e.score) for e in a.entries] == [(e.unit_id, e.score) for e in b.entries]

    def test_postings_view_matches_brute_force(self, tmp_path):
        rng = random.Random(9)
        units = rand_units(rng, 50, [f"w{i}" for i in range(20)])
        expected: dict[str, list[tuple[int, int]]] = {}
        for i, (_, text) in enumerate(units):
            for term, tf in Counter(analyze(text)).items():
                expected.setdefault(term, []).append((i, tf))
        built = build_index(units)
        path = tmp_path / "i.idx"
        save_index(built, path)
        for index in (built, load_index(path)):
            postings = index.postings
            assert isinstance(postings, Mapping) and index.postings is postings
            assert list(postings) == sorted(expected) and len(postings) == len(expected)
            for term, pairs in expected.items():
                ids, tfs = postings[term]
                assert list(zip(ids.tolist(), tfs.tolist())) == pairs
                with pytest.raises(ValueError):
                    ids[0] = 0
            assert postings.get("absent") is None
            assert sum(len(ids) for ids, _ in postings.values()) == sum(map(len, expected.values()))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "v9.idx"
        path.write_bytes(b"CBIX" + (9).to_bytes(4, "little") + b"\x00" * 16)
        with pytest.raises(IndexFormatError):
            load_index(path)


def saved_index(tmp_path) -> bytes:
    path = tmp_path / "whole.idx"
    save_index(build_index(rand_units(random.Random(4), 30, ["red", "green", "blue", "cyan"])), path)
    return path.read_bytes()


def section_ends(data: bytes) -> dict[str, int]:
    """Where each section of a v2 index file ends: magic, version and
    header length, header, then the two length-prefixed text blobs."""
    (header_len,) = struct.unpack_from("<I", data, 8)
    ends = {"magic": 4, "header": 12 + header_len}
    pos = ends["header"]
    for name in ("unit ids", "terms"):
        (size,) = struct.unpack_from("<Q", data, pos)
        pos = ends[name] = pos + 8 + size
    return ends


TRUNCATIONS = {
    "inside the magic": lambda data: data[:2],
    "inside the header": lambda data: data[: section_ends(data)["header"] - 5],
    "after the header": lambda data: data[: section_ends(data)["header"]],
    "after the unit ids": lambda data: data[: section_ends(data)["unit ids"]],
    "after the terms": lambda data: data[: section_ends(data)["terms"]],
    "inside the arrays": lambda data: data[: (section_ends(data)["terms"] + len(data)) // 2],
    "one byte short": lambda data: data[:-1],
}


class TestDamagedIndex:
    @pytest.mark.parametrize("cut", sorted(TRUNCATIONS))
    def test_cut_file_is_a_format_error(self, tmp_path, cut):
        path = tmp_path / "cut.idx"
        path.write_bytes(TRUNCATIONS[cut](saved_index(tmp_path)))
        with pytest.raises(IndexFormatError):
            load_index(path)

    @pytest.mark.parametrize("damage", ["dfs", "units", "trailing byte"])
    def test_file_disagreeing_with_its_header_rejected(self, tmp_path, damage):
        data = bytearray(saved_index(tmp_path))
        header = json.loads(data[12 : section_ends(bytes(data))["header"]])
        n_terms, n_postings = header["n_terms"], header["n_postings"]
        if damage == "dfs":  # the dfs no longer sum to n_postings
            at = len(data) - 4 * (n_terms + 2 * n_postings)
            data[at : at + 4] = struct.pack("<I", n_postings + 1)
        elif damage == "units":  # a posting names a unit past the last one
            at = len(data) - 8 * n_postings
            data[at : at + 4] = struct.pack("<I", header["n_units"])
        else:
            data += b"\x00"
        path = tmp_path / "damaged.idx"
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError):
            load_index(path)


def with_header_analyzer(data: bytes, analyzer) -> bytes:
    """An index file's bytes with its header's analyzer replaced."""
    end = section_ends(data)["header"]
    header = {**json.loads(data[12:end]), "analyzer": analyzer}
    blob = json.dumps(header, sort_keys=True).encode()
    return data[:8] + struct.pack("<I", len(blob)) + blob + data[end:]


class TestHeaderAnalyzer:
    """An index is built with the default analyzer alone, so a header that
    names any other is a format error.  ``bool()`` used to coerce each
    switch, so ``{"lowercase": "no"}`` loaded as a lowercasing analyzer."""

    def test_default_analyzer_loads(self, tmp_path):
        data = saved_index(tmp_path)
        path = tmp_path / "same.idx"
        path.write_bytes(with_header_analyzer(data, AnalyzerConfig().to_dict()))
        assert path.read_bytes() == data
        assert load_index(path).analyzer == AnalyzerConfig()

    @pytest.mark.parametrize("analyzer", [
        {"lowercase": "no", "keep_citation_periods": True},
        {"lowercase": False, "keep_citation_periods": True},
        {"lowercase": True, "keep_citation_periods": False},
        {"lowercase": 1, "keep_citation_periods": True},
        {"lowercase": True},
        {"lowercase": True, "keep_citation_periods": True, "stemming": False},
        None,
    ], ids=["string", "cased", "plain-periods", "int-for-bool", "missing-key", "extra-key", "null"])
    def test_other_analyzer_rejected(self, tmp_path, analyzer):
        path = tmp_path / "other.idx"
        path.write_bytes(with_header_analyzer(saved_index(tmp_path), analyzer))
        with pytest.raises(IndexFormatError, match="is not the default"):
            load_index(path)


class TestTrecIO:
    def test_round_trip(self, tmp_path):
        fillers = [(f"f{i}", "unrelated filler words") for i in range(4)]
        idx = build_index([("a", "x y"), ("b", "y z")] + fillers)
        runs = [bm25_search(idx, "y z", k=2, query_id="q1")]
        path = tmp_path / "run.trec"
        write_trec_run(runs, path, tag="test")
        parsed = read_trec_run(path)
        assert list(parsed) == ["q1"]
        assert [unit for unit, _, _ in parsed["q1"]] == [e.unit_id for e in runs[0].entries]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.trec"
        path.write_text("q1 Q0 doc1\n")
        with pytest.raises(ValueError):
            read_trec_run(path)

    def test_unit_ranked_twice_for_a_query_rejected(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 1.0 t\nq2 Q0 d1 1 1.0 t\nq1 Q0 d1 2 0.5 t\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: unit 'd1' ranked again for query 'q1'")):
            read_trec_run(path)

    @pytest.mark.parametrize("line", ["q1 Q0 d1 1 1.000000", "q1 Q0 a b 2 1.000000 tag", "q1 Q0 d1 1 1.0 tag extra"])
    def test_line_without_six_fields_rejected(self, tmp_path, line):
        path = tmp_path / "bad.trec"
        path.write_text("q1 Q0 d0 1 2.000000 tag\n" + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: malformed run line")):
            read_trec_run(path)
