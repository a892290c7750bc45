from __future__ import annotations

import math
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

import pytest

import fixtures
from casebench import metrics
from casebench.citations import load_reporter_table, parse_citation_key
from casebench.corpus import fold_words
from casebench.metrics import (
    MetricReport,
    _bounded_in,
    _lcs_length,
    citation_report,
    citation_report_from_keys,
    compare_runs,
    evaluate_run,
    extract_answer,
    ndcg_at_k,
    recall_at_k,
    rouge_f,
    score_generation_run,
)

TABLE = load_reporter_table()


class TestRecall:
    def test_single_positive_at_rank_7(self):
        ranked = [f"d{i}" for i in range(10)]
        assert recall_at_k(ranked, {"d6"}, 10) == 1.0
        assert recall_at_k(ranked, {"d6"}, 5) == 0.0

    def test_half_of_two_positives(self):
        ranked = ["A"] + [f"x{i}" for i in range(9)]
        assert recall_at_k(ranked, {"A", "B"}, 10) == 0.5

    def test_monotone_in_k(self):
        rng = random.Random(1)
        for _ in range(50):
            ranked = [f"d{i}" for i in range(30)]
            rng.shuffle(ranked)
            positives = set(rng.sample(ranked, 5))
            values = [recall_at_k(ranked, positives, k) for k in range(1, 31)]
            assert values == sorted(values)

    def test_requires_positives(self):
        with pytest.raises(ValueError):
            recall_at_k(["a"], set(), 5)


class TestNdcg:
    def test_single_positive_rank_1(self):
        assert ndcg_at_k(["a", "b"], {"a"}, 10) == 1.0

    def test_single_positive_rank_3(self):
        got = ndcg_at_k(["x", "y", "a"], {"a"}, 10)
        assert abs(got - 0.5) < 1e-12  # 1/log2(4)

    def test_two_positives_front_loaded(self):
        assert ndcg_at_k(["a", "b", "c"], {"a", "b"}, 10) == 1.0

    def test_bounded(self):
        rng = random.Random(2)
        for _ in range(100):
            ranked = [f"d{i}" for i in range(20)]
            rng.shuffle(ranked)
            positives = set(rng.sample(ranked, rng.randint(1, 8)))
            value = ndcg_at_k(ranked, positives, 10)
            assert 0.0 <= value <= 1.0


def recall_oracle(ranked, positives, k):
    hits = 0
    for unit in ranked[:k]:
        if unit in positives:
            hits += 1
    return hits / len(positives)


def ndcg_oracle(ranked, positives, k):
    dcg = sum(1.0 / math.log2(i + 2) for i, u in enumerate(ranked[:k]) if u in positives)
    ideal = sum(1.0 / math.log2(i + 2) for i in range(min(len(positives), k)))
    return dcg / ideal


class TestOracleEquivalence:
    def test_random_runs_match_brute_force(self):
        rng = random.Random(77)
        for _ in range(100):
            universe = [f"d{i}" for i in range(rng.randint(5, 60))]
            rng.shuffle(universe)
            ranked = universe[: rng.randint(1, len(universe))]
            positives = set(rng.sample(universe, rng.randint(1, min(10, len(universe)))))
            for k in (1, 5, 10, 50):
                assert recall_at_k(ranked, positives, k) == recall_oracle(ranked, positives, k)
                assert ndcg_at_k(ranked, positives, k) == ndcg_oracle(ranked, positives, k)


class TestEvaluateRun:
    def test_missing_query_scores_zero_and_is_counted(self):
        report = evaluate_run({"q1": ["a"]}, {"q1": {"a"}, "q2": {"b"}}, ks=(10,))
        assert report.per_query["q2"]["recall@10"] == 0.0
        assert report.skipped["missing_from_run"] == 1
        assert report.missing_ids == ["q2"]

    def test_macro_is_mean(self):
        report = evaluate_run(
            {"q1": ["a"], "q2": ["x"]}, {"q1": {"a"}, "q2": {"b"}}, ks=(10,)
        )
        assert report.macro["recall@10"] == 0.5

    def test_recall_at_1_counts_only_the_top_unit(self):
        # q1's positive is ranked first, q2's second; q3 has one of two first.
        report = evaluate_run(
            {"q1": ["a", "b"], "q2": ["x", "b"], "q3": ["c", "y"]},
            {"q1": {"a"}, "q2": {"b"}, "q3": {"c", "d"}},
            ks=(1, 2),
        )
        assert [report.per_query[q]["recall@1"] for q in ("q1", "q2", "q3")] == [1.0, 0.0, 0.5]
        assert report.macro["recall@1"] == 0.5
        assert report.macro["recall@2"] == 2.5 / 3

    def test_ndcg_at_10_misses_a_hit_at_rank_11(self):
        # The default ks reach 1000; nDCG stays cut at 10.
        report = evaluate_run({"q1": [f"x{i}" for i in range(10)] + ["a"]}, {"q1": {"a"}})
        assert report.per_query["q1"]["recall@100"] == 1.0
        assert report.per_query["q1"]["ndcg@10"] == 0.0

    @pytest.mark.parametrize("ks", [(0,), (10, -1), (-1,)])
    def test_k_below_1_raises(self, ks):
        # At k = -1, [:k] kept every ranked unit but the last.
        with pytest.raises(ValueError, match="at least 1"):
            evaluate_run({"q1": ["a", "b"]}, {"q1": {"a"}}, ks=ks)


class TestRouge:
    def test_identical_texts(self):
        text = "The court denied the motion for reasons stated."
        for variant in (1, 2, "L"):
            assert rouge_f(text, text, variant) == 1.0

    def test_hand_enumerated_overlap(self):
        # cand "a b c" vs ref "a c d": unigram overlap {a, c} = 2 of 3 each
        # side, so P = R = F1 = 2/3.  LCS is "a c", same arithmetic.
        assert rouge_f("a b c", "a c d", 1) == pytest.approx(2 / 3)
        assert rouge_f("a b c", "a c d", "L") == pytest.approx(2 / 3)

    def test_bigram_overlap(self):
        # cand bigrams {ab, bc}; ref bigrams {ac, cd}; no overlap.
        assert rouge_f("a b c", "a c d", 2) == 0.0
        # "a b" shared: P = 1/2, R = 1/2.
        assert rouge_f("a b c", "a b d", 2) == pytest.approx(0.5)

    def test_disjoint_vocab(self):
        assert rouge_f("x y z", "p q r", 1) == 0.0

    def test_empty_flags_zero(self):
        assert rouge_f("", "words here", 1) == 0.0
        assert rouge_f("words here", "", "L") == 0.0

    def test_f1_symmetric_under_swap(self):
        rng = random.Random(3)
        vocab = ["w%d" % i for i in range(12)]
        for _ in range(100):
            a = " ".join(rng.choices(vocab, k=rng.randint(1, 25)))
            b = " ".join(rng.choices(vocab, k=rng.randint(1, 25)))
            assert rouge_f(a, b, 1) == pytest.approx(rouge_f(b, a, 1))

    def test_case_and_punctuation_folded(self):
        assert rouge_f("The Court HELD.", "the court held", 1) == 1.0


def lcs_oracle(a, b):
    """Textbook O(len(a) * len(b)) dynamic programme."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l_oracle(cand, ref):
    match = lcs_oracle(cand, ref)
    if match == 0:
        return 0.0
    p, r = match / len(cand), match / len(ref)
    return 2 * p * r / (p + r)


class TestLcsOracle:
    def test_hand_cases(self):
        assert _lcs_length([], ["a"]) == 0
        assert _lcs_length(["a", "b", "c", "b", "d", "a", "b"], ["b", "d", "c", "a", "b", "a"]) == 4
        assert _lcs_length(["x"] * 70, ["x"] * 65) == 65

    def test_random_sequences_match_oracle(self):
        # Up to 300 words over 2-8 word vocabularies: the bit vectors span
        # several 64-bit words and every token repeats many times.
        rng = random.Random(7)
        for _ in range(60):
            vocab = [f"w{i}" for i in range(rng.randint(2, 8))]
            a = rng.choices(vocab, k=rng.randint(0, 300))
            b = rng.choices(vocab, k=rng.randint(0, 300))
            want = lcs_oracle(a, b)
            assert _lcs_length(a, b) == want
            assert _lcs_length(b, a) == want
            cand, ref = " ".join(a), " ".join(b)
            assert rouge_f(cand, ref, "L") == rouge_l_oracle(a, b)
            assert rouge_f(ref, cand, "L") == rouge_l_oracle(b, a)


def rouge_n_oracle(cand, ref, n):
    """Clipped n-gram overlap by explicit loops: each candidate n-gram
    takes the first unused equal n-gram of the reference, if there is one."""
    cand_grams = [cand[i : i + n] for i in range(len(cand) - n + 1)]
    ref_grams = [ref[i : i + n] for i in range(len(ref) - n + 1)]
    used = [False] * len(ref_grams)
    match = 0
    for gram in cand_grams:
        for j, other in enumerate(ref_grams):
            if not used[j] and other == gram:
                used[j] = True
                match += 1
                break
    if match == 0:
        return 0.0
    p, r = match / len(cand_grams), match / len(ref_grams)
    return 2 * p * r / (p + r)


class TestRougeNOracle:
    def test_hand_cases(self):
        # "a a" holds the unigram a twice; "a b" once, so one is clipped.
        assert rouge_n_oracle(["a", "a"], ["a", "b"], 1) == rouge_f("a a", "a b", 1) == 0.5
        assert rouge_n_oracle(["a"], ["a"], 2) == rouge_f("a", "a", 2) == 0.0

    def test_random_token_lists_match_oracle(self):
        # Up to 40 words over 2-6 word vocabularies, so n-grams repeat and
        # clipping decides the overlap.
        rng = random.Random(11)
        for _ in range(400):
            vocab = [f"w{i}" for i in range(rng.randint(2, 6))]
            a = rng.choices(vocab, k=rng.randint(0, 40))
            b = rng.choices(vocab, k=rng.randint(0, 40))
            cand, ref = " ".join(a), " ".join(b)
            for n in (1, 2):
                assert rouge_f(cand, ref, n) == rouge_n_oracle(a, b, n)
                assert rouge_f(ref, cand, n) == rouge_n_oracle(b, a, n)


class TestFoldOncePerText:
    """``rouge_f`` reuses the folds of its last few texts; it must score
    exactly as when every call folds both texts afresh."""

    @staticmethod
    def fresh(cand, ref, variant):
        a, b = fold_words(cand), fold_words(ref)
        return rouge_l_oracle(a, b) if variant == "L" else rouge_n_oracle(a, b, variant)

    def test_alternating_texts_match_fold_every_call(self):
        # Eight texts through a cache of four, so calls both hit and evict,
        # and no stale fold of another text may score.
        rng = random.Random(13)
        vocab = ["a", "b", "c", "A.", "b,", "C’s"]
        texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 12))) for _ in range(8)]
        for _ in range(600):
            cand, ref, variant = rng.choice(texts), rng.choice(texts), rng.choice([1, 2, "L"])
            assert rouge_f(cand, ref, variant) == self.fresh(cand, ref, variant), (cand, ref, variant)

    def test_generation_scoring_folds_each_text_once(self, monkeypatch):
        folded = []

        def counting_fold(text):
            folded.append(text)
            return fold_words(text)

        monkeypatch.setattr(metrics, "fold_words", counting_fold)
        metrics._folded.cache_clear()
        insts = [TestScoreGenerationRun().make_instance(f"i{k}") for k in range(3)]
        outputs = {inst.instance_id: f"Answer {k}: 912 F.3d 640." for k, inst in enumerate(insts)}
        score_generation_run(insts, outputs)
        metrics._folded.cache_clear()
        # Three ROUGE variants per instance, and the instances share one
        # gold paragraph: each distinct text is folded once in all.
        assert sorted(folded) == sorted({*outputs.values(), *(inst.gold for inst in insts)})


@lru_cache(maxsize=None)
def bounded_oracle(surface):
    """The grounding regex ``_bounded_in`` replaced: no ``[^\\W_]`` on
    either side of the surface."""
    return re.compile(rf"(?<![^\W_]){re.escape(surface)}(?![^\W_])")


class TestBoundedIn:
    def test_every_code_point_as_either_neighbour_matches_the_regex(self):
        # Lone surrogates included; in blocks, to bound memory.
        surface = "1 U.S. 2"
        search = bounded_oracle(surface).search
        for lo in range(0, sys.maxunicode + 1, 1 << 16):
            chars = list(map(chr, range(lo, lo + (1 << 16))))
            for texts in ([c + surface for c in chars], [surface + c for c in chars]):
                want = [m is not None for m in map(search, texts)]
                assert list(map(_bounded_in, repeat(surface), texts)) == want

    def test_random_strings_match_the_regex(self):
        # Letters and digits outside ASCII, an underscore (a word character
        # but no letter or digit), a combining mark, characters whose case
        # mapping changes length, and a wide space.
        pool = [*"0123456789", "U.S.", "_", " ", "é", "Ⅻ", "٣", "²", "\u0301", "İ", "ß", "\u3000", "\u212a"]
        rng = random.Random(17)
        for _ in range(200_000):
            surface = "".join(rng.choices(pool, k=rng.randint(1, 2)))
            left, right = ("".join(rng.choices(pool, k=rng.randint(0, 4))) for _ in range(2))
            text = left + surface + right if rng.random() < 0.5 else left + right
            assert _bounded_in(surface, text) == (bounded_oracle(surface).search(text) is not None), (surface, text)


def keys(*strings):
    return [parse_citation_key(s, TABLE) for s in strings]


class TestCitationReport:
    # The worked hallucination example lives in fixtures.py; the acceptance
    # suite pins the same arithmetic.
    GENERATED = fixtures.GENERATED_KEYS
    RELEVANT = fixtures.RELEVANT_KEYS
    REFERENCES = fixtures.REFERENCE_TEXTS

    def test_worked_example_exact_fractions(self):
        report = citation_report_from_keys(
            keys(*self.GENERATED), keys(*self.RELEVANT), prefix_paragraphs=[],
            reference_texts=self.REFERENCES,
        )
        assert report.cp == Fraction(3, 5)
        assert report.cr == Fraction(3, 4)
        assert report.cfp == Fraction(2, 5)

    def test_reference_inclusive_mode_grounds_literal_occurrences(self):
        report = citation_report_from_keys(
            keys(*self.GENERATED), keys(*self.RELEVANT), prefix_paragraphs=[],
            reference_texts=self.REFERENCES,
            include_references_in_substring_check=True,
        )
        # "101 S.Ct. 173" occurs verbatim in a reference text; "404 U.S. 519"
        # appears only in the spaced form and stays hallucinated.
        assert report.cfp == Fraction(1, 5)

    def test_all_generated_relevant(self):
        report = citation_report_from_keys(
            keys(*self.RELEVANT), keys(*self.RELEVANT), prefix_paragraphs=[]
        )
        assert (report.cr, report.cp, report.cfp) == (Fraction(1), Fraction(1), Fraction(0))

    def test_prefix_grounding(self):
        generated = keys("1 F.3d 1", "2 F.3d 2", "3 F.3d 3")
        relevant = keys("1 F.3d 1")
        report = citation_report_from_keys(
            generated, relevant, prefix_paragraphs=["Earlier we cited 2 F.3d 2 with approval."]
        )
        assert report.cp == Fraction(1, 3)
        assert report.cfp == Fraction(1, 3)
        statuses = [v.status for v in report.verdicts]
        assert statuses == ["matched", "prefix-grounded", "hallucinated"]

    def test_grounding_respects_citation_boundaries(self):
        # "45 U.S. 22" is a substring of "545 U.S. 220" but not that citation.
        def cfp(prefix):
            return citation_report_from_keys(keys("45 U.S. 22"), keys("1 U.S. 1"), [prefix]).cfp

        assert cfp("See 545 U.S. 220 (2005).") == Fraction(1)
        assert cfp("See 45 U.S. 220 and 145 U.S. 22.") == Fraction(1)
        for prefix in ("45 U.S. 22", "As held in 45 U.S. 22.", "(citing 45 U.S. 22)", "545 U.S. 220; 45 U.S. 22, 24"):
            assert cfp(prefix) == Fraction(0), prefix

    def test_duplicates_deduplicated(self):
        report = citation_report_from_keys(
            keys("1 F.3d 1", "1 F.3d 1", "2 F.3d 2"), keys("1 F.3d 1"), []
        )
        assert len(report.generated) == 2
        assert report.cp == Fraction(1, 2)

    def test_pincite_variant_in_text_matches_parent_key(self):
        report = citation_report(
            "As held in Hughes v. Rowe, 449 U.S. 5, 9-10 (1980), the rule stands.",
            keys("449 U.S. 5"),
            prefix_paragraphs=[],
            reporters=TABLE,
        )
        assert report.cr == Fraction(1)
        assert report.cfp == Fraction(0)

    def test_prefix_grounds_the_raw_surface_form(self):
        # The prefix spells the citation "477 U. S. 317"; the canonical
        # "477 U.S. 317" occurs in no prefix, so only the raw form grounds it.
        prefix = ["As held in 477 U. S. 317, the movant bears the burden."]
        report = citation_report("See 477 U. S. 317.", keys("1 U.S. 1"), prefix, reporters=TABLE)
        assert [v.status for v in report.verdicts] == ["prefix-grounded"]
        assert report.cfp == Fraction(0)
        without_raw = citation_report_from_keys(keys("477 U.S. 317"), keys("1 U.S. 1"), prefix)
        assert without_raw.cfp == Fraction(1)

    def test_empty_generation_degenerate(self):
        report = citation_report("no citations at all", keys("1 F.3d 1"), [], reporters=TABLE)
        assert report.degenerate
        assert (report.cr, report.cp, report.cfp) == (Fraction(0), Fraction(0), Fraction(0))

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            citation_report_from_keys(keys("1 F.3d 1"), [], [])

    def test_numerators_are_integral(self):
        rng = random.Random(9)
        pool = keys(*[f"{v} F.3d {p}" for v, p in zip(range(1, 40), range(100, 139))])
        for _ in range(100):
            generated = rng.sample(pool, rng.randint(0, 10))
            relevant = rng.sample(pool, rng.randint(1, 10))
            report = citation_report_from_keys(generated, relevant, [])
            assert (report.cr * len(report.relevant)).denominator == 1
            if report.generated:
                assert (report.cp * len(report.generated)).denominator == 1
            assert 0 <= report.cr <= 1 and 0 <= report.cp <= 1 and 0 <= report.cfp <= 1

    def test_subset_of_relevant_never_hallucinates(self):
        rng = random.Random(10)
        pool = keys(*[f"{v} U.S. {p}" for v, p in zip(range(1, 30), range(1, 30))])
        for _ in range(50):
            relevant = rng.sample(pool, rng.randint(2, 8))
            generated = rng.sample(relevant, rng.randint(1, len(relevant)))
            report = citation_report_from_keys(generated, relevant, [])
            assert report.cfp == 0


class TestExtractAnswer:
    def test_wrapped(self):
        assert extract_answer("preamble <answer>the text</answer> suffix") == "the text"

    def test_unwrapped_passthrough(self):
        assert extract_answer("plain output") == "plain output"

    def test_unclosed_tag(self):
        assert extract_answer("<answer>rest of text") == "rest of text"


class FakeInstance:
    def __init__(self, instance_id, gold, cited, prefix="", references=()):
        self.instance_id = instance_id
        self.gold = gold
        self.cited_keys = tuple(cited)
        self.prefix = prefix
        self.references = tuple(references)


class TestScoreGenerationRun:
    def make_instance(self, iid="i1"):
        gold = (
            "Control confers fiduciary status. In re Walden Pipeline Litigation, 912 "
            "F.3d 640, 655 (3d Cir.1999). Officers are liable. Dorsey v. Claxton "
            "Cartage Co., 933 F.3d 1188, 1195 (9th Cir.2001)."
        )
        return FakeInstance(iid, gold, keys("912 F.3d 640", "933 F.3d 1188"))

    def test_gold_as_output_scores_perfectly(self):
        inst = self.make_instance()
        report = score_generation_run([inst], {"i1": inst.gold})
        row = report.per_query["i1"]
        assert row == {
            "rouge1": 1.0, "rouge2": 1.0, "rougeL": 1.0, "cr": 1.0, "cp": 1.0, "cfp": 0.0,
        }

    def test_rouge_scores_are_their_own_orders(self):
        # Scoring the gold itself sets all three to 1, so it cannot tell them apart.
        inst = self.make_instance()
        text = "Officers are liable, and control confers status. 912 F.3d 640."
        row = score_generation_run([inst], {"i1": text}).per_query["i1"]
        want = {"rouge1": rouge_f(text, inst.gold, 1), "rouge2": rouge_f(text, inst.gold, 2),
                "rougeL": rouge_f(text, inst.gold, "L")}
        assert len(set(want.values())) == 3
        assert {metric: row[metric] for metric in want} == want

    def test_degenerate_counts_each_output_without_a_case_citation(self):
        insts = [self.make_instance("i1"), self.make_instance("i2")]
        report = score_generation_run(insts, {"i1": insts[0].gold, "i2": "Control confers fiduciary status."})
        assert report.skipped["degenerate"] == 1

    def test_unmatched_ids_listed_and_excluded(self):
        inst = self.make_instance()
        report = score_generation_run([inst], {"zz": "x"})
        assert report.missing_ids == ["i1"]
        assert report.extra_ids == ["zz"]
        assert report.per_query == {}

    def test_compare_runs_gains(self):
        inst = self.make_instance()
        with_refs = score_generation_run([inst], {"i1": inst.gold})
        without = score_generation_run([inst], {"i1": "Control confers fiduciary status."})
        gains = compare_runs(with_refs, without)
        assert gains["cr"]["with_refs"] == 1.0
        assert gains["cr"]["without_refs"] == 0.0
        assert gains["cr"]["gain_pct"] is None
        assert gains["rouge1"]["gain_pct"] > 0

    def test_compare_runs_gain_pct_is_exact(self):
        def report(macro):
            return MetricReport(per_query={}, macro=macro, skipped={}, missing_ids=[], extra_ids=[])

        gains = compare_runs(report({"a": 0.75, "b": 0.25, "c": 0.5}), report({"a": 0.5, "b": 0.5, "c": 0.0}))
        assert gains == {
            "a": {"with_refs": 0.75, "without_refs": 0.5, "gain_pct": 50.0},
            "b": {"with_refs": 0.25, "without_refs": 0.5, "gain_pct": -50.0},
            "c": {"with_refs": 0.5, "without_refs": 0.0, "gain_pct": None},
        }
