from __future__ import annotations

import random
import re

import pytest

import fixtures
from casebench.citations import find_case_citations, load_reporter_table
from casebench.corpus import chunk_document
from casebench.genset import (
    GensetError,
    _salient_text,
    build_generation_instance,
    build_genset,
    citation_density_profile,
    read_genset_jsonl,
    render_prompt,
    select_reference_paragraphs,
    write_genset_jsonl,
)
from casebench.queries import build_corpus_key_index
from casebench.retrieval import analyze, bm25_search, build_index
from conftest import make_doc

TABLE = load_reporter_table()

CITED_PARA = (
    "The rule is settled. Tilden v. Marsh Chemical Corp., 601 U.S. 101, 105 (2023); "
    "Orton v. Delmar Packing Co., 602 U.S. 555, 560 (2024); Carden v. Wexford "
    "Mills, Inc., 710 F.2d 880, 884 (7th Cir.1983)."
)


def twelve_para_doc():
    paragraphs = [f"Paragraph number {i} with plain words only." for i in range(1, 13)]
    paragraphs[9] = CITED_PARA  # paragraph 10, 1-based
    return make_doc("g12", paragraphs, cite="5 F.3d 500")


def instance(doc, t, corpus, **kwargs):
    """The instance built with a key index over ``corpus``, as build_genset builds it."""
    key_index, _ = build_corpus_key_index(corpus.values(), TABLE)
    return build_generation_instance(doc, t, corpus, key_index, TABLE, **kwargs)


class TestSelectReferenceParagraphs:
    def test_twelve_paragraphs_citations_only_in_tenth(self):
        # N=12: floor(24/3)=8 <= t <= 10; only paragraph 10 has >= 2 citations.
        assert select_reference_paragraphs(twelve_para_doc(), TABLE) == [10]

    def test_three_paragraphs_never_eligible(self):
        doc = make_doc("g3", [CITED_PARA] * 3)
        assert select_reference_paragraphs(doc, TABLE) == []

    def test_one_citation_not_enough(self):
        paragraphs = [f"Words {i}." for i in range(1, 13)]
        paragraphs[9] = "Single cite. Tilden v. Marsh Chemical Corp., 601 U.S. 101 (2023)."
        doc = make_doc("g1c", paragraphs)
        assert select_reference_paragraphs(doc, TABLE) == []

    def test_bounds_formula_on_mini_corpus(self, mini_corpus):
        for doc in mini_corpus:
            n = len(doc.paragraphs)
            for t in select_reference_paragraphs(doc, TABLE):
                assert (2 * n) // 3 <= t <= n - 2
                assert len(find_case_citations(doc.paragraph_text(t - 1), TABLE)) >= 2


def authorities():
    return [
        make_doc("auth1", ["Authority one text about movant burden.", "More authority one analysis."],
                 cite="601 U.S. 101"),
        make_doc("auth2", ["Authority two text about genuine dispute.", "More authority two analysis."],
                 cite="602 U.S. 555"),
    ]


class TestBuildInstance:
    def corpus_with_authorities(self):
        doc = twelve_para_doc()
        return doc, {d.doc_id: d for d in (doc, *authorities())}

    def test_instance_fields_and_contiguity(self):
        doc, corpus = self.corpus_with_authorities()
        inst = instance(doc, 10, corpus)
        assert inst.t == 10
        assert inst.gold == CITED_PARA
        assert (inst.prefix + "\n" + inst.gold) in doc.text
        assert doc.text.startswith(inst.prefix)
        assert [str(k) for k in inst.cited_keys] == [
            "601 U.S. 101", "602 U.S. 555", "710 F.2d 880",
        ]
        # Only two keys resolve; references keep first-mention order.
        assert [str(r.key) for r in inst.references] == ["601 U.S. 101", "602 U.S. 555"]

    def test_short_cited_case_contributes_whole_text(self):
        doc, corpus = self.corpus_with_authorities()
        inst = instance(doc, 10, corpus)
        assert inst.references[0].text == corpus["auth1"].text

    def test_word_budget_truncates(self):
        doc, corpus = self.corpus_with_authorities()
        inst = instance(doc, 10, corpus, word_budget=10)
        total = sum(len(r.text.split()) for r in inst.references)
        assert total <= 10

    @pytest.mark.parametrize("t, message", [
        (0, "paragraph index 0 out of range 1..12"),
        (13, "paragraph index 13 out of range 1..12"),
        (1, "gold paragraph needs a non-empty prefix"),
    ])
    def test_gold_paragraph_outside_2_to_n_raises(self, t, message):
        doc, corpus = self.corpus_with_authorities()
        with pytest.raises(GensetError, match=f"^{re.escape(message)}$"):
            instance(doc, t, corpus)

    def test_last_paragraph_builds(self):
        paragraphs = [f"Paragraph number {i} with plain words only." for i in range(1, 12)] + [CITED_PARA]
        doc = make_doc("g12", paragraphs)
        inst = instance(doc, 12, {d.doc_id: d for d in (doc, *authorities())})
        assert inst.gold == CITED_PARA
        assert inst.prefix + "\n" + inst.gold == doc.text

    def test_no_resolvable_keys_raises(self):
        doc = twelve_para_doc()
        with pytest.raises(GensetError):
            instance(doc, 10, {doc.doc_id: doc})

    def test_prompt_invariants(self):
        doc, corpus = self.corpus_with_authorities()
        inst = instance(doc, 10, corpus)
        instruction_line = inst.prompt_with_refs.rsplit("\n", 1)[-1]
        for ref in inst.references:
            assert f"# Reference case {ref.key}\n" in inst.prompt_with_refs
            assert str(ref.key) in instruction_line
        assert "# Reference case" not in inst.prompt_without_refs
        for prompt in (inst.prompt_with_refs, inst.prompt_without_refs):
            assert "# Paragrah\n" in prompt
            assert "<answer></answer>" in prompt


def salient_oracle(doc, gold_text, k):
    """The salient text through a BM25 index over the document's passages,
    with the passage ids ranked."""
    passages = chunk_document(doc)
    if len(passages) <= 1:
        return doc.text, []
    index = build_index([(p.passage_id, p.text) for p in passages], unit_kind="passage")
    ranked = bm25_search(index, gold_text, k=k).unit_ids()
    chosen = ranked or [p.passage_id for p in passages[:k]]
    by_id = {p.passage_id: p.text for p in passages}
    return "\n".join(by_id[pid] for pid in chosen), ranked


BLOCK = 175  # chunk_document's stride: passage i is blocks i and i + 1.
TERMS = ["alpha", "beta", "gamma", "delta", "epsilon", "kappa", "lambda", "sigma", "u.s.", "f.3d"]
MARKS = ["—", "§", "¶", "..."]


def block_doc(doc_id, blocks):
    """A document of the given word blocks, one paragraph each."""
    return make_doc(doc_id, [" ".join(words) for words in blocks])


def random_block_doc(rng, doc_id):
    """Blocks drawn from five templates, so that passages made of the same
    two templates tie.  A template is mostly marks with a few terms, or
    marks alone; each block with a term carries one filler word of its
    own, so tied passages differ in text."""
    templates = []
    for _ in range(5):
        words = ["—"] * BLOCK
        for i in rng.sample(range(BLOCK), rng.choice([0, 1, 1, 2, 4])):
            words[i] = rng.choice(TERMS)
        templates.append(words)
    blocks = []
    for j in range(rng.randint(1, 20)):
        words = list(rng.choice(templates))
        if any(map(analyze, words)):
            words[rng.randrange(BLOCK)] = f"filler{j}"
        blocks.append(words)
    if rng.random() < 0.3:
        blocks[-1] = blocks[-1][: rng.randint(1, BLOCK)]
    return block_doc(doc_id, blocks)


def random_gold(rng):
    roll = rng.random()
    if roll < 0.15:
        return "zeta — eta"  # shares no term with any passage
    if roll < 0.2:
        return "§ ¶"  # no term at all
    return " ".join(rng.choices(TERMS + ["zeta"], k=rng.randint(1, 8)))


class TestSalientText:
    """``_salient_text`` scores passages without an index; the index path of
    ``bm25_search`` is its oracle, text and ranking alike."""

    def test_random_documents_match_bm25_search(self):
        rng = random.Random(12)
        seen = {"12+ passages": 0, "tie in the top three": 0, "passage without a term": 0,
                "nothing scores": 0, "k above passage count": 0}
        for n in range(300):
            doc = random_block_doc(rng, f"r{n}")
            passages = chunk_document(doc)
            gold = random_gold(rng)
            for k in (1, 2, 5, 40):
                assert _salient_text(doc, gold, k) == salient_oracle(doc, gold, k)[0], (n, k)
            if len(passages) < 2:
                continue
            index = build_index([(p.passage_id, p.text) for p in passages])
            scores = [e.score for e in bm25_search(index, gold, k=len(passages)).entries]
            seen["12+ passages"] += len(passages) >= 12
            seen["tie in the top three"] += len(set(scores[:3])) < len(scores[:3])
            seen["passage without a term"] += any(not analyze(p.text) for p in passages)
            seen["nothing scores"] += not scores
            seen["k above passage count"] += len(passages) < 40
        assert all(seen.values()), seen

    def test_ties_break_by_passage_id_string(self):
        # "alpha" once in blocks 2 and 10: passages 1, 2, 9 and 10 tie, and
        # "#10" sorts before "#2".
        blocks = [["—"] * (BLOCK - 1) + [f"filler{j}"] for j in range(14)]
        blocks[2][0] = blocks[10][0] = "alpha"
        doc = block_doc("ties", blocks)
        passages = {p.passage_id: p.text for p in chunk_document(doc)}
        assert len(passages) == 13
        text, ranked = salient_oracle(doc, "alpha", 2)
        assert ranked == ["ties#1", "ties#10"]
        assert _salient_text(doc, "alpha", 2) == text == passages["ties#1"] + "\n" + passages["ties#10"]

    def test_only_positive_scores_rank(self):
        # alpha is in passage #0 alone: the other four score 0 and are not
        # ranked, though k leaves room for them.
        blocks = [[f"filler{j}"] * BLOCK for j in range(6)]
        blocks[0][0] = "alpha"
        doc = block_doc("one", blocks)
        text, ranked = salient_oracle(doc, "alpha", 3)
        assert ranked == ["one#0"]
        assert _salient_text(doc, "alpha", 3) == text == chunk_document(doc)[0].text

    @pytest.mark.parametrize("gold", ["zeta", "§", "filler1 filler2 filler3"])
    def test_nothing_scores_gives_the_first_passages(self, gold):
        # filler1..3 each sit in two of the four passages, so their idf is 0.
        blocks = [[f"filler{j}"] * BLOCK for j in range(5)]
        doc = block_doc("none", blocks)
        passages = chunk_document(doc)
        assert salient_oracle(doc, gold, 2) == (passages[0].text + "\n" + passages[1].text, [])
        assert _salient_text(doc, gold, 2) == passages[0].text + "\n" + passages[1].text

    def test_k_above_passage_count_takes_every_scoring_passage(self):
        # Five passages: alpha is in #0 alone, gamma in #1 and #2.
        doc = block_doc("all", [[word] * BLOCK for word in ("alpha", "beta", "gamma", "delta", "eta", "theta")])
        text, ranked = salient_oracle(doc, "alpha alpha gamma", 40)
        assert ranked == ["all#0", "all#1", "all#2"]
        assert _salient_text(doc, "alpha alpha gamma", 40) == text


class TestGoldenPrompts:
    WITH_REFS = fixtures.GOLDEN_PROMPT_WITH_REFS
    WITHOUT_REFS = fixtures.GOLDEN_PROMPT_WITHOUT_REFS

    def test_byte_exact_rendering(self, mini_corpus):
        instances, _ = build_genset(mini_corpus, seed=0)
        inst = next(i for i in instances if i.instance_id == "f2d-469-902:p3")
        assert inst.prompt_with_refs == self.WITH_REFS
        assert inst.prompt_without_refs == self.WITHOUT_REFS
        assert render_prompt(inst, with_refs=True) == self.WITH_REFS
        assert render_prompt(inst, with_refs=False) == self.WITHOUT_REFS


class TestBuildGenset:
    def test_deterministic_under_seed(self, mini_corpus):
        a, _ = build_genset(mini_corpus, seed=3)
        b, _ = build_genset(mini_corpus, seed=3)
        assert [i.instance_id for i in a] == [i.instance_id for i in b]

    def test_instances_satisfy_type_invariants(self, mini_corpus):
        instances, diagnostics = build_genset(mini_corpus, seed=0)
        assert instances
        by_id = {d.doc_id: d for d in mini_corpus}
        for inst in instances:
            n = len(by_id[inst.doc_id].paragraphs)
            assert (2 * n) // 3 <= inst.t <= n - 2
            assert len(find_case_citations(inst.gold, TABLE)) >= 2
            assert len(inst.references) >= 2

    def test_word_budget_cuts_a_reference_mid_text(self, mini_corpus):
        # The first reference is cut to its first 30 words; the rest get none.
        full, _ = build_genset(mini_corpus, seed=0)
        cut, _ = build_genset(mini_corpus, seed=0, word_budget=30)
        assert cut and [i.instance_id for i in cut] == [i.instance_id for i in full]
        for a, b in zip(full, cut):
            words = [len(r.text.split()) for r in b.references]
            assert words == [30] + [0] * (len(words) - 1), b.instance_id
            assert b.references[0].text == " ".join(a.references[0].text.split()[:30])

    def test_smallest_eligible_document_builds_paragraph_2(self):
        # N = 4 is the least N with floor(2N/3) <= N - 2; its one candidate is t = 2.
        doc = make_doc("g4", ["Opening words.", CITED_PARA, "Plain words.", "Closing words."])
        instances, diagnostics = build_genset([doc, *authorities()])
        assert [i.instance_id for i in instances] == ["g4:p2"]
        assert diagnostics == []

    def test_round_trip(self, mini_corpus, tmp_path):
        instances, _ = build_genset(mini_corpus, seed=0)
        path = tmp_path / "genset.jsonl"
        write_genset_jsonl(instances, path)
        back = read_genset_jsonl(path)
        assert [i.instance_id for i in back] == [i.instance_id for i in instances]
        assert back[0].prompt_with_refs == instances[0].prompt_with_refs
        assert back[0].cited_keys == instances[0].cited_keys


class TestDensityProfile:
    def test_citations_only_in_last_decile(self):
        paragraphs = ["Plain filler words here."] * 9
        paragraphs.append("See Tilden v. Marsh Chemical Corp., 601 U.S. 101 (2023).")
        doc = make_doc("dens", paragraphs)
        profile = citation_density_profile([doc], TABLE)
        assert all(d == 0.0 for d in profile.decile_densities[:9])
        assert profile.decile_densities[9] > 0

    def test_uniform_density(self):
        # One citation per paragraph, each paragraph exactly 100 words.
        cite = "1 F.3d 1"
        body = " ".join(f"w{i}" for i in range(96))
        paragraphs = [f"{body} see {cite}." for _ in range(10)]
        doc = make_doc("unif", paragraphs)
        profile = citation_density_profile([doc], TABLE)
        assert all(d == pytest.approx(1.0) for d in profile.decile_densities)

    def test_bucket_words_partition_corpus(self, mini_corpus):
        profile = citation_density_profile(mini_corpus, TABLE)
        assert sum(profile.decile_words) == sum(d.word_count() for d in mini_corpus)
        assert len(profile.decile_densities) == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            citation_density_profile([], TABLE)

    def test_one_shot_iterator_reads_like_the_list(self, mini_corpus):
        assert citation_density_profile(iter(mini_corpus), TABLE) == citation_density_profile(mini_corpus, TABLE)
        with pytest.raises(ValueError):
            citation_density_profile(iter([]), TABLE)
