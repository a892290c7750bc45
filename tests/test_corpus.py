from __future__ import annotations

import json
import math
import random
import re
import sys
import zipfile

import pytest

import citation_oracles
from casebench import minicorpus
from casebench.citations import load_reporter_table
from casebench.corpus import (
    CaseDocument,
    DataError,
    _normalize_opinion,
    chunk_document,
    fold_words,
    load_corpus,
    passage_windows,
    read_corpus_jsonl,
    shingles,
    word_bounds,
    write_corpus_jsonl,
    write_jsonl,
)
from casebench.genset import _truncate_words, citation_density_profile
from conftest import make_doc


def record(doc_id="d1", opinions=("Some text.",), cite="1 F.2d 1", name="A v. B"):
    return {
        "id": doc_id,
        "name": name,
        "cite": cite,
        "opinions": [{"type": "majority", "text": t} for t in opinions],
    }


class TestLoadCorpus:
    def test_intra_opinion_newlines_collapse_and_opinions_join(self):
        docs, diags = load_corpus([record(opinions=["A.\nB.", "C."])])
        assert not diags
        assert docs[0].text == "A. B.\nC."
        assert len(docs[0].paragraphs) == 2

    def test_blank_lines_inside_an_opinion_mark_paragraphs(self):
        docs, _ = load_corpus([record(opinions=["First para.\n\nSecond\npara."])])
        assert docs[0].text == "First para.\nSecond para."

    def test_whitespace_runs_collapse_as_the_regex_did(self):
        # \x1c, NBSP and U+3000 are whitespace to str.strip but not to the
        # collapse: inside a paragraph they stay as they are.
        assert _normalize_opinion("a \t\f\v  b\n \x1c\xa0\u3000c" + " " * 9 + "d") == ["a b \x1c\xa0\u3000c d"]
        pool = [" ", "\t", "\f", "\v", "\n", "\r", "\r\n", "\xa0", "\u3000", "\x1c", "a", "b"]
        rng = random.Random(29)
        for _ in range(5000):
            text = "".join(rng.choices(pool, k=rng.randint(0, 30)))
            assert _normalize_opinion(text) == citation_oracles.normalize_opinion(text), ascii(text)

    @pytest.mark.parametrize("blank", ["", " ", "\t", "\f", "\v", " \f\t\v "])
    def test_a_line_of_collapsing_whitespace_breaks_the_paragraph(self, blank):
        assert _normalize_opinion(f"a\n{blank}\nb") == ["a", "b"]

    @pytest.mark.parametrize("kept", ["\xa0", "\u3000", "\x1c"])
    def test_a_line_of_kept_whitespace_stays_in_the_paragraph(self, kept):
        assert _normalize_opinion(f"a\n{kept}\nb") == [f"a {kept} b"]

    def test_empty_opinion_list_rejected(self):
        docs, diags = load_corpus([{"id": "x", "name": "", "cite": "", "opinions": []}])
        assert docs == []
        assert len(diags) == 1

    def test_missing_id_rejected_stream_continues(self):
        docs, diags = load_corpus([{"opinions": [{"type": "m", "text": "hi"}]}, record()])
        assert [d.doc_id for d in docs] == ["d1"]
        assert len(diags) == 1

    def test_duplicate_id_rejected(self):
        docs, diags = load_corpus([record(), record()])
        assert len(docs) == 1
        assert any("duplicate" in d for d in diags)

    @pytest.mark.parametrize("doc_id", ["a b", "a\nb", "a\tb", " a", "a\u00a0b"])
    def test_id_with_whitespace_rejected(self, doc_id):
        # Index files join unit ids with newlines and TREC runs split on
        # whitespace, so such an id would break a later stage.
        docs, diags = load_corpus([record(doc_id=doc_id), record()])
        assert [d.doc_id for d in docs] == ["d1"]
        assert diags == [f"record 0: id {doc_id!r} contains whitespace"]

    def test_paragraph_spans_partition_text(self, mini_corpus):
        for doc in mini_corpus:
            pos = 0
            for start, end in doc.paragraphs:
                assert start == pos
                assert end > start
                pos = end + 1
            assert pos - 1 == len(doc.text)
            assert "\n\n" not in doc.text
            assert "  " not in doc.text

    def test_round_trip_is_idempotent(self, mini_corpus, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_corpus_jsonl(mini_corpus, first)
        write_corpus_jsonl(read_corpus_jsonl(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_mini_corpus_loads_from_a_zipped_package(self, mini_corpus, tmp_path, monkeypatch):
        # A zipped install's resources are zipfile.Path objects, which
        # open() does not take.
        archive = tmp_path / "casebench.zip"
        with zipfile.ZipFile(archive, "w") as z:
            z.writestr("mini_corpus.jsonl", minicorpus.mini_corpus_path().read_bytes())
        with zipfile.ZipFile(archive) as z:
            monkeypatch.setattr(minicorpus, "mini_corpus_path", lambda: zipfile.Path(z, "mini_corpus.jsonl"))
            assert minicorpus.load_mini_corpus() == mini_corpus

    @pytest.mark.parametrize("bad_row, reason", [
        ('{"doc_id": "b", "text": "t"', "malformed JSON"),
        ('["b", "t"]', "expected a JSON object, got list"),
        ('{"doc_id": "b", "text": "t"}', "missing field 'paragraphs'"),
        ('{"doc_id": "b", "text": 7, "paragraphs": []}', "text must be a string, not int"),
        ('{"doc_id": "b", "text": "t", "paragraphs": [[0]]}', "paragraph 0 is [0], not [0, 1], the span of line 0"),
        ('{"doc_id": "a", "text": "t", "paragraphs": [[0, 1]]}', "duplicate doc_id 'a'"),
        ('{"doc_id": "b\\u00a0c", "text": "t", "paragraphs": [[0, 1]]}', "doc_id 'b\\xa0c' contains whitespace"),
        ('{"doc_id": "", "text": "t", "paragraphs": [[0, 1]]}', "missing doc_id"),
        ('{"doc_id": "b", "text": "t", "paragraphs": [[0, 1]], "reporter_cite": 5}', "reporter_cite must be a string, not int"),
        ('{"doc_id": "b", "text": "t", "paragraphs": [[0, 1]], "title": ["A v. B"]}', "title must be a string, not list"),
    ])
    def test_bad_row_names_path_and_line(self, tmp_path, bad_row, reason):
        # The blank line is skipped, and still counted.
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "a", "text": "t", "paragraphs": [[0, 1]]}\n\n' + bad_row + "\n")
        with pytest.raises(DataError) as exc:
            read_corpus_jsonl(path)
        assert str(exc.value).startswith(f"{path}:3: {reason}")


class TestParagraphPartition:
    """A document's paragraphs are the lines of its text, and a corpus
    row's ``paragraphs`` must be exactly their spans; the reader names the
    first paragraph that differs."""

    TEXT = "First paragraph.\nSecond paragraph"  # 33 characters, newline at 16

    def read(self, tmp_path, paragraphs, text=TEXT):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"doc_id": "d", "text": text, "paragraphs": paragraphs}) + "\n")
        return read_corpus_jsonl(path)

    @pytest.mark.parametrize("paragraphs, text", [
        ([[0, 16], [17, 33]], TEXT),
        ([[0, 16], [17, 33], [34, 34]], TEXT + "\n"),
        ([[0, 0]], ""),
        ([[0, 1], [2, 2], [3, 4]], "a\n\nb"),
        ([[0, 0], [1, 2]], "\nb"),
    ])
    def test_partition_read(self, tmp_path, paragraphs, text):
        (doc,) = self.read(tmp_path, paragraphs, text)
        assert doc.paragraphs == tuple(map(tuple, paragraphs))

    @pytest.mark.parametrize("paragraphs, reason", [
        ([], "paragraph 0 is missing: the text has 2 lines"),
        ([[-5, 3]], "paragraph 0 is [-5, 3], not [0, 16], the span of line 0"),
        ([[0, 500]], "paragraph 0 is [0, 500], not [0, 16], the span of line 0"),
        ([[12, 0]], "paragraph 0 is [12, 0], not [0, 16], the span of line 0"),
        ([[0, 16]], "paragraph 1 is missing: the text has 2 lines"),
        ([[0, 16], [18, 33]], "paragraph 1 is [18, 33], not [17, 33], the span of line 1"),
        ([[0, -1], [0, 33]], "paragraph 0 is [0, -1], not [0, 16], the span of line 0"),
        ([[0, 16], [17, 10]], "paragraph 1 is [17, 10], not [17, 33], the span of line 1"),
        ([[0, 15], [16, 33]], "paragraph 0 is [0, 15], not [0, 16], the span of line 0"),
        ([[0, 40], [41, 42]], "paragraph 0 is [0, 40], not [0, 16], the span of line 0"),
        ([[0, 16], [17, 33], [34, 34]], "paragraph 2 is [34, 34], past the text's 2 lines"),
        ([[0, 33]], "paragraph 0 is [0, 33], not [0, 16], the span of line 0"),
        ([[0, 16], [17]], "paragraph 1 is [17], not [17, 33], the span of line 1"),
        ([["0", 16], [17, 33]], 'paragraph 0 is ["0", 16], not [0, 16], the span of line 0'),
        ({"0": [0, 16]}, "paragraphs must be a list, not dict"),
    ])
    def test_spans_that_are_no_partition_rejected(self, tmp_path, paragraphs, reason):
        with pytest.raises(DataError, match=re.escape(f"corpus.jsonl:1: {reason}")):
            self.read(tmp_path, paragraphs)

    def test_paragraphs_are_the_lines_of_random_text(self):
        rng = random.Random(2029)
        texts = ["", "\n", "\n\n", "a\n", "\na", "a\n\nb"]
        texts += [_random_text(rng, rng.randint(0, 40)) for _ in range(300)]
        for text in texts:
            doc = CaseDocument("d", "", "", text)
            newlines = [i for i, c in enumerate(text) if c == "\n"]
            starts = [0] + [i + 1 for i in newlines]
            assert doc.paragraphs == tuple(zip(starts, newlines + [len(text)]))
            lines = text.split("\n")
            assert [doc.paragraph_text(i) for i in range(len(lines))] == lines

    def test_write_read_round_trip_keeps_documents_and_bytes(self, tmp_path):
        # Fresh documents have not cached their paragraphs, so a writer
        # that dumped vars(doc) would leave them out.
        docs = [
            CaseDocument("a", "A v. B", "1 U.S. 1", "First.\nSecond, with “quotes”."),
            CaseDocument("b", "", "", "One line."),
        ]
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus_jsonl(docs, first)
        assert read_corpus_jsonl(first) == docs
        write_corpus_jsonl(read_corpus_jsonl(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text().split("\n")[0]) == {
            "doc_id": "a", "title": "A v. B", "reporter_cite": "1 U.S. 1",
            "text": "First.\nSecond, with “quotes”.", "paragraphs": [[0, 6], [7, 29]],
        }


def _word_spans(text):
    """The (start, end) span of each word of ``text``, from ``word_bounds``."""
    return list(zip(*word_bounds(text)))


class TestTokenizeWords:
    """Cutting text into words: the spans ``word_bounds`` gives."""

    def test_double_space(self):
        assert len(_word_spans("a b  c")) == 3

    def test_citation_tokens_split_on_whitespace_only(self):
        assert len(_word_spans("Fed.R.Civ.P. 56(c)")) == 2

    def test_empty(self):
        assert word_bounds("") == ([], [])

    def test_spans_are_nonempty_and_whitespace_free(self):
        text = "  leading, and\ttabs\nnewlines .end  "
        for start, end in _word_spans(text):
            token = text[start:end]
            assert token
            assert not any(c.isspace() for c in token)

    def test_spans_are_word_span_tuples(self):
        assert _word_spans(" ab\u3000c ") == [(1, 3), (4, 5)]


class TestShingles:
    """``shingles`` gives every run of n consecutive words, in text order."""

    def test_empty_input(self):
        assert list(shingles([], 1)) == []
        assert list(shingles([], 3)) == []

    def test_n_longer_than_the_words(self):
        assert list(shingles(["a", "b"], 3)) == []

    def test_n_equal_to_the_words(self):
        assert list(shingles(["a", "b", "c"], 3)) == [("a", "b", "c")]

    def test_unigrams(self):
        assert list(shingles(["a", "b", "a"], 1)) == [("a",), ("b",), ("a",)]

    def test_text_order_with_repeats(self):
        words = ["to", "be", "or", "not", "to", "be"]
        assert list(shingles(words, 2)) == [("to", "be"), ("be", "or"), ("or", "not"), ("not", "to"), ("to", "be")]

    def test_random_words_against_slices(self):
        rng = random.Random(2509)
        for _ in range(300):
            words = [rng.choice("abc") for _ in range(rng.randint(0, 9))]
            n = rng.randint(1, 5)
            want = [tuple(words[i : i + n]) for i in range(len(words) - n + 1)]
            assert list(shingles(words, n)) == want


# Whitespace that a split on " " alone would miss: NBSP, the line and
# paragraph separators, the information separators U+001C-U+001F, the
# ideographic space, NEL, tabs and newlines.
_ODD_SPACES = ["\xa0", "\u2028", "\u2029", "\x1c", "\x1d", "\x1e", "\x1f", "\u3000", "\x85", "\t", "\n", "\x0b"]
_WORD_CHARS = ["a", "B", "7", ".", "“", "é", "\u200b", "\ufeff"]


def _random_text(rng, n):
    pool = _ODD_SPACES + _WORD_CHARS * 2 + [" ", "   "]
    return "".join(rng.choice(pool) for _ in range(n))


def _span_words(text):
    """The oracle for every word count and rejoin: the ``\\S+`` runs of
    ``text``, cut out by their spans."""
    return [text[m.start() : m.end()] for m in re.finditer(r"\S+", text)]


class TestWordContract:
    """A word is a maximal ``\\S+`` run, and ``str.split()`` yields exactly
    those runs; every word count and rejoin agrees with the span oracle."""

    def test_regex_whitespace_is_str_isspace_on_every_code_point(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]

    def test_tokenize_words_and_word_count_match_the_oracle(self):
        rng = random.Random(2028)
        for _ in range(300):
            text = _random_text(rng, rng.randint(0, 60))
            want = _span_words(text)
            assert [text[a:b] for a, b in _word_spans(text)] == want
            assert CaseDocument("d", "", "", text).word_count() == len(want)

    def test_chunk_document_rejoins_the_oracle_words(self):
        rng = random.Random(3000)
        for _ in range(300):
            text = _random_text(rng, rng.randint(1, 120))
            words = _span_words(text)
            doc = CaseDocument("d", "", "", text)
            passages = chunk_document(doc, window=7, stride=3)
            assert [(p.word_start, p.word_end) for p in passages] == oracle_chunks(len(words), 7, 3)
            for p in passages:
                assert p.text == " ".join(words[p.word_start : p.word_end])

    def test_truncate_words_rejoins_the_oracle_words(self):
        rng = random.Random(3001)
        for _ in range(300):
            text = _random_text(rng, rng.randint(0, 60))
            words = _span_words(text)
            budget = rng.randint(-1, len(words) + 1)
            if len(words) <= budget:
                want = text
            else:
                want = " ".join(words[: max(0, budget)])
            assert _truncate_words(text, budget) == want

    def test_density_word_counts_match_the_oracle(self):
        rng = random.Random(3002)
        docs = []
        want = [0] * 10
        for d in range(20):
            paragraphs = [_random_text(rng, rng.randint(1, 40)).replace("\n", " ") for _ in range(rng.randint(1, 15))]
            for i, para in enumerate(paragraphs):
                want[(10 * i) // len(paragraphs)] += len(_span_words(para))
            docs.append(CaseDocument(f"d{d}", "", "", "\n".join(paragraphs)))
        profile = citation_density_profile(docs, load_reporter_table())
        assert list(profile.decile_words) == want


class TestFoldWords:
    """``fold_words`` folds through ASCII; the regex it replaced stays the
    oracle."""

    @staticmethod
    def oracle(text):
        return re.findall(r"[0-9a-z]+", text.lower())

    def test_examples(self):
        assert fold_words("“Don’t” — A1b\u212aC, İs") == ["don", "t", "a1bkc", "i", "s"]
        assert fold_words("") == []

    def test_matches_the_regex_on_random_unicode(self):
        rng = random.Random(4242)
        pool = list("aZq09 _-.?\x00\x7f") + [
            "“", "”", "‘", "’", "–", "—", "\u212a", "\u212b", "İ", "ß", "ẞ", "Σ", "ǅ", "ﬁ", "é", "²",
            "\ud800", "\udfff", "\xa0", "\u3000", "\u2028",
        ]
        for _ in range(2000):
            text = "".join(
                rng.choice(pool) if rng.random() < 0.8 else chr(rng.randrange(sys.maxunicode + 1))
                for _ in range(rng.randint(0, 40))
            )
            assert fold_words(text) == self.oracle(text), ascii(text)


def doc_of_n_words(n, doc_id="w"):
    words = " ".join(f"w{i}" for i in range(n))
    return make_doc(doc_id, [words], cite="")


def oracle_chunks(total, window, stride):
    """Spec rule restated independently: emit while i*stride < total, drop a
    final chunk that adds no new words."""
    chunks = []
    i = 0
    while i * stride < total:
        start, end = i * stride, min(i * stride + window, total)
        if chunks and end <= chunks[-1][1]:
            break
        chunks.append((start, end))
        i += 1
    return chunks


class TestChunkDocument:
    def test_exact_window_doc_yields_one_chunk(self):
        passages = chunk_document(doc_of_n_words(350))
        assert [(p.word_start, p.word_end) for p in passages] == [(0, 350)]

    def test_400_word_doc(self):
        # Enumerate i*175 < 400 with the containment rule by hand:
        # [0,350), [175,400), then [350,400) adds no new words.
        assert oracle_chunks(400, 350, 175) == [(0, 350), (175, 400)]
        passages = chunk_document(doc_of_n_words(400))
        assert [(p.word_start, p.word_end) for p in passages] == [(0, 350), (175, 400)]

    def test_matches_closed_form_count(self):
        for total in range(1, 2001):
            got = len(oracle_chunks(total, 350, 175))
            want = max(1, math.ceil((total - 350) / 175) + 1) if total > 350 else 1
            assert got == want, total

    def test_coverage_overlap_and_size(self):
        rng = random.Random(1234)
        for _ in range(200):
            total = rng.randint(1, 2000)
            doc = doc_of_n_words(total)
            passages = chunk_document(doc)
            # Lossless coverage: new words of successive chunks rebuild the doc.
            rebuilt = []
            prev_end = 0
            for p in passages:
                rebuilt.extend(p.text.split()[prev_end - p.word_start :])
                prev_end = p.word_end
            assert rebuilt == doc.text.split()
            for p in passages:
                assert p.word_end - p.word_start <= 350
            for a, b in zip(passages, passages[1:]):
                assert b.word_start - a.word_start == 175
            for p in passages[:-1]:
                assert p.word_end - p.word_start == 350

    def test_passage_ids_carry_chunk_index(self):
        passages = chunk_document(doc_of_n_words(800, doc_id="docx"))
        assert [p.passage_id for p in passages] == [f"docx#{i}" for i in range(len(passages))]

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            chunk_document(doc_of_n_words(10), window=5, stride=10)


class TestPassageWindows:
    """``build-queries --passage-qrels`` takes passage ids from
    ``passage_windows`` and ``chunk_document`` its chunks: one rule."""

    def test_windows_are_the_chunks(self):
        rng = random.Random(2310)
        for _ in range(300):
            total = rng.randint(0, 60)
            stride = rng.randint(1, 9)
            window = rng.randint(stride, 20)
            doc = doc_of_n_words(total, doc_id="d7") if total else CaseDocument("d7", "", "", "")
            got = passage_windows("d7", total, window, stride)
            assert [(a, b) for _, a, b in got] == oracle_chunks(total, window, stride)
            chunks = chunk_document(doc, window, stride)
            assert got == [(p.passage_id, p.word_start, p.word_end) for p in chunks]

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            passage_windows("d", 10, window=5, stride=10)


class TestWordBounds:
    """``word_bounds`` gives the spans of the ``\\S+`` runs as two int
    lists; the ``re.finditer`` oracle of ``citation_oracles`` judges it."""

    @pytest.mark.parametrize(
        "text", ["", " ", "a", " a", "a ", "a b", "a  b", "a\nb", "\xa0a", "a\u3000\u3000b", "ab cd\nef g"]
    )
    def test_examples(self, text):
        assert word_bounds(text) == citation_oracles.word_bounds(text)

    def test_random_text_with_odd_whitespace(self):
        rng = random.Random(2311)
        for _ in range(2000):
            text = _random_text(rng, rng.randint(0, 60))
            assert word_bounds(text) == citation_oracles.word_bounds(text), ascii(text)

    def test_random_single_spaced_text(self):
        # One whitespace character between words and none around them, as
        # in every normalized document.
        rng = random.Random(2312)
        for _ in range(2000):
            n = rng.randint(1, 12)
            words = ["".join(rng.choice(_WORD_CHARS) for _ in range(rng.randint(1, 4))) for _ in range(n)]
            text = words[0] + "".join(rng.choice(_ODD_SPACES + [" "] * 8) + w for w in words[1:])
            assert word_bounds(text) == citation_oracles.word_bounds(text), ascii(text)

    def test_mini_corpus(self, mini_corpus):
        for doc in mini_corpus:
            assert word_bounds(doc.text) == citation_oracles.word_bounds(doc.text)


class TestWriteJsonl:
    def test_rows_are_json_dumps_lines(self, tmp_path):
        rows = [{"a": "é“x”\u2028", "b": [1, 2.5, None, True], "c": {"d": "\n"}}, {}, {"k": float("inf")}]
        path = tmp_path / "rows.jsonl"
        assert write_jsonl(iter(rows), path) == 3
        want = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
        assert path.read_bytes() == want.encode("utf-8")
