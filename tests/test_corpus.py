import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descnet.corpus import (
    OOV_ID,
    PAD_ID,
    Document,
    LabelSpace,
    Vocabulary,
    build_vocabulary,
    encode,
    load_dataset,
    load_vocabulary,
    make_document,
    preprocess_text,
    save_vocabulary,
    split,
)
from descnet.descriptors import build_contingency
from descnet.errors import DataError


def docs_from_texts(texts, label=0, n_labels=1):
    return [Document(preprocess_text(t), frozenset([label])) for t in texts]


class TestPreprocess:
    def test_repeated_characters_squeeze(self):
        assert preprocess_text("yoooouuuuu") == ["you"]

    def test_empty_input(self):
        assert preprocess_text("") == []

    def test_pipeline_order_and_double_letters(self):
        assert preprocess_text("Good DOG!! good") == ["good", "dog", "good"]

    def test_non_alphanumeric_becomes_space(self):
        assert preprocess_text("re-inforce_ment") == ["re", "inforce", "ment"]

    def test_unicode_letters_kept(self):
        assert preprocess_text("Café RÉSUMÉ") == ["café", "résumé"]

    @given(st.text(max_size=60))
    def test_idempotent(self, text):
        tokens = preprocess_text(text)
        assert preprocess_text(" ".join(tokens)) == tokens

    @given(st.text(max_size=60))
    def test_tokens_are_lowercase_alphanumeric(self, text):
        for tok in preprocess_text(text):
            assert tok
            assert all(c.isalnum() for c in tok)
            assert tok == tok.lower()


class TestVocabulary:
    def test_frequency_ranked_ids(self):
        docs = docs_from_texts(["a a a b b c"])
        vocab = build_vocabulary(docs, max_size=4)
        assert vocab.token_to_id == {"<pad>": 0, "<oov>": 1, "a": 2, "b": 3}

    def test_no_truncation_when_capacity_suffices(self):
        docs = docs_from_texts(["a b c"])
        vocab = build_vocabulary(docs, max_size=10)
        assert set(vocab.token_to_id) == {"<pad>", "<oov>", "a", "b", "c"}

    def test_lexicographic_tie_break(self):
        docs = docs_from_texts(["a b", "a b"])
        vocab = build_vocabulary(docs, max_size=3)
        assert "a" in vocab.token_to_id and "b" not in vocab.token_to_id

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match="empty corpus"):
            build_vocabulary([], max_size=5)

    def test_doc_frequency_counts_documents(self):
        """Document frequency is counted once, by the contingency table over the vocabulary's tokens."""
        docs = docs_from_texts(["a a b", "a c"])
        vocab = build_vocabulary(docs, max_size=10)
        doc_frequency = build_contingency(docs, vocab, LabelSpace(("A",), "multi_class")).doc_frequency
        assert doc_frequency["a"] == 2
        assert doc_frequency["b"] == 1

    def test_mutual_inverse_maps(self):
        docs = docs_from_texts(["x y z z"])
        vocab = build_vocabulary(docs, max_size=10)
        for tok, idx in vocab.token_to_id.items():
            assert vocab.id_to_token[idx] == tok

    @settings(max_examples=50)
    @given(
        st.lists(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=10), min_size=1, max_size=8),
        st.integers(min_value=3, max_value=12),
    )
    def test_retains_min_of_distinct_and_capacity(self, token_lists, max_size):
        docs = [Document(list(toks), frozenset([0])) for toks in token_lists]
        vocab = build_vocabulary(docs, max_size)
        distinct = len({t for toks in token_lists for t in toks})
        assert len(vocab) - 2 == min(distinct, max_size - 2)

    def test_save_load_round_trip(self, tmp_path):
        docs = docs_from_texts(["alpha beta beta gamma"])
        vocab = build_vocabulary(docs, max_size=10)
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.token_to_id == vocab.token_to_id
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded == vocab
        assert path.read_text().splitlines() == [f"{tok}\t{idx}" for idx, tok in enumerate(vocab.id_to_token)]

    def test_loads_the_three_column_form_of_earlier_versions(self, tmp_path):
        """Earlier versions wrote ``token<TAB>id<TAB>doc_frequency``; the third field is not read."""
        docs = docs_from_texts(["alpha beta beta gamma"])
        vocab = build_vocabulary(docs, max_size=10)
        path = tmp_path / "vocab.tsv"
        path.write_text("".join(f"{tok}\t{idx}\t{idx % 3}\n" for idx, tok in enumerate(vocab.id_to_token)))
        assert load_vocabulary(path) == vocab

    def test_load_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("<pad>\t0\t0\n<oov>\t1\t0\nbroken line\n")
        with pytest.raises(DataError, match="line 3"):
            load_vocabulary(path)

    def test_load_rejects_repeated_token(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("<pad>\t0\t0\n<oov>\t1\t0\nrock\t2\t5\nyou\t3\t4\nrock\t4\t1\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: line 5: token 'rock' repeats id 2")):
            load_vocabulary(path)


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return build_vocabulary(docs_from_texts(["you you rock"]), max_size=4)

    def test_map_truncate_pad(self, vocab):
        ids = encode(["you", "rock"], vocab, max_len=4)
        assert ids.tolist() == [vocab.token_to_id["you"], vocab.token_to_id["rock"], 0, 0]

    def test_all_padding_for_empty(self, vocab):
        assert encode([], vocab, max_len=3).tolist() == [0, 0, 0]

    def test_oov_id(self, vocab):
        assert encode(["zzz"], vocab, max_len=1).tolist() == [OOV_ID]

    def test_truncation_keeps_prefix(self, vocab):
        ids = encode(["you"] * 5, vocab, max_len=2)
        assert ids.tolist() == [vocab.token_to_id["you"]] * 2

    @settings(max_examples=50)
    @given(
        tokens=st.lists(st.sampled_from(["you", "rock", "unknown1", "unknown2"]), max_size=12),
        max_len=st.integers(min_value=1, max_value=10),
    )
    def test_length_exact_and_round_trip(self, tokens, max_len):
        vocab = build_vocabulary(docs_from_texts(["you you rock"]), max_size=4)
        ids = encode(tokens, vocab, max_len)
        assert len(ids) == max_len
        # padding only as a contiguous suffix
        nonzero = np.nonzero(ids)[0]
        assert nonzero.size == min(len(tokens), max_len)
        if nonzero.size:
            assert nonzero.max() == nonzero.size - 1
        for tok, idx in zip(tokens[:max_len], ids):
            if tok in vocab:
                assert vocab.id_to_token[idx] == tok
            else:
                assert idx == OOV_ID


class TestLoadDataset:
    def test_csv_multi_class(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('text,label\n"Hello, world!",World\nMatch tonight,Sports\n')
        space = LabelSpace(("World", "Sports", "Business", "Sci/Tech"), "multi_class")
        docs = load_dataset(path, "csv", space)
        assert len(docs) == 2
        assert docs[0].labels == frozenset([0])
        assert docs[0].tokens == ["hello", "world"]
        assert docs[1].labels == frozenset([1])

    def test_csv_after_a_byte_order_mark_loads_like_the_plain_file(self, tmp_path):
        text = 'text,label\n"Hello, world!",World\nMatch tonight,Sports\n'
        (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
        (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
        space = LabelSpace(("World", "Sports"), "multi_class")
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbftext,label")
        assert load_dataset(tmp_path / "bom.csv", "csv", space) == load_dataset(tmp_path / "plain.csv", "csv", space)

    def test_pipe_separated_multi_label(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,label\nsome comment,toxic|insult\nfine comment,\n")
        space = LabelSpace(("toxic", "insult", "threat"), "multi_label")
        docs = load_dataset(path, "csv", space)
        assert docs[0].labels == frozenset([0, 1])
        assert docs[1].labels == frozenset()

    def test_unknown_label_names_record(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,label\nstorm coming,Weather\n")
        space = LabelSpace(("World", "Sports", "Business", "Sci/Tech"), "multi_class")
        with pytest.raises(DataError, match="Weather"):
            load_dataset(path, "csv", space)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,label\nonly one column\n")
        space = LabelSpace(("a", "b"), "multi_class")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path, "csv", space)

    def test_tsv(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("text\tlabel\ngood game\tSports\n")
        space = LabelSpace(("World", "Sports"), "multi_class")
        docs = load_dataset(path, "tsv", space)
        assert docs[0].labels == frozenset([1])

    def test_jsonl(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "a b", "labels": ["x", "y"]}\n{"text": "c", "labels": []}\n')
        space = LabelSpace(("x", "y"), "multi_label")
        docs = load_dataset(path, "jsonl", space)
        assert docs[0].labels == frozenset([0, 1])
        assert docs[1].labels == frozenset()

    @pytest.mark.parametrize("format, content", [("csv", "text,label\n\n"), ("jsonl", "\n")])
    def test_file_without_records_rejected(self, tmp_path, format, content):
        path = tmp_path / f"data.{format}"
        path.write_text(content)
        with pytest.raises(DataError, match="no records"):
            load_dataset(path, format, LabelSpace(("x",), "multi_label"))

    def test_jsonl_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "ok", "labels": ["x"]}\nnot json\n')
        space = LabelSpace(("x",), "multi_label")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path, "jsonl", space)

    @pytest.mark.parametrize("text", ["null", "42", "true", '["a b"]', '{"a": "b"}'])
    def test_jsonl_non_string_text_rejected(self, tmp_path, text):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "ok", "labels": ["x"]}\n{"text": %s, "labels": ["x"]}\n' % text)
        space = LabelSpace(("x",), "multi_label")
        with pytest.raises(DataError, match="line 2: 'text' must be a string"):
            load_dataset(path, "jsonl", space)

    @pytest.mark.parametrize("labels", ['["x", "y"]', "[]"])
    def test_jsonl_multi_class_record_without_exactly_one_label_reports_line(self, tmp_path, labels):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "ok", "labels": ["x"]}\n{"text": "two", "labels": %s}\n' % labels)
        space = LabelSpace(("x", "y"), "multi_class")
        with pytest.raises(DataError, match=re.escape(f"{path}: line 2: multi_class documents need exactly one label")):
            load_dataset(path, "jsonl", space)

    def test_multi_class_requires_exactly_one_label(self):
        space = LabelSpace(("x", "y"), "multi_class")
        with pytest.raises(DataError, match="exactly one"):
            make_document("text", ["x", "y"], space)


class TestSplit:
    """The holdout split ``descnet train`` makes when no validation file is given."""

    def make_corpus(self, n):
        return docs_from_texts([f"doc {i}" for i in range(n)])

    def test_floor_sizes_remainder_to_train(self):
        assert [len(p) for p in split(self.make_corpus(10), 0.15, seed=7)] == [9, 1]
        assert [len(p) for p in split(self.make_corpus(10), 0.25, seed=7)] == [8, 2]
        # at least one validation document, however small the fraction
        assert [len(p) for p in split(self.make_corpus(10), 0.01, seed=7)] == [9, 1]

    def test_same_seed_identical(self):
        corpus = self.make_corpus(20)
        a = split(corpus, 0.2, seed=3)
        b = split(corpus, 0.2, seed=3)
        assert [[d.tokens for d in part] for part in a] == [[d.tokens for d in part] for part in b]

    def test_different_seeds_differ_sizes_identical(self):
        corpus = self.make_corpus(100)
        a = split(corpus, 0.1, seed=1)
        b = split(corpus, 0.1, seed=2)
        assert [d.tokens for d in a[0]] != [d.tokens for d in b[0]]
        assert [len(p) for p in a] == [len(p) for p in b]

    def test_partition_is_disjoint_and_complete(self):
        corpus = self.make_corpus(17)
        train, val = split(corpus, 0.25, seed=11)
        ids = [corpus.index(d) for d in train + val]
        assert sorted(ids) == list(range(17))
        assert len(set(ids)) == 17

    def test_too_small_corpus(self):
        with pytest.raises(DataError, match="too small"):
            split(self.make_corpus(1), 0.5, seed=0)
        assert [len(p) for p in split(self.make_corpus(2), 0.9, seed=0)] == [1, 1]

    def test_bad_fractions(self):
        for fraction in (0.0, 1.0, -0.1, 1.5, float("nan"), float("inf")):
            with pytest.raises(DataError, match="val_fraction"):
                split(self.make_corpus(5), fraction, seed=0)


class TestLabelSpace:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            LabelSpace(("a", "a"), "multi_class")

    def test_unknown_mode_rejected(self):
        with pytest.raises(DataError):
            LabelSpace(("a",), "who_knows")

    def test_index_lookup(self):
        space = LabelSpace(("x", "y"), "multi_class")
        assert space.index("y") == 1
        with pytest.raises(DataError, match="unknown label"):
            space.index("z")
