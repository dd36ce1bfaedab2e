import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from descnet.corpus import OOV_ID, Document, LabelSpace, build_vocabulary, encode, preprocess_text
from descnet.descriptors import (
    ClassDescriptorSet,
    _chi2_from_table,
    build_contingency,
    build_descriptor_channel_input,
    extract_descriptors,
    load_descriptors,
    save_descriptors,
    score_tokens,
)
from descnet.errors import DataError
from descnet.verify import anova_groups, anova_oracle, chi2_oracle, presence_table, random_corpus


def make_docs(texts_and_labels, label_space):
    return [Document(preprocess_text(text), frozenset(labels)) for text, labels in texts_and_labels]


@pytest.fixture
def cat_dog():
    labels = LabelSpace(("A", "B"), "multi_class")
    docs = make_docs(
        [("cat cat", [0]), ("cat", [0]), ("dog", [1]), ("dog dog", [1])], labels
    )
    vocab = build_vocabulary(docs, max_size=10)
    return docs, vocab, labels


def table_of(stats, token, class_idx):
    """The (a, b, c, d) presence table of one token and class, read from the bulk arrays."""
    j = stats.tokens.index(token)
    return tuple(int(cell[class_idx, j]) for cell in stats.presence_tables())


class TestContingency:
    def test_hand_count(self, cat_dog):
        docs, vocab, labels = cat_dog
        stats = build_contingency(docs, vocab, labels)
        assert table_of(stats, "cat", 0) == (2, 0, 0, 2)
        assert table_of(stats, "cat", 1) == (0, 2, 2, 0)
        assert stats.doc_frequency == {"cat": 2, "dog": 2}
        assert {tok: found.tolist() for tok, found in stats.postings.items()} == {"cat": [0, 1], "dog": [2, 3]}

    def test_saturated_token(self):
        labels = LabelSpace(("A", "B"), "multi_class")
        docs = make_docs([("the cat", [0]), ("the dog", [1]), ("the fox", [1])], labels)
        vocab = build_vocabulary(docs, max_size=10)
        stats = build_contingency(docs, vocab, labels)
        assert table_of(stats, "the", 0) == (1, 2, 0, 0)

    def test_multi_label_one_vs_rest(self):
        labels = LabelSpace(("toxic", "insult", "threat"), "multi_label")
        docs = make_docs(
            [("bad words", [0, 1]), ("stop now", [2]), ("worse words", [0])], labels
        )
        vocab = build_vocabulary(docs, max_size=10)
        stats = build_contingency(docs, vocab, labels)
        # "bad" occurs only in doc 0, which is in-class for both toxic and insult
        assert table_of(stats, "bad", 0) == (1, 0, 1, 1)
        assert table_of(stats, "bad", 1) == (1, 0, 0, 2)
        assert table_of(stats, "words", 2) == (0, 2, 1, 0)

    def test_zero_document_class_named(self):
        labels = LabelSpace(("A", "B", "Empty"), "multi_class")
        docs = make_docs([("x", [0]), ("y", [1])], labels)
        vocab = build_vocabulary(docs, max_size=10)
        with pytest.raises(DataError, match="Empty"):
            build_contingency(docs, vocab, labels)

    def test_anova_groups_partition_corpus(self, cat_dog):
        docs, vocab, labels = cat_dog
        in_counts, out_counts = anova_groups(docs, "cat", 0)
        assert sorted(in_counts) == [1, 2]
        assert sorted(out_counts) == [0, 0]
        assert in_counts.size + out_counts.size == len(docs)
        stats = build_contingency(docs, vocab, labels)
        j = stats.tokens.index("cat")
        n_in, s_in, q_in, n_out, s_out, q_out = stats.count_moments()
        assert (n_in[0, 0], s_in[0, j], q_in[0, j]) == (2, 3.0, 5.0)
        assert (n_out[0, 0], s_out[0, j], q_out[0, j]) == (2, 0.0, 0.0)


class TestChi2:
    def test_worked_example(self, cat_dog):
        docs, vocab, labels = cat_dog
        stats = build_contingency(docs, vocab, labels)
        assert score_tokens(stats, "chi2")[0, stats.tokens.index("cat")] == pytest.approx(4.0, abs=1e-12)

    def test_independence_is_zero(self):
        assert _chi2_from_table(1, 1, 1, 1) == 0.0

    def test_three_one_one_three(self):
        # N*(ad-bc)^2 / product of marginals = 8*64/256
        assert _chi2_from_table(3, 1, 1, 3) == pytest.approx(2.0, abs=1e-12)

    def test_zero_marginal_returns_zero(self):
        assert _chi2_from_table(2, 2, 0, 0) == 0.0
        assert _chi2_from_table(0, 0, 2, 2) == 0.0

    @given(st.tuples(*[st.integers(min_value=0, max_value=20)] * 4))
    def test_non_negative_and_zero_iff_ad_equals_bc(self, table):
        a, b, c, d = table
        score = _chi2_from_table(a, b, c, d)
        assert score >= 0.0
        marginals = (a + b) * (c + d) * (a + c) * (b + d)
        if marginals > 0:
            assert (score == 0.0) == (a * d == b * c)

    @given(st.tuples(*[st.integers(min_value=0, max_value=20)] * 4))
    def test_symmetric_under_class_complement_swap(self, table):
        a, b, c, d = table
        assert _chi2_from_table(a, b, c, d) == _chi2_from_table(b, a, d, c)

    def test_marginal_product_past_int64_matches_oracle(self):
        # At n = 200,000 the product of the four marginals reaches ~1e20, past
        # int64's 9.2e18, so it cannot be formed as one int64 product.
        tables = np.array([
            (50_000, 50_000, 50_000, 50_000),
            (100_000, 50_000, 20_000, 30_000),
            (120_000, 10_000, 30_000, 40_000),
            (60_000, 40_000, 40_000, 60_000),
        ])
        got = _chi2_from_table(*tables.T)
        for table, score in zip(tables.tolist(), got.tolist()):
            assert score == pytest.approx(chi2_oracle(*table), rel=1e-9, abs=1e-15)
            assert _chi2_from_table(*table) == score


class TestAnovaF:
    def test_worked_example(self, anova_of_counts):
        assert anova_of_counts([2, 1], [0, 0]) == pytest.approx(9.0, abs=1e-12)

    def test_equal_values_zero(self, anova_of_counts):
        assert anova_of_counts([1, 1], [1, 1]) == 0.0

    def test_zero_within_variance_sentinel(self, anova_of_counts):
        assert anova_of_counts([2, 2], [0, 0]) == math.inf

    def test_insufficient_observations(self, anova_of_counts):
        with pytest.raises(DataError, match="insufficient degrees of freedom"):
            anova_of_counts([1], [2])

    def test_empty_group_rejected(self, anova_of_counts):
        with pytest.raises(DataError, match="class 'in' has no documents"):
            anova_of_counts([], [1, 2, 3])

    @settings(max_examples=100)
    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8),
        st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=8),
    )
    def test_permutation_invariance(self, anova_of_counts, group_a, group_b):
        assume(any(group_a) or any(group_b))  # a token in no document is not a column
        rng = np.random.default_rng(0)
        baseline = anova_of_counts(group_a, group_b)
        shuffled = anova_of_counts(rng.permutation(group_a), rng.permutation(group_b))
        assert baseline == shuffled


class TestBruteForceEquivalence:
    def test_random_corpora_match_oracles(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            docs, vocab, labels = random_corpus(rng)
            stats = build_contingency(docs, vocab, labels)
            chi2 = score_tokens(stats, "chi2")
            anova = score_tokens(stats, "anova") if len(docs) >= 3 else None
            for j, token in enumerate(stats.tokens):
                for class_idx in range(len(labels)):
                    table = presence_table(docs, token, class_idx)
                    assert table_of(stats, token, class_idx) == table
                    assert chi2[class_idx, j] == pytest.approx(chi2_oracle(*table), rel=1e-9, abs=1e-15)
                    if anova is None:
                        continue
                    expected_f = anova_oracle(*anova_groups(docs, token, class_idx))
                    if math.isinf(expected_f):
                        assert math.isinf(anova[class_idx, j])
                    else:
                        assert anova[class_idx, j] == pytest.approx(expected_f, rel=1e-9, abs=1e-15)


class TestExtractDescriptors:
    def marker_setup(self):
        labels = LabelSpace(("A", "B", "C"), "multi_class")
        rows = []
        noise = [f"noise{i}" for i in range(6)]
        rng = np.random.default_rng(5)
        for i in range(12):
            j = i % 3
            marker = ["alpha", "beta", "gamma"][j]
            words = [marker] + [noise[k] for k in rng.integers(0, 6, size=4)]
            rows.append((" ".join(words), [j]))
        docs = make_docs(rows, labels)
        vocab = build_vocabulary(docs, max_size=50)
        return docs, vocab, labels

    def test_marker_ranks_first_under_both_tests(self):
        docs, vocab, labels = self.marker_setup()
        for test in ("chi2", "anova"):
            dset = extract_descriptors(docs, vocab, labels, test, n=1)
            assert [e[0][0] for e in dset.entries] == ["alpha", "beta", "gamma"]

    def test_marker_is_brute_force_argmax(self):
        docs, vocab, labels = self.marker_setup()
        stats = build_contingency(docs, vocab, labels)
        for class_idx, marker in enumerate(["alpha", "beta", "gamma"]):
            chi2_by_token = {
                tok: chi2_oracle(*presence_table(docs, tok, class_idx)) for tok in stats.tokens
            }
            assert max(chi2_by_token, key=chi2_by_token.get) == marker
            f_by_token = {
                tok: anova_oracle(*anova_groups(docs, tok, class_idx)) for tok in stats.tokens
            }
            best = max(f_by_token.values())
            assert f_by_token[marker] == best
            assert sum(1 for v in f_by_token.values() if v == best) == 1

    def test_n_larger_than_vocabulary_keeps_all_candidates(self):
        docs, vocab, labels = self.marker_setup()
        dset = extract_descriptors(docs, vocab, labels, "chi2", n=10_000)
        stats = build_contingency(docs, vocab, labels)
        n_candidates = sum(1 for df in stats.doc_frequency.values() if df >= 2)
        for class_entries in dset.entries:
            assert len(class_entries) == n_candidates

    def test_scores_non_increasing_and_df_positive(self):
        docs, vocab, labels = self.marker_setup()
        doc_frequency = build_contingency(docs, vocab, labels).doc_frequency
        for test in ("chi2", "anova"):
            dset = extract_descriptors(docs, vocab, labels, test, n=5)
            for class_entries in dset.entries:
                scores = [s for _, s in class_entries]
                assert scores == sorted(scores, reverse=True)
                for tok, _ in class_entries:
                    assert doc_frequency[tok] >= 1

    def test_min_doc_frequency_excludes_hapax(self):
        labels = LabelSpace(("A", "B"), "multi_class")
        docs = make_docs(
            [("rare common", [0]), ("common word", [0]), ("word common", [1]), ("word other other2", [1])],
            labels,
        )
        vocab = build_vocabulary(docs, max_size=50)
        dset = extract_descriptors(docs, vocab, labels, "chi2", n=50)
        assert "rare" not in dset.union_vocabulary
        dset_all = extract_descriptors(docs, vocab, labels, "chi2", n=50, min_doc_frequency=1)
        assert "rare" in dset_all.union_vocabulary

    def test_tie_break_doc_frequency_then_lexicographic(self):
        labels = LabelSpace(("A", "B"), "multi_class")
        # "zz" and "aa" are class-neutral with equal tables -> equal chi2 of 0;
        # "mm" also ties on score but has higher doc frequency.
        docs = make_docs(
            [
                ("zz aa mm x", [0]),
                ("zz aa mm y", [1]),
                ("mm x", [0]),
                ("mm y", [1]),
            ],
            labels,
        )
        vocab = build_vocabulary(docs, max_size=50)
        dset = extract_descriptors(docs, vocab, labels, "chi2", n=5)
        tokens_a = [tok for tok, _ in dset.entries[0]]
        # x and y tie at the top score (lexicographic), then the zero-scored
        # tail ranks by doc frequency (mm: 4) before lexicographic (aa, zz)
        assert tokens_a == ["x", "y", "mm", "aa", "zz"]

    def test_anova_degrees_of_freedom_checked_only_for_scored_pairs(self):
        labels = LabelSpace(("A", "B"), "multi_class")
        docs = make_docs([("cat dog", [0]), ("cat fox", [1])], labels)
        vocab = build_vocabulary(docs, max_size=10)
        with pytest.raises(DataError, match="2 total observations"):
            extract_descriptors(docs, vocab, labels, "anova", n=1, min_doc_frequency=1)
        assert extract_descriptors(docs, vocab, labels, "anova", n=1, min_doc_frequency=3).entries == [[], []]

    def test_union_vocabulary_is_union_of_lists(self):
        docs, vocab, labels = self.marker_setup()
        dset = extract_descriptors(docs, vocab, labels, "anova", n=3)
        assert dset.union_vocabulary == frozenset(t for e in dset.entries for t, _ in e)


class TestDescriptorChannelInput:
    def make_set(self, union, vocab):
        entries = [[(tok, 1.0) for tok in sorted(union)]]
        return ClassDescriptorSet("chi2", len(union), ("A",), entries)

    def test_filter_then_encode(self):
        labels = LabelSpace(("A",), "multi_class")
        docs = make_docs([("the iraq game of iraq", [0])], labels)
        vocab = build_vocabulary(docs, max_size=20)
        dset = self.make_set({"iraq", "game"}, vocab)
        ids = build_descriptor_channel_input(["the", "iraq", "game", "of"], dset, vocab, 6)
        assert ids.tolist() == [vocab.token_to_id["iraq"], vocab.token_to_id["game"], 0, 0, 0, 0]

    def test_no_surviving_tokens_all_padding(self):
        labels = LabelSpace(("A",), "multi_class")
        docs = make_docs([("alpha beta", [0])], labels)
        vocab = build_vocabulary(docs, max_size=20)
        dset = self.make_set({"other"}, vocab)
        assert build_descriptor_channel_input(["alpha", "beta"], dset, vocab, 4).tolist() == [0, 0, 0, 0]

    def test_identity_filter_matches_text_encoding(self):
        labels = LabelSpace(("A",), "multi_class")
        docs = make_docs([("a b c a", [0])], labels)
        vocab = build_vocabulary(docs, max_size=20)
        tokens = ["a", "b", "c", "a"]
        dset = self.make_set(set(tokens), vocab)
        got = build_descriptor_channel_input(tokens, dset, vocab, 5)
        assert got.tolist() == encode(tokens, vocab, 5).tolist()

    @settings(max_examples=60)
    @given(st.lists(st.sampled_from("abcdef"), max_size=15), st.sets(st.sampled_from("abcdef")))
    def test_output_is_subsequence_of_text_channel(self, tokens, union):
        labels = LabelSpace(("A",), "multi_class")
        docs = make_docs([("a b c d e f", [0])], labels)
        vocab = build_vocabulary(docs, max_size=20)
        dset = self.make_set(union, vocab) if union else ClassDescriptorSet("chi2", 1, ("A",), [[]])
        out = build_descriptor_channel_input(tokens, dset, vocab, 20)
        text_ids = [vocab.token_to_id.get(t, OOV_ID) for t in tokens]
        filtered = [i for i in out.tolist() if i != 0]
        it = iter(text_ids)
        assert all(any(x == want for x in it) for want in filtered)


class TestSerialization:
    def random_set(self, seed=0):
        rng = np.random.default_rng(seed)
        names = ("World", "Sports")
        entries = []
        for j in range(2):
            rows = [(f"tok{j}{i}", float(rng.gamma(2.0))) for i in range(5)]
            rows.sort(key=lambda r: -r[1])
            entries.append(rows)
        entries[0][0] = (entries[0][0][0], math.inf)  # exercise the sentinel
        return ClassDescriptorSet("anova", 5, names, entries)

    def test_round_trip_structure(self, tmp_path):
        dset = self.random_set()
        path = tmp_path / "desc.tsv"
        save_descriptors(dset, path)
        loaded = load_descriptors(path)
        assert loaded.test == dset.test
        assert loaded.dimension == dset.dimension
        assert loaded.class_names == dset.class_names
        assert loaded.union_vocabulary == dset.union_vocabulary

    def test_scores_round_trip_bit_exact(self, tmp_path):
        dset = self.random_set(seed=42)
        path = tmp_path / "desc.tsv"
        save_descriptors(dset, path)
        loaded = load_descriptors(path)
        for original, reloaded in zip(dset.entries, loaded.entries):
            for (tok_a, score_a), (tok_b, score_b) in zip(original, reloaded):
                assert tok_a == tok_b
                assert score_a == score_b  # 17 significant digits round-trip

    def test_unknown_test_name_rejected(self, tmp_path):
        path = tmp_path / "desc.tsv"
        path.write_text("#test=ttest n=5\nA\tx\t1.0\n")
        with pytest.raises(DataError, match="line 1"):
            load_descriptors(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "desc.tsv"
        path.write_text("#test=chi2 n=5\nA\tx\t1.0\nbroken\n")
        with pytest.raises(DataError, match="line 3"):
            load_descriptors(path)
