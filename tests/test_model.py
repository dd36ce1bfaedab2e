import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descnet import nn, verify
from descnet.corpus import LabelSpace, build_vocabulary
from descnet.descriptors import extract_descriptors
from descnet.errors import ArtifactError, DataError
from descnet.numerics import Tape, backward
from descnet.model import (
    DualChannelModel,
    ModelConfig,
    encode_examples,
    load_checkpoint,
    predict,
    predict_probabilities,
    save_checkpoint,
    train,
)
from descnet.synth import marker_corpus, news_like_corpus, to_documents
from descnet.verify import padded_forward, training_gradients


def tiny_config(mode="multi_class", **overrides):
    base = dict(
        mode=mode,
        d_embed=8,
        gru_units=4,
        dropout_rate=0.0,
        descriptor_test="chi2",
        descriptor_dimension=2,
        text_length=10,
        vocabulary_max=500,
        learning_rate=5e-3,
        batch_size=16,
        max_epochs=3,
        patience=3,
        seed=123,
    )
    base.update(overrides)
    return ModelConfig(**base)


def rewrite_header(path, edit):
    """Apply ``edit(header)`` to the JSON header of the checkpoint at ``path``, in place."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    edit(header)
    new_header = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(new_header)) + new_header + raw[16 + header_len :])


def tiny_setup(mode="multi_class", n_docs=60, n_classes=3, seed=0, **overrides):
    rows, label_names = marker_corpus(n_docs, n_classes=n_classes, n_noise=20, seed=seed)
    labels = LabelSpace(tuple(label_names), mode)
    docs = to_documents(rows, labels) if mode == "multi_class" else _to_multilabel(rows, labels)
    config = tiny_config(mode=mode, **overrides)
    vocab = build_vocabulary(docs, config.vocabulary_max)
    descriptors = extract_descriptors(docs, vocab, labels, config.descriptor_test, config.descriptor_dimension)
    examples = encode_examples(docs, vocab, descriptors, labels, config)
    model = DualChannelModel(config, len(vocab), len(labels))
    return model, examples, vocab, descriptors, labels, docs


def _to_multilabel(rows, labels):
    return to_documents(rows, labels)


class TestForward:
    def test_multi_class_rows_sum_to_one(self):
        model, examples, *_ = tiny_setup()
        probs = predict_probabilities(model, examples)
        assert probs.shape == (len(examples), 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs >= 0)

    def test_multi_label_entries_in_open_interval(self):
        model, examples, *_ = tiny_setup(mode="multi_label")
        probs = predict_probabilities(model, examples)
        assert np.all((probs > 0) & (probs < 1))

    def test_all_padding_descriptor_channel_well_defined(self):
        model, examples, *_ = tiny_setup()
        text, _ = examples[0].text_ids, examples[0].descriptor_ids
        probs = model.forward(text[None, :], np.zeros((1, model.config.resolved_descriptor_length), dtype=np.int64))
        assert np.all(np.isfinite(probs.data))
        assert probs.data.sum() == pytest.approx(1.0, abs=1e-6)

    def test_forward_deterministic_without_dropout(self):
        model, examples, *_ = tiny_setup()
        a = predict_probabilities(model, examples[:8])
        b = predict_probabilities(model, examples[:8])
        np.testing.assert_array_equal(a, b)

    def test_multi_label_head_rows_act_independently(self):
        model, examples, *_ = tiny_setup(mode="multi_label")
        text = np.stack([ex.text_ids for ex in examples[:4]])
        desc = np.stack([ex.descriptor_ids for ex in examples[:4]])
        base = model.forward(text, desc).data.copy()
        model.head.weights.data[:, 1] += 0.5
        perturbed = model.forward(text, desc).data
        np.testing.assert_array_equal(perturbed[:, 0], base[:, 0])
        np.testing.assert_array_equal(perturbed[:, 2], base[:, 2])
        assert np.all(perturbed[:, 1] != base[:, 1])

    def test_dense_feature_width_contract(self):
        model, *_ = tiny_setup()
        assert model.head.weights.shape[0] == 6 * model.config.gru_units


def trim_model(dropout: float = 0.0) -> DualChannelModel:
    config = tiny_config(text_length=24, dropout_rate=dropout)
    return DualChannelModel(config, vocab_size=50, n_classes=3)


def padded_batch(text_lengths=(14, 3, 0, 9, 11, 5), desc_lengths=(10, 0, 2, 6, 0, 1), seed=0):
    """Suffix-padded id arrays of ``trim_model``'s width 24; both channels trim (to 14 and 10 steps with the defaults)."""
    rng = np.random.default_rng(seed)
    text_ids = np.zeros((len(text_lengths), 24), dtype=np.int64)
    desc_ids = np.zeros((len(desc_lengths), 24), dtype=np.int64)
    for row, (n_text, n_desc) in enumerate(zip(text_lengths, desc_lengths)):
        text_ids[row, :n_text] = rng.integers(1, 50, size=n_text)
        desc_ids[row, :n_desc] = rng.integers(1, 50, size=n_desc)
    return text_ids, desc_ids


def bigru_outputs(monkeypatch, forward, model, text_ids, desc_ids) -> list[np.ndarray]:
    """The text and descriptor BiGRU outputs of one eval-mode ``forward`` call."""
    outputs = []
    original = nn.bigru_forward

    def recording(*args, **kwargs):
        hidden = original(*args, **kwargs)
        outputs.append(hidden.data)
        return hidden

    monkeypatch.setattr(nn, "bigru_forward", recording)
    forward(model, text_ids, desc_ids)
    monkeypatch.setattr(nn, "bigru_forward", original)
    return outputs


class TestTrimmedForward:
    """``forward`` cuts each channel to the batch's longest sequence; the untrimmed oracle is ``verify.padded_forward``."""

    def test_eval_probabilities_match_padded_oracle(self):
        model = trim_model()
        text_ids, desc_ids = padded_batch()
        trimmed = model.forward(text_ids, desc_ids).data
        padded = padded_forward(model, text_ids, desc_ids).data
        # only the attention softmax's sum order differs (numpy sums 8 lanes from 8 steps up)
        np.testing.assert_allclose(trimmed, padded, rtol=0, atol=1e-7)

    def test_bigru_outputs_bit_identical_to_padded_prefix(self, monkeypatch):
        model = trim_model()
        text_ids, desc_ids = padded_batch()
        trimmed = bigru_outputs(monkeypatch, DualChannelModel.forward, model, text_ids, desc_ids)
        padded = bigru_outputs(monkeypatch, padded_forward, model, text_ids, desc_ids)
        assert [h.shape[1] for h in trimmed] == [14, 10]
        for short, full in zip(trimmed, padded):
            steps = short.shape[1]
            np.testing.assert_array_equal(short, full[:, :steps])
            np.testing.assert_array_equal(full[:, steps:], 0.0)

    def test_training_step_matches_padded_oracle(self):
        model = trim_model(dropout=0.3)
        text_ids, desc_ids = padded_batch()
        targets = np.eye(3, dtype=np.float32)[[0, 1, 2, 0, 1, 2]]
        loss_t, grads_t = training_gradients(
            DualChannelModel.forward, model, text_ids, desc_ids, targets, np.random.default_rng(4)
        )
        loss_p, grads_p = training_gradients(padded_forward, model, text_ids, desc_ids, targets, np.random.default_rng(4))
        assert abs(loss_t - loss_p) <= 1e-6 * abs(loss_p)
        # Relative to the step's largest gradient entry: attention.bias's gradient is a
        # cancelling sum ~1e5 times smaller, so its own-scale gap shows only f32 rounding.
        scale = max(np.abs(g).max() for g in grads_p.values())
        for name, expected in grads_p.items():
            assert np.abs(grads_t[name] - expected).max() <= 1e-6 * scale, name

    def test_random_stream_same_as_padded_oracle(self):
        model = trim_model(dropout=0.3)
        text_ids, desc_ids = padded_batch()
        trimmed_rng, padded_rng = np.random.default_rng(9), np.random.default_rng(9)
        model.forward(text_ids, desc_ids, training=True, rng=trimmed_rng)
        padded_forward(model, text_ids, desc_ids, training=True, rng=padded_rng)
        assert trimmed_rng.bit_generator.state == padded_rng.bit_generator.state
        assert trimmed_rng.random() == padded_rng.random()

    def test_all_empty_descriptor_rows_trim_to_one_step(self, monkeypatch):
        model = trim_model()
        text_ids, desc_ids = padded_batch(desc_lengths=(0,) * 6)
        hidden_text, hidden_desc = bigru_outputs(monkeypatch, DualChannelModel.forward, model, text_ids, desc_ids)
        assert hidden_desc.shape[1] == 1
        probs = model.forward(text_ids, desc_ids).data
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 16), st.integers(0, 16), st.integers(0, 2**32 - 1))
    def test_extra_pad_columns_change_nothing(self, extra_text, extra_desc, seed):
        model = trim_model()
        text_ids, desc_ids = padded_batch(seed=seed)
        base = model.forward(text_ids, desc_ids).data
        wider = model.forward(np.pad(text_ids, ((0, 0), (0, extra_text))), np.pad(desc_ids, ((0, 0), (0, extra_desc))))
        np.testing.assert_array_equal(wider.data, base)


class TestTrain:
    def test_patience_zero_runs_exactly_one_epoch(self):
        model, examples, *_ = tiny_setup(patience=0, max_epochs=5)
        history = train(model, examples[:40], examples[40:])
        assert len(history) == 1

    def test_identical_seeds_identical_history(self):
        h1 = train(*self._fresh())
        h2 = train(*self._fresh())
        assert [(s.epoch, s.train_loss, s.val_metric) for s in h1] == [
            (s.epoch, s.train_loss, s.val_metric) for s in h2
        ]

    def _fresh(self):
        model, examples, *_ = tiny_setup(max_epochs=2, dropout_rate=0.3)
        return model, examples[:40], examples[40:]

    def test_loss_decreases_within_first_epoch_on_separable_task(self):
        model, examples, *_ = tiny_setup(n_docs=120, max_epochs=1, learning_rate=1e-2)
        history = train(model, examples[:100], examples[100:])
        assert history[0].batch_losses[-1] < history[0].batch_losses[0]

    def test_reaches_high_accuracy_on_marker_corpus(self):
        model, examples, *_ = tiny_setup(n_docs=120, max_epochs=8, learning_rate=1e-2)
        train(model, examples[:100], examples[100:])
        probs = predict_probabilities(model, examples[:100])
        gold = np.stack([ex.target for ex in examples[:100]]).argmax(axis=1)
        accuracy = (probs.argmax(axis=1) == gold).mean()
        assert accuracy >= 0.95

    def test_best_validation_parameters_kept(self):
        model, examples, *_ = tiny_setup(n_docs=90, max_epochs=4)
        history = train(model, examples[:70], examples[70:])
        best = max(s.val_metric for s in history)
        restored = predict_probabilities(model, examples[70:])
        gold = np.stack([ex.target for ex in examples[70:]]).argmax(axis=1)
        assert (restored.argmax(axis=1) == gold).mean() == pytest.approx(best)


class TestPredict:
    def test_multi_class_argmax(self):
        model, examples, vocab, descriptors, labels, docs = tiny_setup(n_docs=120, max_epochs=8, learning_rate=1e-2)
        train(model, examples[:100], examples[100:])
        picked, probs = predict(model, vocab, descriptors, docs[0].text)
        assert picked == [int(probs.argmax())]
        assert len(picked) == 1

    def test_multi_label_threshold_rules(self):
        model, examples, vocab, descriptors, labels, docs = tiny_setup(mode="multi_label")
        picked, probs = predict(model, vocab, descriptors, docs[0].text, threshold=0.0)
        assert picked == list(range(len(labels)))  # everything above 0
        picked_high, _ = predict(model, vocab, descriptors, docs[0].text, threshold=0.999999)
        assert picked_high == []

    def test_multi_label_requires_threshold(self):
        model, examples, vocab, descriptors, labels, docs = tiny_setup(mode="multi_label")
        with pytest.raises(DataError, match="threshold"):
            predict(model, vocab, descriptors, docs[0].text)

    def test_empty_text_is_valid_input(self):
        model, examples, vocab, descriptors, labels, docs = tiny_setup()
        picked, probs = predict(model, vocab, descriptors, "")
        assert len(picked) == 1
        assert np.all(np.isfinite(probs))


def joined_short_docs(n_docs: int, seed: int) -> tuple[list[tuple[str, str]], list[str]]:
    """Multi-label rows that join 1-2 short news-like docs and their labels, over 6 classes."""
    rows, names = news_like_corpus(2 * n_docs, n_classes=6, min_len=5, max_len=20, seed=seed)
    rng = np.random.default_rng([seed, 3])
    joined, pos = [], 0
    while len(joined) < n_docs:
        parts = rows[pos : pos + int(rng.integers(1, 3))]
        pos += len(parts)
        joined.append((" ".join(t for t, _ in parts), "|".join(sorted({c for _, c in parts}))))
    return joined, names


class TestServingConsistency:
    """Single-document ``predict`` against 128-doc batched scoring, on short joined multi-label documents.

    A one-row forward runs matrix-vector BLAS kernels where a batch runs
    matrix-matrix ones, so the two can differ in the last bits but must stay
    within 1e-6; and both must be byte-identical to the op-by-op GRU oracle.
    """

    @pytest.fixture(scope="class")
    def served(self):
        n_train, n_score = 256, 512
        rows, names = joined_short_docs(n_train + n_score, seed=1)
        labels = LabelSpace(tuple(names), "multi_label")
        docs = to_documents(rows, labels)
        cfg = ModelConfig(mode="multi_label", d_embed=64, gru_units=64, learning_rate=0.05, max_epochs=1, patience=0, seed=1)
        vocab = build_vocabulary(docs[:n_train], cfg.vocabulary_max)
        desc = extract_descriptors(docs[:n_train], vocab, labels, "chi2", cfg.descriptor_dimension)
        train_ex = encode_examples(docs[:n_train], vocab, desc, labels, cfg)
        model = DualChannelModel(cfg, len(vocab), len(labels))
        train(model, train_ex, train_ex[:64])
        score_ex = encode_examples(docs[n_train:], vocab, desc, labels, cfg)
        texts = [text for text, _ in rows[n_train:]]

        def scores():
            batched = predict_probabilities(model, score_ex, batch_size=128)
            single = np.stack([predict(model, vocab, desc, text, 0.5)[1] for text in texts])
            return batched, single

        return scores, scores()

    def test_single_predictions_match_batched_rows(self, served):
        batched, single = served[1]
        assert batched.shape == single.shape == (512, 6)
        assert float(np.abs(single - batched).max()) <= 1e-6

    def test_scores_byte_identical_to_op_by_op_oracle(self, served, monkeypatch):
        scores, fused = served
        monkeypatch.setattr(nn, "bigru_forward", verify.bigru_oracle)
        oracle = scores()
        for produced, expected in zip(fused, oracle):
            assert produced.tobytes() == expected.tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact_forward(self, tmp_path):
        model, examples, *_ = tiny_setup()
        train(model, examples[:40], examples[40:])
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, ["a", "b", "c"], "vhash", "dhash", epoch=3, val_metric=0.9)
        loaded, meta = load_checkpoint(path)
        assert meta.label_names == ["a", "b", "c"]
        assert meta.vocab_sha256 == "vhash"
        assert meta.epoch == 3
        original = predict_probabilities(model, examples[:10])
        reloaded = predict_probabilities(loaded, examples[:10])
        np.testing.assert_array_equal(original, reloaded)

    def test_truncated_file_rejected_without_partial_model(self, tmp_path):
        model, *_ = tiny_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, ["a", "b", "c"])
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ArtifactError, match="truncated"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ArtifactError, match="not a descnet checkpoint"):
            load_checkpoint(path)

    def test_vocabulary_size_mismatch_names_shape(self, tmp_path):
        model, *_ = tiny_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, ["a", "b", "c"])
        # the model now expects a bigger embedding table
        rewrite_header(path, lambda header: header.update(vocab_size=header["vocab_size"] + 7))
        with pytest.raises(ArtifactError, match="embedding.table"):
            load_checkpoint(path)

    def test_header_with_removed_config_keys_loads(self, tmp_path):
        model, examples, *_ = tiny_setup()
        train(model, examples[:40], examples[40:])
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, ["a", "b", "c"])
        # as older versions wrote it
        rewrite_header(path, lambda header: header["config"].update(optimizer="adam", share_embedding=True, recurrent_dropout_rate=0.0))
        loaded, _ = load_checkpoint(path)
        original = predict_probabilities(model, examples[:10])
        np.testing.assert_array_equal(original, predict_probabilities(loaded, examples[:10]))

    @pytest.mark.parametrize("key, value, kind", [
        ("text_length", 8.0, "an integer"),
        ("text_length", True, "an integer"),
        ("text_length", "8", "an integer"),
        ("gru_units", None, "an integer"),
        ("dropout_rate", True, "a number"),
        ("dropout_rate", "0.5", "a number"),
        ("mode", 1, "a string"),
        ("descriptor_test", ["chi2"], "a string"),
    ])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, key, value, kind):
        path = tmp_path / "model.ckpt"
        save_checkpoint(DualChannelModel(tiny_config(), 50, 3), path, ["a", "b", "c"])
        rewrite_header(path, lambda header: header["config"].update({key: value}))
        with pytest.raises(ArtifactError, match=re.escape(f"bad checkpoint header ({key} must be {kind}, got {value!r})")):
            load_checkpoint(path)

    def test_config_takes_numpy_integers_and_integer_floats(self):
        config = tiny_config(text_length=np.int64(7), learning_rate=1, dropout_rate=np.float32(0.25))
        assert config.text_length == 7 and config.learning_rate == 1

    @pytest.mark.parametrize("key, value, message", [
        ("label_names", [1, 2, 3], "label_names must be a list of distinct strings, got [1, 2, 3]"),
        ("label_names", "abc", "label_names must be a list of distinct strings, got 'abc'"),
        ("label_names", ["a", "a", "b"], "label_names must be a list of distinct strings, got ['a', 'a', 'b']"),
        ("vocab_sha256", 0, "vocab_sha256 and descriptor_sha256 must be strings"),
        ("descriptor_sha256", None, "vocab_sha256 and descriptor_sha256 must be strings"),
    ])
    def test_header_names_and_hashes_of_wrong_type_rejected(self, tmp_path, key, value, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(DualChannelModel(tiny_config(), 50, 3), path, ["a", "b", "c"])
        rewrite_header(path, lambda header: header.update({key: value}))
        with pytest.raises(ArtifactError, match=re.escape(f"bad checkpoint header ({message})")):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model, *_ = tiny_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, ["a", "b", "c"])
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ArtifactError, match="trailing"):
            load_checkpoint(path)


class TestEmbeddingSharing:
    def test_shared_table_is_one_object(self):
        model, *_ = tiny_setup()
        names = [p.name for p in model.parameters()]
        assert names.count("embedding.table") == 1
        assert [name for name in names if "embedding" in name] == ["embedding.table"]
        # a token that only the descriptor channel reads gets its gradient in that one table
        text = np.zeros((1, model.config.text_length), dtype=np.int64)
        desc = np.zeros((1, model.config.resolved_descriptor_length), dtype=np.int64)
        desc[0, 0] = 5
        model.zero_grad()
        with Tape() as tape:
            loss = model.loss(model.forward(text, desc), np.eye(3, dtype=np.float32)[:1])
        backward(loss, tape)
        touched = np.flatnonzero(np.any(model.embedding.table.grad != 0.0, axis=1))
        assert touched.tolist() == [5]


class TestEncodeExamples:
    def test_targets_and_channels(self):
        model, examples, vocab, descriptors, labels, docs = tiny_setup()
        for doc, ex in zip(docs, examples):
            assert ex.text_ids.shape == (model.config.text_length,)
            assert ex.target.sum() == 1.0
            assert ex.target.argmax() in doc.labels
            non_pad = ex.descriptor_ids[ex.descriptor_ids != 0]
            for token_id in non_pad:
                assert vocab.id_to_token[token_id] in descriptors.union_vocabulary
