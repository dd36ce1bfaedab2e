import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descnet import model as model_module
from descnet import nn, verify
from descnet.corpus import Document, EncodedExamples, LabelSpace, build_vocabulary, encode
from descnet.descriptors import build_descriptor_channel_input, extract_descriptors
from descnet.errors import ArtifactError, DataError
from descnet.numerics import Tape, backward
from descnet.model import (
    DualChannelModel,
    ModelConfig,
    bucketed_batches,
    encode_examples,
    load_checkpoint,
    predict,
    predict_probabilities,
    save_checkpoint,
    train,
    trim_length,
    valid_lengths,
)
from descnet.synth import joined_news_corpus, marker_corpus, news_like_corpus, to_documents
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
    docs = to_documents(rows, labels)
    config = tiny_config(mode=mode, **overrides)
    vocab = build_vocabulary(docs, config.vocabulary_max)
    descriptors = extract_descriptors(docs, vocab, labels, config.descriptor_test, config.descriptor_dimension)
    examples = encode_examples(docs, vocab, descriptors, labels, config)
    model = DualChannelModel(config, len(vocab), len(labels))
    return model, examples, vocab, descriptors, labels, docs


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
        text, desc = examples[:4].text_ids, examples[:4].descriptor_ids
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
        wide_text, wide_desc = np.pad(text_ids, ((0, 0), (0, extra_text))), np.pad(desc_ids, ((0, 0), (0, extra_desc)))
        np.testing.assert_array_equal(model.forward(wide_text, wide_desc).data, model.forward(text_ids, desc_ids).data)
        # Training too: every dropout mask is drawn at the trimmed width.
        model = trim_model(dropout=0.5)
        targets = np.eye(3, dtype=np.float32)[[0, 1, 2, 0, 1, 2]]
        loss, grads = training_gradients(DualChannelModel.forward, model, text_ids, desc_ids, targets, np.random.default_rng(seed))
        wide_loss, wide_grads = training_gradients(
            DualChannelModel.forward, model, wide_text, wide_desc, targets, np.random.default_rng(seed)
        )
        assert wide_loss == loss
        for name, grad in grads.items():
            assert wide_grads[name].tobytes() == grad.tobytes(), name


def mixed_examples(n: int = 40, seed: int = 0) -> EncodedExamples:
    """``n`` examples at ``trim_model``'s width with text lengths 0-24; the first is an empty document."""
    rng = np.random.default_rng(seed)
    text_ids, desc_ids = padded_batch(rng.integers(0, 25, size=n), rng.integers(0, 25, size=n), seed)
    text_ids[0], desc_ids[0] = 0, 0
    return EncodedExamples(text_ids, desc_ids, np.zeros((n, 3), dtype=np.float32))


class TestBatchedScoring:
    """``predict_probabilities`` scores length-sorted chunks of ``config.batch_size`` and returns rows in input order."""

    def test_reversed_input_gives_reversed_rows(self):
        model, examples = trim_model(), mixed_examples()
        forward = predict_probabilities(model, examples)
        backward = predict_probabilities(model, examples[::-1])
        np.testing.assert_allclose(backward, forward[::-1], rtol=0, atol=1e-6)

    def test_forward_sees_length_sorted_chunks_of_batch_size(self, monkeypatch):
        model, examples = trim_model(), mixed_examples()
        seen = []
        original = DualChannelModel.forward

        def recording(self, text_ids, desc_ids, *args, **kwargs):
            seen.append((text_ids != 0).sum(axis=1))
            return original(self, text_ids, desc_ids, *args, **kwargs)

        monkeypatch.setattr(DualChannelModel, "forward", recording)
        predict_probabilities(model, examples)
        assert [len(lengths) for lengths in seen] == [16, 16, 8]  # batch_size 16
        assert np.all(np.diff(np.concatenate(seen)) >= 0)

    def test_empty_document_and_one_example_list_score(self):
        model, examples = trim_model(), mixed_examples()
        probs = predict_probabilities(model, examples)
        assert probs.shape == (40, 3) and probs.dtype == np.float32
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        single = predict_probabilities(model, examples[:1])
        expected = model.forward(examples[0].text_ids[None], examples[0].descriptor_ids[None]).data
        assert single.tobytes() == expected.tobytes()
        np.testing.assert_allclose(single[0], probs[0], rtol=0, atol=1e-6)


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
        gold = examples[:100].target.argmax(axis=1)
        accuracy = (probs.argmax(axis=1) == gold).mean()
        assert accuracy >= 0.95

    def test_one_epoch_takes_one_snapshot(self, monkeypatch):
        """Epoch 1 always improves on no epoch, so its snapshot is the only one; none is taken before it."""
        calls = []
        snapshot = DualChannelModel.snapshot
        monkeypatch.setattr(DualChannelModel, "snapshot", lambda self: calls.append(1) or snapshot(self))
        model, examples, *_ = tiny_setup(patience=0, max_epochs=5)
        train(model, examples[:40], examples[40:])
        assert len(calls) == 1

    def test_best_validation_parameters_kept(self):
        model, examples, *_ = tiny_setup(n_docs=90, max_epochs=4)
        history = train(model, examples[:70], examples[70:])
        best = max(s.val_metric for s in history)
        restored = predict_probabilities(model, examples[70:])
        gold = examples[70:].target.argmax(axis=1)
        assert (restored.argmax(axis=1) == gold).mean() == pytest.approx(best)


class TestBucketedBatches:
    """``train`` draws each epoch's batches with ``bucketed_batches``: length-sorted chunks visited in random order."""

    LENGTHS = np.random.default_rng(3).integers(0, 12, size=75)  # 75 rows in batches of 16: four full and one of 11

    def epochs(self, seed: int, n: int = 2) -> list[list[np.ndarray]]:
        rng = np.random.default_rng(seed)
        return [bucketed_batches(self.LENGTHS, 16, rng) for _ in range(n)]

    def test_every_example_visited_once_per_epoch(self):
        for batches in self.epochs(0, n=3):
            assert sorted(np.concatenate(batches).tolist()) == list(range(75))
            assert sorted(len(batch) for batch in batches) == [11, 16, 16, 16, 16]

    def test_each_batch_is_a_contiguous_run_of_the_length_order(self):
        for batches in self.epochs(0, n=3):
            runs = sorted((self.LENGTHS[batch] for batch in batches), key=lambda run: (run.min(), run.max()))
            assert np.all(np.diff(np.concatenate(runs)) >= 0)

    def test_batches_and_their_order_change_between_epochs(self):
        first, second = self.epochs(0)
        assert {frozenset(b.tolist()) for b in first} != {frozenset(b.tolist()) for b in second}
        # the k-th chunk of the length order has the same lengths every epoch, so its mean names it
        visits = [[float(self.LENGTHS[batch].mean()) for batch in batches] for batches in (first, second)]
        assert sorted(visits[0]) == sorted(visits[1]) and visits[0] != visits[1]

    def test_same_seed_same_batches(self):
        for a, b in zip(self.epochs(7), self.epochs(7)):
            assert [batch.tolist() for batch in a] == [batch.tolist() for batch in b]

    def test_train_steps_over_the_batches_it_draws(self, monkeypatch):
        model, examples, *_ = tiny_setup(max_epochs=2, patience=2)
        text = examples[:40].text_ids
        drawn, stepped = [], []
        original_batches, original_forward = model_module.bucketed_batches, DualChannelModel.forward

        def drawing(*args):
            batches = original_batches(*args)
            drawn.extend(batches)
            return batches

        def recording(self, text_ids, desc_ids, training=False, rng=None):
            if training:
                stepped.append(text_ids)
            return original_forward(self, text_ids, desc_ids, training, rng)

        monkeypatch.setattr(model_module, "bucketed_batches", drawing)
        monkeypatch.setattr(DualChannelModel, "forward", recording)
        train(model, examples[:40], examples[40:])
        assert len(stepped) == len(drawn) == 2 * 3  # two epochs of 16, 16 and 8 rows
        for idx, ids in zip(drawn, stepped):
            np.testing.assert_array_equal(ids, text[idx])

    def test_text_valid_fraction_at_the_train_news_shape(self):
        """The benchmark's train-news batches step the text BiGRU over little padding (random batches: about 0.69)."""
        rows, names = news_like_corpus(3516, topical_fraction=0.05, seed=1)
        docs = to_documents(rows[:2016], LabelSpace(tuple(names), "multi_class"))
        vocab = build_vocabulary(docs, ModelConfig.vocabulary_max)
        lengths = valid_lengths(np.stack([encode(doc.tokens, vocab, 40) for doc in docs]))

        def valid_fraction(batches):
            return sum(lengths[b].sum() for b in batches) / sum(len(b) * trim_length(lengths[b]) for b in batches)

        rng = np.random.default_rng(1)
        order = rng.permutation(len(lengths))
        assert valid_fraction([order[start : start + 32] for start in range(0, len(order), 32)]) < 0.75
        assert valid_fraction(bucketed_batches(lengths, 32, rng)) >= 0.9


class TestPredict:
    def test_multi_class_argmax(self):
        model, examples, vocab, descriptors, labels, docs = tiny_setup(n_docs=120, max_epochs=8, learning_rate=1e-2)
        train(model, examples[:100], examples[100:])
        picked, probs = predict(model, vocab, descriptors, " ".join(docs[0].tokens))
        assert picked == [int(probs.argmax())]
        assert len(picked) == 1

    def test_multi_label_threshold_rules(self):
        model, examples, vocab, descriptors, labels, docs = tiny_setup(mode="multi_label")
        picked, probs = predict(model, vocab, descriptors, " ".join(docs[0].tokens), threshold=0.0)
        assert picked == list(range(len(labels)))  # everything above 0
        picked_high, _ = predict(model, vocab, descriptors, " ".join(docs[0].tokens), threshold=0.999999)
        assert picked_high == []

    def test_multi_label_requires_threshold(self):
        model, examples, vocab, descriptors, labels, docs = tiny_setup(mode="multi_label")
        with pytest.raises(DataError, match="threshold"):
            predict(model, vocab, descriptors, " ".join(docs[0].tokens))

    def test_empty_text_is_valid_input(self):
        model, examples, vocab, descriptors, labels, docs = tiny_setup()
        picked, probs = predict(model, vocab, descriptors, "")
        assert len(picked) == 1
        assert np.all(np.isfinite(probs))


class TestServingConsistency:
    """Single-document ``predict`` against one batched ``predict_probabilities`` call, on short joined multi-label documents.

    The batched call scores length-sorted chunks of ``config.batch_size`` (32)
    rows. A one-row forward runs matrix-vector BLAS kernels where a chunk runs
    matrix-matrix ones, so the two can differ in the last bits but must stay
    within 1e-6; and both must be byte-identical to the op-by-op GRU oracle.
    """

    @pytest.fixture(scope="class")
    def served(self):
        n_train, n_score = 256, 512
        rows, names = joined_news_corpus(n_train + n_score, n_classes=6, seed=1)
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
            batched = predict_probabilities(model, score_ex)
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


class TestTrainingAtProductionShape:
    """The fused GRU against the op-by-op oracle at the benchmark's training shape, where BLAS picks its kernels by size."""

    def test_training_step_byte_identical_to_op_by_op_oracle(self, monkeypatch):
        cfg = ModelConfig(d_embed=64, gru_units=64, text_length=40, dropout_rate=0.5, seed=5)
        model = DualChannelModel(cfg, vocab_size=300, n_classes=4)
        rng = np.random.default_rng(5)
        text_ids = rng.integers(1, 300, size=(32, 40))
        desc_ids = rng.integers(1, 300, size=(32, 40))
        text_ids[np.arange(40)[None, :] >= rng.integers(1, 41, size=(32, 1))] = 0
        desc_ids[np.arange(40)[None, :] >= rng.integers(0, 25, size=(32, 1))] = 0
        targets = np.eye(4, dtype=np.float32)[rng.integers(0, 4, size=32)]
        fused = training_gradients(DualChannelModel.forward, model, text_ids, desc_ids, targets, np.random.default_rng(6))
        monkeypatch.setattr(nn, "bigru_forward", verify.bigru_oracle)
        oracle = training_gradients(DualChannelModel.forward, model, text_ids, desc_ids, targets, np.random.default_rng(6))
        assert fused[0] == oracle[0]
        assert fused[1].keys() == oracle[1].keys()
        for name, expected in oracle[1].items():
            assert fused[1][name].dtype == np.float32
            assert fused[1][name].tobytes() == expected.tobytes(), name


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
        longest = max(len(doc.tokens) for doc in docs)
        assert examples.text_ids.shape == (len(docs), min(model.config.text_length, longest))
        for doc, ex in zip(docs, examples):
            assert ex.target.sum() == 1.0
            assert ex.target.argmax() in doc.labels
            non_pad = ex.descriptor_ids[ex.descriptor_ids != 0]
            for token_id in non_pad:
                assert vocab.id_to_token[token_id] in descriptors.union_vocabulary

    @pytest.mark.parametrize(
        ("text_length", "descriptor_length", "lengths", "widths"),
        [
            (10, 0, [3, 7, 0], (7, 7)),  # the longest document, under the configured length
            (5, 0, [3, 7, 0], (5, 5)),  # truncated at text_length
            (10, 4, [3, 7], (7, 4)),  # descriptor_length truncates its own channel
            (10, 0, [0, 0], (1, 1)),  # only empty documents: one column
            (10, 0, [], (1, 1)),  # no documents: (0, 1)
        ],
    )
    def test_width_is_the_configured_length_or_the_longest_document(self, text_length, descriptor_length, lengths, widths):
        _, _, vocab, descriptors, labels, docs = tiny_setup()
        words = [tok for doc in docs for tok in doc.tokens]
        subset = [Document(words[k : k + n], frozenset({0})) for k, n in enumerate(lengths)]
        config = tiny_config(text_length=text_length, descriptor_length=descriptor_length)
        examples = encode_examples(subset, vocab, descriptors, labels, config)
        assert examples.text_ids.shape == (len(lengths), widths[0])
        assert examples.descriptor_ids.shape == (len(lengths), widths[1])
        assert examples.target.shape == (len(lengths), len(labels))
        for doc, text, desc in zip(subset, examples.text_ids, examples.descriptor_ids):
            np.testing.assert_array_equal(text, encode(doc.tokens, vocab, text_length)[: widths[0]])
            full = build_descriptor_channel_input(doc.tokens, descriptors, vocab, config.resolved_descriptor_length)
            np.testing.assert_array_equal(desc, full[: widths[1]])

    def test_an_int_a_slice_and_iteration_select_rows(self):
        _, examples, *_ = tiny_setup()
        head = examples[:10]
        assert isinstance(head, EncodedExamples) and len(head) == 10
        for name in ("text_ids", "descriptor_ids", "target"):
            np.testing.assert_array_equal(getattr(head, name), getattr(examples, name)[:10])
            np.testing.assert_array_equal(getattr(examples[3], name), getattr(examples, name)[3])
        assert examples[3].text_ids.shape == (examples.text_ids.shape[1],) and examples[3].target.shape == (3,)
        assert [int(ex.target.argmax()) for ex in examples] == examples.target.argmax(axis=1).tolist()
        assert len(examples[np.array([5, 1])]) == 2

    def test_the_sets_width_scores_and_trains_like_full_text_length(self):
        """Columns past the longest document are padding in every row, so dropping them changes no byte."""
        _, examples, vocab, descriptors, labels, docs = tiny_setup(text_length=40, dropout_rate=0.3, max_epochs=2)
        assert examples.text_ids.shape[1] < 40
        full = EncodedExamples(
            np.stack([encode(doc.tokens, vocab, 40) for doc in docs]),
            np.stack([build_descriptor_channel_input(doc.tokens, descriptors, vocab, 40) for doc in docs]),
            examples.target,
        )
        outputs = []
        for encoded in (examples, full):
            model = DualChannelModel(tiny_config(text_length=40, dropout_rate=0.3, max_epochs=2), len(vocab), len(labels))
            untrained = predict_probabilities(model, encoded)
            history = train(model, encoded[:40], encoded[40:])
            outputs.append((untrained.tobytes(), [s.batch_losses for s in history], predict_probabilities(model, encoded).tobytes()))
        assert outputs[0] == outputs[1]
