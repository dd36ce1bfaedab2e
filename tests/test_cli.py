import json
import shutil
import struct
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from descnet import metrics
from descnet.cli import RunConfig, build_parser, build_run_config, main, parse_config_file
from descnet.corpus import LabelSpace, build_vocabulary, load_dataset, load_vocabulary, split
from descnet.descriptors import extract_descriptors, load_descriptors, save_descriptors
from descnet.errors import DataError
from descnet.model import ModelConfig, file_sha256, load_checkpoint, predict, save_checkpoint
from descnet.synth import marker_corpus, news_like_corpus, write_csv

FAST_FLAGS = [
    "--d-embed", "8", "--gru-units", "4", "--dropout-rate", "0.0", "--text-length", "10",
    "--descriptor-dimension", "1", "--max-epochs", "5", "--learning-rate", "0.01",
    "--batch-size", "16", "--seed", "7",
]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    rows, names = marker_corpus(120, n_classes=3, n_noise=20, seed=1)
    write_csv(rows, root / "train.csv")
    rows_test, _ = marker_corpus(30, n_classes=3, n_noise=20, seed=9)
    write_csv(rows_test, root / "test.csv")
    multilabel = []
    for i, (text, label) in enumerate(rows):
        if i % 4 == 0:
            other = names[(names.index(label) + 1) % 3]
            text = text + " marker" + other[-1]
            label = f"{label}|{other}"
        multilabel.append((text, label))
    write_csv(multilabel, root / "train_ml.csv")
    return root, names


def train_args(root, names, out, extra=()):
    return [
        "train", "--train-path", str(root / "train.csv"), "--labels", ",".join(names),
        "--out-dir", str(out), *FAST_FLAGS, *extra,
    ]


@pytest.fixture(scope="module")
def trained(corpus_dir, tmp_path_factory):
    root, names = corpus_dir
    out = tmp_path_factory.mktemp("run")
    assert main(train_args(root, names, out)) == 0
    return root, names, out


class TestExtractDescriptors:
    def test_marker_corpus_single_descriptor_is_marker(self, corpus_dir, tmp_path, capsys):
        root, names = corpus_dir
        code = main([
            "extract-descriptors", "--train-path", str(root / "train.csv"),
            "--labels", ",".join(names), "--descriptor-dimension", "1",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        for j, name in enumerate(names):
            assert f"{name}: marker{chr(ord('a') + j)}" in out
        assert (tmp_path / "descriptors.tsv").exists()
        assert (tmp_path / "effective_config.cfg").exists()

    def test_writes_the_descriptors_train_fits(self, tmp_path):
        rows, names = news_like_corpus(400, seed=0)
        write_csv(rows, tmp_path / "news.csv")
        flags = ["--train-path", str(tmp_path / "news.csv"), "--labels", ",".join(names), *FAST_FLAGS,
                 "--descriptor-dimension", "20", "--max-epochs", "1", "--text-length", "30", "--drop-overlength", "true"]
        assert main(["extract-descriptors", *flags, "--out-dir", str(tmp_path / "extract")]) == 0
        assert main(["train", *flags, "--out-dir", str(tmp_path / "train")]) == 0
        extracted = (tmp_path / "extract" / "descriptors.tsv").read_bytes()
        assert extracted == (tmp_path / "train" / "descriptors.tsv").read_bytes()

    def test_label_on_every_document_exit_2_under_anova_only(self, tmp_path, capsys):
        """ANOVA names a class with no out-of-class group; chi2 scores that class 0."""
        path = tmp_path / "food.csv"
        path.write_text("text,label\npasta sauce,food|italian\npasta sushi rice,food|japanese\nsushi rice,food|japanese\npasta pizza,food|italian\n")
        flags = ["extract-descriptors", "--train-path", str(path), "--labels", "food,italian,japanese", "--mode", "multi_label"]
        assert main([*flags, "--descriptor-test", "anova", "--out-dir", str(tmp_path / "anova")]) == 2
        assert "error: class 'food' is on every document, so ANOVA has no out-of-class group" in capsys.readouterr().err
        assert main([*flags, "--descriptor-test", "chi2", "--out-dir", str(tmp_path / "chi2")]) == 0
        food = [line.split("\t") for line in (tmp_path / "chi2" / "descriptors.tsv").read_text().splitlines() if line.startswith("food\t")]
        assert food and all(score == "0" for _, _, score in food)

    def test_missing_input_file_exit_2(self, tmp_path, capsys):
        code = main([
            "extract-descriptors", "--train-path", str(tmp_path / "nope.csv"),
            "--labels", "a,b", "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err


class TestTrain:
    def test_artifacts_written(self, trained):
        _, _, out = trained
        for name in ("checkpoint.bin", "history.csv", "vocab.tsv", "descriptors.tsv", "effective_config.cfg"):
            assert (out / name).exists()
        header, *rows = (out / "history.csv").read_text().strip().splitlines()
        assert header == "epoch,train_loss,val_metric"
        assert len(rows) >= 1

    def test_same_seed_byte_identical_outputs(self, corpus_dir, tmp_path):
        root, names = corpus_dir
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(train_args(root, names, out_a)) == 0
        assert main(train_args(root, names, out_b)) == 0
        assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
        assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()

    @pytest.mark.parametrize("holdout", ["val_path", "split"])
    def test_without_descriptor_path_extracts_from_training_split(self, corpus_dir, tmp_path, holdout):
        root, names = corpus_dir
        labels = LabelSpace(tuple(names), "multi_class")
        docs = load_dataset(root / "train.csv", "csv", labels)
        if holdout == "val_path":
            rows, _ = marker_corpus(24, n_classes=3, n_noise=20, seed=5)
            write_csv(rows, tmp_path / "val.csv")
            extra = ["--val-path", str(tmp_path / "val.csv")]
            train_docs, val_docs = docs, load_dataset(tmp_path / "val.csv", "csv", labels)
        else:
            extra = []
            train_docs, val_docs = split(docs, RunConfig.val_fraction, 7)  # 7: the seed in FAST_FLAGS
        out = tmp_path / "out"
        assert main(train_args(root, names, out, extra=[*extra, "--max-epochs", "1"])) == 0

        vocab = build_vocabulary(train_docs, RunConfig.vocabulary_max)
        expected = extract_descriptors(train_docs, vocab, labels, "chi2", 1, RunConfig.min_doc_frequency)
        save_descriptors(expected, tmp_path / "expected.tsv")
        assert (out / "descriptors.tsv").read_bytes() == (tmp_path / "expected.tsv").read_bytes()
        # the check can tell: descriptors that had seen the validation documents score differently
        leaked = extract_descriptors(train_docs + val_docs, vocab, labels, "chi2", 1, RunConfig.min_doc_frequency)
        assert leaked.entries != expected.entries

    @pytest.mark.parametrize("line", ["optimizer = adam", "share_embedding = true", "auto_extract = true", "recurrent_dropout_rate = 0.5"])
    def test_removed_config_keys_exit_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"seed = 7\n{line}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        key = line.split(" = ")[0]
        assert f"{cfg}: line 2: unknown config key {key!r}" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, corpus_dir, tmp_path):
        root, names = corpus_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join([
                f"train_path = {root / 'train.csv'}",
                f"labels = {','.join(names)}",
                "d_embed = 8",
                "gru_units = 4",
                "dropout_rate = 0.0",
                "text_length = 10",
                "descriptor_dimension = 1",
                "max_epochs = 1",
                "learning_rate = 0.01",
                "seed = 7",
            ]) + "\n"
        )
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--max-epochs", "2"]) == 0
        echoed = (out / "effective_config.cfg").read_text()
        assert "max_epochs = 2" in echoed  # flag overrides file
        assert "d_embed = 8" in echoed

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ("d_embed = abc", "config key 'd_embed': cannot parse 'abc' as int"),
            ("drop_overlength = maybe", "config key 'drop_overlength': cannot parse 'maybe' as bool"),
        ],
    )
    def test_unparsable_config_value_exit_2_at_its_line(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"seed = 7\n{line}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"error: {cfg}: line 2: {message}" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "no_such_key" in capsys.readouterr().err

    def test_explicit_validation_file(self, corpus_dir, tmp_path):
        root, names = corpus_dir
        val = tmp_path / "val.csv"
        rows, _ = marker_corpus(24, n_classes=3, n_noise=20, seed=5)
        write_csv(rows, val)
        out = tmp_path / "out"
        code = main(train_args(root, names, out, extra=["--val-path", str(val), "--max-epochs", "2"]))
        assert code == 0
        rows_out = (out / "history.csv").read_text().strip().splitlines()[1:]
        assert all(len(r.split(",")) == 3 for r in rows_out)

    def test_pre_extracted_descriptor_file(self, corpus_dir, tmp_path):
        root, names = corpus_dir
        desc_out = tmp_path / "desc"
        assert main([
            "extract-descriptors", "--train-path", str(root / "train.csv"),
            "--labels", ",".join(names), "--descriptor-dimension", "1",
            "--out-dir", str(desc_out),
        ]) == 0
        out = tmp_path / "out"
        code = main(train_args(root, names, out, extra=[
            "--descriptor-path", str(desc_out / "descriptors.tsv"), "--max-epochs", "1",
        ]))
        assert code == 0
        # the bundle re-saves the descriptor set it actually used
        assert (out / "descriptors.tsv").read_bytes() == (desc_out / "descriptors.tsv").read_bytes()

    def test_descriptor_file_sets_the_recorded_test_and_dimension(self, corpus_dir, tmp_path):
        """The bundle states how its descriptors were chosen: the file's test and n, not the configured chi2 and n=1."""
        root, names = corpus_dir
        desc_out = tmp_path / "desc"
        assert main([
            "extract-descriptors", "--train-path", str(root / "train.csv"), "--labels", ",".join(names),
            "--descriptor-test", "anova", "--descriptor-dimension", "3", "--out-dir", str(desc_out),
        ]) == 0
        assert (desc_out / "descriptors.tsv").read_text().startswith("#test=anova n=3\n")
        out = tmp_path / "out"
        assert main(train_args(root, names, out, extra=[
            "--descriptor-path", str(desc_out / "descriptors.tsv"), "--max-epochs", "1",
        ])) == 0
        echoed = (out / "effective_config.cfg").read_text().splitlines()
        assert "descriptor_test = anova" in echoed and "descriptor_dimension = 3" in echoed
        data = (out / "checkpoint.bin").read_bytes()
        (header_len,) = struct.unpack("<Q", data[8:16])
        config = json.loads(data[16 : 16 + header_len])["config"]
        assert (config["descriptor_test"], config["descriptor_dimension"]) == ("anova", 3)

    def test_descriptor_file_with_n_0_exit_2(self, corpus_dir, tmp_path, capsys):
        root, names = corpus_dir
        path = tmp_path / "descriptors.tsv"
        path.write_text("#test=chi2 n=0\n")
        assert main(train_args(root, names, tmp_path / "out", extra=["--descriptor-path", str(path)])) == 2
        assert f"error: {path}: line 1: n must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("#test=chi2 n=1\nclassa\tmarkera\t9\nclassa\tnoise001\t2\nclassa\tnoise002\t1\n", "line 3: class 'classa' has more than n=1 rows"),
            ("#test=chi2 n=2\nclassa\tmarkera\t9\nclassb\tmarkerb\t9\nclassb\tmarkerb\t9\n", "line 4: token 'markerb' is listed twice for class 'classb'"),
            ("#test=anova n=1\nclassa\tmarkera\tinf\nclassb\tmarkerb\tnan\n", "line 3: bad score 'nan'"),
        ],
        ids=["more-rows-than-n", "repeated-token", "nan-score"],
    )
    def test_descriptor_file_not_matching_its_header_exit_2(self, corpus_dir, tmp_path, capsys, text, message):
        """Each class lists at most n distinct tokens with non-nan scores; inf, ANOVA's zero-variance sentinel, loads."""
        root, names = corpus_dir
        path = tmp_path / "descriptors.tsv"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(train_args(root, names, out, extra=["--descriptor-path", str(path)])) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()

    def test_descriptor_file_of_other_labels_exit_2(self, corpus_dir, tmp_path, capsys):
        """A descriptor file extracted for another dataset's classes is refused, naming the file and its first foreign class."""
        root, names = corpus_dir
        rows, news_names = news_like_corpus(60, seed=3)
        write_csv(rows, tmp_path / "news.csv")
        desc_out = tmp_path / "desc"
        assert main([
            "extract-descriptors", "--train-path", str(tmp_path / "news.csv"), "--labels", ",".join(news_names),
            "--descriptor-dimension", "1", "--out-dir", str(desc_out),
        ]) == 0
        capsys.readouterr()
        path = desc_out / "descriptors.tsv"
        out = tmp_path / "out"
        assert main(train_args(root, names, out, extra=["--descriptor-path", str(path), "--max-epochs", "1"])) == 2
        assert f"error: {path}: descriptors for class 'desk0', which is not among the configured labels" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()
        # a header-only file names no class, so it names no foreign one
        path.write_text("#test=chi2 n=1\n")
        assert main(train_args(root, names, out, extra=["--descriptor-path", str(path), "--max-epochs", "1"])) == 0

    def test_drop_overlength_removes_long_training_docs(self, tmp_path):
        rows = [("short text alpha", "a"), ("longwordone " * 30 + "uniquelongtoken", "b"),
                ("short beta", "a"), ("short gamma", "b")] * 6
        write_csv(rows, tmp_path / "train.csv")
        out = tmp_path / "out"
        code = main([
            "train", "--train-path", str(tmp_path / "train.csv"), "--labels", "a,b",
            "--drop-overlength", "true", "--out-dir", str(out),
            "--val-fraction", "0.01", *FAST_FLAGS, "--max-epochs", "1",
        ])
        assert code == 0
        assert "uniquelongtoken" not in (out / "vocab.tsv").read_text()

    def test_unknown_dataset_format_exit_2(self, corpus_dir, tmp_path, capsys):
        root, names = corpus_dir
        code = main(train_args(root, names, tmp_path / "out", extra=["--format", "xml"]))
        assert code == 2
        assert "xml" in capsys.readouterr().err

    def test_empty_validation_file_exit_2(self, corpus_dir, tmp_path, capsys):
        root, names = corpus_dir
        empty = tmp_path / "empty_val.csv"
        empty.write_text("text,label\n")
        code = main(train_args(root, names, tmp_path / "out", extra=["--val-path", str(empty)]))
        assert code == 2
        assert f"{empty}: no records" in capsys.readouterr().err

    def test_multi_label_writes_threshold(self, corpus_dir, tmp_path):
        root, names = corpus_dir
        out = tmp_path / "ml"
        code = main([
            "train", "--train-path", str(root / "train_ml.csv"), "--labels", ",".join(names),
            "--mode", "multi_label", "--out-dir", str(out), *FAST_FLAGS,
        ])
        assert code == 0
        threshold = float((out / "threshold.txt").read_text().strip())
        assert 0.0 < threshold < 1.0


class TestEvaluate:
    def test_held_out_accuracy_high(self, trained, tmp_path, capsys):
        root, names, out = trained
        code = main([
            "evaluate", "--checkpoint-path", str(out / "checkpoint.bin"),
            "--test-path", str(root / "test.csv"), "--out-dir", str(tmp_path),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        accuracy = float([l for l in stdout.splitlines() if l.startswith("accuracy")][0].split("\t")[1])
        assert accuracy >= 0.99
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.txt").exists()

    def test_hash_mismatch_exit_4(self, trained, tmp_path):
        root, names, out = trained
        tampered = tmp_path / "vocab.tsv"
        original = (out / "vocab.tsv").read_text()
        tampered.write_text(original + "extra\t999\t1\n")
        code = main([
            "evaluate", "--checkpoint-path", str(out / "checkpoint.bin"),
            "--test-path", str(root / "test.csv"), "--vocab-path", str(tampered),
            "--out-dir", str(tmp_path),
        ])
        assert code == 4

    def test_unknown_gold_label_exit_2(self, trained, tmp_path):
        root, names, out = trained
        bad = tmp_path / "bad_test.csv"
        bad.write_text("text,label\nsome text,Mystery\n")
        code = main([
            "evaluate", "--checkpoint-path", str(out / "checkpoint.bin"),
            "--test-path", str(bad), "--out-dir", str(tmp_path),
        ])
        assert code == 2

    def test_empty_test_file_exit_2(self, trained, tmp_path, capsys):
        _, _, out = trained
        empty = tmp_path / "empty_test.csv"
        empty.write_text("text,label\n")
        code = main([
            "evaluate", "--checkpoint-path", str(out / "checkpoint.bin"),
            "--test-path", str(empty), "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert f"{empty}: no records" in capsys.readouterr().err

    def test_multi_label_without_threshold_exit_2(self, corpus_dir, tmp_path, capsys):
        root, names = corpus_dir
        out = tmp_path / "ml"
        assert main([
            "train", "--train-path", str(root / "train_ml.csv"), "--labels", ",".join(names),
            "--mode", "multi_label", "--out-dir", str(out), *FAST_FLAGS,
        ]) == 0
        (out / "threshold.txt").unlink()
        code = main([
            "evaluate", "--checkpoint-path", str(out / "checkpoint.bin"),
            "--test-path", str(root / "train_ml.csv"), "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "--threshold" in capsys.readouterr().err


class TestPredict:
    def test_bundle_without_descriptor_words_predicts(self, tmp_path, capsys):
        # No word is in two documents, so no word is a descriptor candidate and descriptors.tsv is a bare header.
        write_csv([("alpha beta", "a"), ("gamma delta", "b"), ("epsilon zeta", "a"), ("eta theta", "b")], tmp_path / "train.csv")
        out = tmp_path / "out"
        assert main(["train", "--train-path", str(tmp_path / "train.csv"), "--labels", "a,b", "--out-dir", str(out),
                     *FAST_FLAGS, "--val-fraction", "0.25", "--max-epochs", "1"]) == 0
        assert (out / "descriptors.tsv").read_text().count("\n") == 1
        capsys.readouterr()
        assert main(["predict", "--checkpoint-path", str(out / "checkpoint.bin"), "--text", "alpha gamma"]) == 0
        label, _ = capsys.readouterr().out.strip().split("\t")
        assert label in ("a", "b")

    def test_one_label_per_line_multi_class(self, trained, capsys):
        root, names, out = trained
        inputs = root / "inputs.txt"
        inputs.write_text("markera noise001 noise002\nmarkerb noise000\n")
        code = main([
            "predict", "--checkpoint-path", str(out / "checkpoint.bin"),
            "--input-path", str(inputs),
        ])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 2
        for line, expected in zip(lines, ("classa", "classb")):
            label, probs = line.split("\t")
            assert label == expected
            assert len(probs.split()) == 3

    def test_input_file_matches_one_text_call_per_line(self, trained, tmp_path, capsys):
        _, _, out = trained
        lines = ["markera noise001 noise002", "markerb noise000", " ", "markerc markerc", "noise003"]
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("\n".join(lines) + "\n")
        bundle = ["predict", "--checkpoint-path", str(out / "checkpoint.bin")]
        assert main([*bundle, "--input-path", str(inputs)]) == 0
        batched = capsys.readouterr().out.splitlines()
        assert len(batched) == len(lines)
        for text, line in zip(lines, batched):
            assert main([*bundle, "--text", text]) == 0
            single = capsys.readouterr().out.splitlines()
            (label, probs), (single_label, single_probs) = line.split("\t"), single[0].split("\t")
            assert label == single_label
            gap = np.abs(np.array(probs.split(), dtype=float) - np.array(single_probs.split(), dtype=float))
            assert gap.max() <= 1e-6

    def test_empty_input_file_prints_nothing(self, trained, tmp_path, capsys):
        _, _, out = trained
        inputs = tmp_path / "empty.txt"
        inputs.write_text("")
        code = main(["predict", "--checkpoint-path", str(out / "checkpoint.bin"), "--input-path", str(inputs)])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_empty_text_valid(self, trained, capsys):
        _, _, out = trained
        code = main(["predict", "--checkpoint-path", str(out / "checkpoint.bin"), "--text", " "])
        assert code == 0
        label, probs = capsys.readouterr().out.strip().split("\t")
        assert label in ("classa", "classb", "classc")

    def test_given_empty_text_predicted_like_blank_text(self, trained, capsys):
        _, _, out = trained
        bundle = ["predict", "--checkpoint-path", str(out / "checkpoint.bin")]
        assert main([*bundle, "--text", " "]) == 0
        blank = capsys.readouterr().out
        assert main([*bundle, "--text", ""]) == 0
        assert capsys.readouterr().out == blank

    def test_neither_text_nor_input_path_exit_2(self, trained, capsys):
        _, _, out = trained
        assert main(["predict", "--checkpoint-path", str(out / "checkpoint.bin")]) == 2
        assert "nothing to predict" in capsys.readouterr().err

    def test_multi_label_high_threshold_empty_labels_probs_printed(self, corpus_dir, tmp_path, capsys):
        root, names = corpus_dir
        out = tmp_path / "ml"
        assert main([
            "train", "--train-path", str(root / "train_ml.csv"), "--labels", ",".join(names),
            "--mode", "multi_label", "--out-dir", str(out), *FAST_FLAGS,
        ]) == 0
        capsys.readouterr()  # drop the training output
        code = main([
            "predict", "--checkpoint-path", str(out / "checkpoint.bin"),
            "--text", "noise001 noise002", "--threshold", "0.99",
        ])
        assert code == 0
        line = capsys.readouterr().out.strip("\n")
        label_field, prob_field = line.split("\t")
        assert label_field == ""
        assert len(prob_field.split()) == 3


class TestDecisionRule:
    def test_probability_equal_to_threshold_is_accepted_everywhere(self, corpus_dir, tmp_path, monkeypatch):
        root, names = corpus_dir
        out = tmp_path / "ml"
        assert main([
            "train", "--train-path", str(root / "train_ml.csv"), "--labels", ",".join(names),
            "--mode", "multi_label", "--out-dir", str(out), *FAST_FLAGS,
        ]) == 0
        reports = []
        build_report = metrics.build_report

        def capture(mode, label_names, predicted, gold, probabilities, threshold):
            reports.append((predicted, probabilities))
            return build_report(mode, label_names, predicted, gold, probabilities, threshold)

        monkeypatch.setattr(metrics, "build_report", capture)
        evaluate = [
            "evaluate", "--checkpoint-path", str(out / "checkpoint.bin"),
            "--test-path", str(root / "train_ml.csv"), "--out-dir", str(tmp_path / "eval"),
        ]
        assert main(evaluate) == 0
        probs = reports[0][1]
        at = float(probs[0, 0])
        assert main([*evaluate, "--threshold", repr(at)]) == 0
        predicted = reports[1][0]
        assert predicted[0, 0]
        np.testing.assert_array_equal(predicted, metrics.decide(probs, "multi_label", at))

        model, _ = load_checkpoint(out / "checkpoint.bin")
        vocab, descriptors = load_vocabulary(out / "vocab.tsv"), load_descriptors(out / "descriptors.tsv")
        _, row = predict(model, vocab, descriptors, "markera noise001", threshold=0.5)
        picked, _ = predict(model, vocab, descriptors, "markera noise001", threshold=float(row[1]))
        assert 1 in picked
        assert picked == np.flatnonzero(metrics.decide(row[None, :], "multi_label", float(row[1]))[0]).tolist()

        # the smallest grid threshold that accepts 0.31 but not 0.30 is 0.31 itself
        assert metrics.select_threshold(np.array([[0.31], [0.30]]), [{0}, set()]) == 0.31


class TestConfigSchema:
    def test_every_model_field_is_a_config_key_and_flag_with_its_default(self, tmp_path):
        defaults = ModelConfig()
        parser = build_parser()
        assert RunConfig().model_config() == defaults
        for f in fields(ModelConfig):
            default = getattr(defaults, f.name)
            config_file = tmp_path / f"{f.name}.cfg"
            config_file.write_text(f"{f.name} = {default}\n")
            from_file = parse_config_file(config_file)[f.name]
            args = parser.parse_args(["train", "--" + f.name.replace("_", "-"), str(default)])
            from_flag = getattr(build_run_config(args), f.name)
            for value in (getattr(RunConfig(), f.name), from_file, from_flag):
                assert value == default and type(value) is type(default), (f.name, value)


    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("drop_overlength", "no", "drop_overlength must be true or false, got 'no'"),
            ("val_fraction", "0.5", "val_fraction must be a number, got '0.5'"),
            ("text", 3, "text must be a string or None, got 3"),
            ("min_doc_frequency", 2.0, "min_doc_frequency must be an integer, got 2.0"),
        ],
    )
    def test_every_run_config_field_is_type_checked(self, key, value, message):
        with pytest.raises(DataError) as raised:
            RunConfig(**{key: value})
        assert str(raised.value) == message


class TestVerifyCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "10/10 checks passed" in out
        assert "tolerance" in out

    def test_injected_fault_fails(self, capsys):
        assert main(["verify", "--quick", "--inject-fault"]) == 1
        lines = [line for line in capsys.readouterr().out.splitlines() if line[:4] in ("PASS", "FAIL")]
        status = {line[6:].split(": measured=")[0]: line[:4] for line in lines}
        assert status == {
            "chi2 bulk kernel vs direct (O-E)^2/E oracle": "PASS",
            "anova F vs from-definition SSB/SSW oracle": "PASS",
            "worked examples chi2(cat,A)=4 and F(cat,A)=9": "PASS",
            "primitive op gradients vs central differences": "FAIL",
            "layer gradients vs central differences": "FAIL",
            "full dual-channel model gradient (toy sizes)": "FAIL",
            "trimmed forward vs padded-width oracle (f64 toy model)": "FAIL",
            "fused GRU vs op-by-op tape oracle, byte for byte": "FAIL",
            "probability invariants (softmax/sigmoid/attention)": "PASS",
            "roc_auc vs all-pairs concordance oracle": "PASS",
        }


class TestExitCodes:
    def test_non_finite_loss_exit_3(self, corpus_dir, tmp_path, monkeypatch, capsys):
        from descnet import cli
        from descnet.numerics import NonFiniteError

        def explode(*args, **kwargs):
            raise NonFiniteError("non-finite loss at epoch 1, batch 0")

        monkeypatch.setattr(cli, "train", explode)
        root, names = corpus_dir
        code = main(train_args(root, names, tmp_path / "out"))
        assert code == 3
        assert "epoch 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, path", [
        ("extract-descriptors", "--out-dir", "file"),
        ("extract-descriptors", "--out-dir", "file/sub"),
        ("evaluate", "--out-dir", "file"),
        ("evaluate", "--out-dir", "file/sub"),
        ("train", "--train-path", "file/train.csv"),
        ("evaluate", "--checkpoint-path", "file/checkpoint.bin"),
    ])
    def test_path_on_or_under_a_file_exit_2(self, trained, tmp_path, capsys, command, flag, path):
        root, names, out = trained
        (tmp_path / "file").write_text("")
        args = {
            "extract-descriptors": ["--train-path", str(root / "train.csv"), "--labels", ",".join(names)],
            "train": train_args(root, names, tmp_path / "out")[1:],
            "evaluate": ["--checkpoint-path", str(out / "checkpoint.bin"), "--test-path", str(root / "test.csv")],
        }[command] + ["--out-dir", str(tmp_path / "out")]
        args[args.index(flag) + 1] = str(tmp_path / path)
        assert main([command, *args]) == 2
        assert str(tmp_path / "file") in capsys.readouterr().err


class TestEmbeddingFile:
    def test_pretrained_vectors_flow_through_train(self, corpus_dir, tmp_path, capsys):
        root, names = corpus_dir
        vectors = tmp_path / "vectors.txt"
        dims = 8
        lines = [
            "markera " + " ".join(["0.5"] * dims),
            "noise001 " + " ".join(["-0.25"] * dims),
            "absenttoken " + " ".join(["9.0"] * dims),
        ]
        vectors.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code = main(train_args(root, names, out, extra=["--embedding-path", str(vectors), "--max-epochs", "1"]))
        assert code == 0
        assert "pretrained embeddings cover 2/" in capsys.readouterr().out

    def test_dimension_mismatch_exit_2(self, corpus_dir, tmp_path, capsys):
        root, names = corpus_dir
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("markera 1.0 2.0\n")  # 2-d vectors, model wants 8
        code = main(train_args(root, names, tmp_path / "run", extra=["--embedding-path", str(vectors)]))
        assert code == 2
        assert "expected 8" in capsys.readouterr().err


def unhashed_bundle(trained, directory, mode="multi_class"):
    """The trained bundle saved again without content hashes, the way a library caller saves it."""
    _, names, out = trained
    model, _ = load_checkpoint(out / "checkpoint.bin")
    model.config = replace(model.config, mode=mode)
    save_checkpoint(model, directory / "checkpoint.bin", names)
    for name in ("vocab.tsv", "descriptors.tsv"):
        shutil.copy(out / name, directory / name)
    return directory / "checkpoint.bin"


def rewritten_header(trained, path, edit):
    """The trained checkpoint copied to ``path`` with ``edit(header)`` applied to its JSON header."""
    _, _, out = trained
    data = (out / "checkpoint.bin").read_bytes()
    (header_len,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16 : 16 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(data[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + data[16 + header_len :])
    return path


def predict_with(trained, checkpoint) -> int:
    """Exit code of ``descnet predict`` with ``checkpoint`` and the trained bundle's vocabulary and descriptors."""
    _, _, out = trained
    return main([
        "predict", "--checkpoint-path", str(checkpoint), "--vocab-path", str(out / "vocab.tsv"),
        "--descriptor-path", str(out / "descriptors.tsv"), "--text", "markera",
    ])


class TestEarlierVocabularyFormat:
    def test_three_column_bundle_evaluates_and_predicts_byte_identically(self, trained, tmp_path, capsys):
        """A bundle whose vocab.tsv has the third doc_frequency column earlier versions wrote, hashed into its checkpoint."""
        root, names, out = trained
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        train_docs, _ = split(load_dataset(root / "train.csv", "csv", LabelSpace(tuple(names), "multi_class")), RunConfig.val_fraction, 7)
        doc_frequency = Counter(tok for doc in train_docs for tok in set(doc.tokens))
        lines = [line.split("\t") for line in (out / "vocab.tsv").read_text().splitlines()]
        (legacy / "vocab.tsv").write_text("".join(f"{tok}\t{idx}\t{doc_frequency[tok]}\n" for tok, idx in lines))
        shutil.copy(out / "descriptors.tsv", legacy / "descriptors.tsv")
        vocab_sha256 = file_sha256(legacy / "vocab.tsv")
        assert vocab_sha256 != file_sha256(out / "vocab.tsv")
        rewritten_header(trained, legacy / "checkpoint.bin", lambda header: header.update(vocab_sha256=vocab_sha256))

        outputs = []
        for bundle in (out, legacy):
            report_dir = tmp_path / f"report_{bundle.name}"
            assert main([
                "evaluate", "--checkpoint-path", str(bundle / "checkpoint.bin"),
                "--test-path", str(root / "test.csv"), "--out-dir", str(report_dir),
            ]) == 0
            assert main([
                "predict", "--checkpoint-path", str(bundle / "checkpoint.bin"), "--input-path", str(root / "test.csv"),
            ]) == 0
            outputs.append((capsys.readouterr().out, (report_dir / "report.json").read_bytes()))
        assert outputs[1] == outputs[0]


class TestBundleMismatch:
    def test_header_vocab_size_zero_exit_4(self, trained, tmp_path, capsys):
        bad = rewritten_header(trained, tmp_path / "checkpoint.bin", lambda header: header.update(vocab_size=0))
        assert predict_with(trained, bad) == 4
        assert f"{bad}: bad checkpoint header" in capsys.readouterr().err

    def test_vocabulary_length_differs_without_hashes_exit_4(self, trained, tmp_path, capsys):
        checkpoint = unhashed_bundle(trained, tmp_path)
        vocab = tmp_path / "vocab.tsv"
        n_tokens = len(load_vocabulary(vocab))
        with open(vocab, "a", encoding="utf-8") as fh:
            fh.write(f"extra\t{n_tokens}\t1\n")
        code = main(["predict", "--checkpoint-path", str(checkpoint), "--text", "markera extra"])
        assert code == 4
        assert f"{vocab}: {n_tokens + 1} tokens, but the checkpoint's embedding has {n_tokens} rows" in capsys.readouterr().err


class TestCheckpointValues:
    @pytest.mark.parametrize("value", [8.0, True])
    def test_config_text_length_not_an_integer_exit_4(self, trained, tmp_path, capsys, value):
        bad = rewritten_header(trained, tmp_path / "checkpoint.bin", lambda header: header["config"].update(text_length=value))
        assert predict_with(trained, bad) == 4
        assert f"{bad}: bad checkpoint header (text_length must be an integer, got {value!r})" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, convert",
        [("vocab_size", str), ("vocab_size", float), ("vocab_size", lambda n: n + 0.7), ("n_classes", str), ("epoch", lambda n: n + 0.9), ("epoch", bool),
         ("val_metric", str), ("val_metric", lambda v: "nan"), ("val_metric", bool), ("val_metric", lambda v: float("nan")), ("val_metric", lambda v: float("inf"))],
        ids=["vocab_size-string", "vocab_size-float", "vocab_size-fraction", "n_classes-string", "epoch-fraction", "epoch-bool",
             "val_metric-string", "val_metric-nan-string", "val_metric-bool", "val_metric-nan", "val_metric-inf"],
    )
    def test_header_count_not_an_integer_exit_4(self, trained, tmp_path, capsys, key, convert):
        """vocab_size, n_classes and epoch must be JSON integers and val_metric a finite JSON number: a string, a bool or a non-finite value is refused, not coerced."""
        bad = rewritten_header(trained, tmp_path / "checkpoint.bin", lambda header: header.update({key: convert(header[key])}))
        assert predict_with(trained, bad) == 4
        kind = "a finite number" if key == "val_metric" else "an integer"
        assert f"{bad}: bad checkpoint header ({key} must be {kind}, got " in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_value_exit_4(self, trained, tmp_path, capsys, value):
        _, _, out = trained
        data = bytearray((out / "checkpoint.bin").read_bytes())
        data[-4:] = np.array([value], dtype="<f4").tobytes()  # the last value of the last record, head.bias
        bad = tmp_path / "checkpoint.bin"
        bad.write_bytes(bytes(data))
        assert predict_with(trained, bad) == 4
        assert f"{bad}: parameter 'head.bias' holds a non-finite value" in capsys.readouterr().err

    def test_separate_descriptor_table_from_older_version_exit_4(self, trained, tmp_path, capsys):
        _, _, out = trained
        model, _ = load_checkpoint(out / "checkpoint.bin")
        table = model.embedding.table.data
        name = b"desc_embedding.table"
        record = struct.pack("<I", len(name)) + name + struct.pack("<I2Q", 2, *table.shape) + table.astype("<f4").tobytes()
        data = (out / "checkpoint.bin").read_bytes()
        (header_len,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16 : 16 + header_len])
        header["config"].update(optimizer="adam", share_embedding=False)  # as older versions wrote it
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        (n_params,) = struct.unpack("<I", data[16 + header_len : 20 + header_len])
        records = struct.pack("<I", n_params + 1) + data[20 + header_len :] + record
        old = tmp_path / "checkpoint.bin"
        old.write_bytes(data[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + records)
        assert predict_with(trained, old) == 4
        assert f"{n_params + 1} parameter records, model expects {n_params}" in capsys.readouterr().err

    def test_lengths_of_10_to_the_12_evaluate_and_predict_like_the_original(self, trained, tmp_path, capsys):
        """text_length and descriptor_length only truncate: no document here is longer than the trained 10."""
        root, _, out = trained
        huge = tmp_path / "huge"
        huge.mkdir()
        for name in ("vocab.tsv", "descriptors.tsv"):
            shutil.copy(out / name, huge / name)
        rewritten_header(
            trained, huge / "checkpoint.bin", lambda header: header["config"].update(text_length=10**12, descriptor_length=10**12)
        )
        outputs = []
        for bundle in (out, huge):
            report_dir = tmp_path / f"report_{bundle.name}"
            assert main([
                "evaluate", "--checkpoint-path", str(bundle / "checkpoint.bin"),
                "--test-path", str(root / "test.csv"), "--out-dir", str(report_dir),
            ]) == 0
            assert main([
                "predict", "--checkpoint-path", str(bundle / "checkpoint.bin"), "--input-path", str(root / "test.csv"),
            ]) == 0
            outputs.append((capsys.readouterr().out, (report_dir / "report.json").read_bytes()))
        assert outputs[1] == outputs[0]

    def test_label_names_not_strings_exit_4_in_predict(self, trained, tmp_path, capsys):
        bad = rewritten_header(trained, tmp_path / "checkpoint.bin", lambda header: header.update(label_names=[1, 2, 3]))
        assert predict_with(trained, bad) == 4
        assert f"{bad}: bad checkpoint header (label_names must be a list of distinct strings" in capsys.readouterr().err

    def test_repeated_label_names_exit_4_in_evaluate(self, trained, tmp_path, capsys):
        root, _, out = trained
        bad = rewritten_header(trained, tmp_path / "checkpoint.bin", lambda header: header.update(label_names=["a", "a", "b"]))
        code = main([
            "evaluate", "--checkpoint-path", str(bad), "--vocab-path", str(out / "vocab.tsv"),
            "--descriptor-path", str(out / "descriptors.tsv"), "--test-path", str(root / "test.csv"),
            "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 4
        assert f"{bad}: bad checkpoint header (label_names must be a list of distinct strings" in capsys.readouterr().err


class TestInvalidUtf8:
    @pytest.mark.parametrize(
        "which", ["dataset", "config", "vocabulary", "descriptors", "embeddings", "threshold", "input"]
    )
    def test_exit_2_naming_file_and_line(self, which, trained, tmp_path, capsys):
        root, names, out = trained
        checkpoint = unhashed_bundle(trained, tmp_path, mode="multi_label" if which == "threshold" else "multi_class")
        valid = {
            "dataset": (root / "train.csv").read_bytes(),
            "config": b"seed = 7\nd_embed = 8\n",
            "vocabulary": (out / "vocab.tsv").read_bytes(),
            "descriptors": (out / "descriptors.tsv").read_bytes(),
            "embeddings": b"markera " + b"0.5 " * 8 + b"\nnoise001 " + b"0.25 " * 8 + b"\n",
            "threshold": b"0.5\n",
            "input": b"markera noise001\nmarkerb\n",
        }[which]
        bad = tmp_path / f"bad_{which}.txt"
        bad.write_bytes(valid.rstrip(b"\n") + b"\xff\n")
        line = bad.read_bytes().count(b"\n")
        train = ["train", "--labels", ",".join(names), "--out-dir", str(tmp_path / "run"), *FAST_FLAGS]
        train_path = ["--train-path", str(root / "train.csv")]
        bundle = ["predict", "--checkpoint-path", str(checkpoint), "--text", "markera"]
        args = {
            "dataset": [*train, "--train-path", str(bad)],
            "config": [*train, *train_path, "--config", str(bad)],
            "vocabulary": [*bundle, "--vocab-path", str(bad)],
            "descriptors": [*bundle, "--descriptor-path", str(bad)],
            "embeddings": [*train, *train_path, "--embedding-path", str(bad)],
            "threshold": [*bundle, "--threshold-path", str(bad)],
            "input": ["predict", "--checkpoint-path", str(checkpoint), "--input-path", str(bad)],
        }[which]
        assert main(args) == 2
        assert f"{bad}: line {line}: invalid UTF-8" in capsys.readouterr().err


class TestNumericOptions:
    """Bad numeric options are rejected when the config is read, before any file is opened."""

    def run_train(self, tmp_path, *flags):
        return main([
            "train", "--train-path", str(tmp_path / "missing.csv"), "--labels", "a,b",
            "--out-dir", str(tmp_path / "run"), *flags,
        ])

    def test_val_fraction_nan_exit_2(self, tmp_path, capsys):
        assert self.run_train(tmp_path, "--val-fraction", "nan") == 2
        assert "val_fraction must be in (0, 1), got nan" in capsys.readouterr().err

    def test_val_fraction_outside_open_unit_interval_exit_2(self, tmp_path, capsys):
        for value in ("0", "1", "1.5", "-0.2", "inf"):
            assert self.run_train(tmp_path, "--val-fraction", value) == 2
            assert "val_fraction must be in (0, 1)" in capsys.readouterr().err

    def test_threshold_outside_unit_interval_exit_2(self, tmp_path, capsys):
        for value in ("nan", "inf", "1.5", "-0.5"):
            assert self.run_train(tmp_path, "--threshold", value) == 2
            assert "threshold must be in [0, 1]" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        assert self.run_train(tmp_path, "--seed", "-1") == 2
        assert "descriptor_length, patience and seed must be >= 0" in capsys.readouterr().err

    def test_learning_rate_not_finite_exit_2(self, tmp_path, capsys):
        for value in ("nan", "inf"):
            assert self.run_train(tmp_path, "--learning-rate", value) == 2
            assert f"learning_rate must be positive and finite, got {value}" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text("learning_rate = nan\n")
        assert self.run_train(tmp_path, "--config", str(config)) == 2
        assert "learning_rate" in capsys.readouterr().err
