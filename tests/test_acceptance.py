"""Acceptance suite: one test per acceptance criterion, at pinned tolerances.

Each test prints a PASS/FAIL line (visible with ``pytest -s``). The desk-scale
news and descriptor-dimension tests run the protocols of
``scripts/descriptor_study.py``, imported from there. The news experiment runs
on the real AG News subset when AG_NEWS_TRAIN_CSV and AG_NEWS_TEST_CSV point
at files in this package's ``text,label`` CSV schema; otherwise it runs on a
generated news-like surrogate corpus of the same shape.
"""

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from descnet import verify
from descnet.cli import main as cli_main
from descnet.corpus import LabelSpace, build_vocabulary
from descnet.descriptors import extract_descriptors
from descnet.metrics import accuracy, roc_auc
from descnet.model import DualChannelModel, ModelConfig, encode_examples, predict_probabilities, train
from descnet.synth import marker_corpus, to_documents, write_csv

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import descriptor_study as study  # noqa: E402


def report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}", flush=True)
    assert passed, f"{name}: {detail}"


class TestStatisticalOracles:
    def test_chi2_and_anova_equivalence_on_1000_random_corpora(self):
        start = time.time()
        chi2 = verify.check_chi2_equivalence(1000)
        anova = verify.check_anova_equivalence(1000)
        elapsed = time.time() - start
        report(
            "statistical oracle equivalence (1e-9 rel, 1000 corpora, <10s)",
            chi2.passed and anova.passed and elapsed < 10.0,
            f"chi2 err {chi2.measured:.2e}, anova err {anova.measured:.2e}, {elapsed:.1f}s",
        )

    def test_worked_examples_exact(self):
        result = verify.check_worked_statistics()
        report(
            "worked examples chi2(cat,A)=4.0 and ANOVA F=9.0 (1e-12)",
            result.passed,
            f"max abs err {result.measured:.2e}",
        )


class TestGradientChecks:
    def test_all_layers_and_full_model(self):
        start = time.time()
        primitives = verify.check_primitive_gradients()
        layers = verify.check_layer_gradients()
        full = verify.check_full_model_gradient()
        elapsed = time.time() - start
        report(
            "gradient checks (layers <1e-6, full model <1e-4, <60s)",
            primitives.passed and layers.passed and full.passed and elapsed < 60.0,
            f"primitives {primitives.measured:.2e}, layers {layers.measured:.2e}, "
            f"full {full.measured:.2e}, {elapsed:.1f}s",
        )


class TestProbabilityInvariants:
    def test_fuzzed_over_1000_parameterizations(self):
        result = verify.check_probability_invariants(1000)
        report(
            "probability invariants (softmax/attention sums 1e-6, sigmoid in (0,1))",
            result.passed,
            f"max deviation {result.measured:.2e} over 1000 trials",
        )


class TestMetricOracles:
    def test_auc_brute_force_and_hand_cases(self):
        result = verify.check_auc_equivalence()
        hand = (
            roc_auc([0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0]) == 0.75
            and roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
            and roc_auc([0.5, 0.5], [1, 0]) == 0.5
        )
        report(
            "metric oracles (roc_auc vs pair concordance 1e-12; 0.75/1.0/0.5 exact)",
            result.passed and hand,
            f"max err {result.measured:.2e}, hand cases exact: {hand}",
        )


class TestPlantedDescriptorRecovery:
    def test_single_descriptor_is_the_marker_under_both_tests(self):
        rows, names = marker_corpus(99, n_classes=3, n_noise=50, doc_len=8, seed=4)
        labels = LabelSpace(tuple(names), "multi_class")
        docs = to_documents(rows, labels)
        vocab = build_vocabulary(docs, max_size=200)
        recovered = {}
        for test in ("chi2", "anova"):
            dset = extract_descriptors(docs, vocab, labels, test, n=1)
            recovered[test] = [entries[0][0] for entries in dset.entries]
        expected = ["markera", "markerb", "markerc"]
        ok = recovered["chi2"] == expected and recovered["anova"] == expected
        report(
            "planted-descriptor recovery (n=1 returns exactly the marker, both tests)",
            ok,
            f"chi2 {recovered['chi2']}, anova {recovered['anova']}",
        )


class TestEndToEndLearning:
    def test_separable_corpus_reaches_099_within_10_epochs(self):
        start = time.time()
        rows, names = marker_corpus(200, n_classes=2, n_noise=50, doc_len=10, seed=3)
        labels = LabelSpace(tuple(names), "multi_class")
        docs = to_documents(rows, labels)
        config = ModelConfig(
            mode="multi_class",
            d_embed=16,
            gru_units=8,
            dropout_rate=0.2,
            descriptor_dimension=1,
            text_length=12,
            vocabulary_max=500,
            learning_rate=5e-3,
            batch_size=32,
            max_epochs=10,
            patience=10,
            seed=1,
        )
        vocab = build_vocabulary(docs, config.vocabulary_max)
        descriptors = extract_descriptors(docs, vocab, labels, "chi2", 1)
        examples = encode_examples(docs, vocab, descriptors, labels, config)
        model = DualChannelModel(config, len(vocab), len(labels))
        history = train(model, examples, examples)  # training accuracy is the target
        elapsed = time.time() - start
        gold = examples.target.argmax(axis=1)
        acc = accuracy(predict_probabilities(model, examples).argmax(axis=1), gold)
        report(
            "end-to-end learning (200 docs, 2 classes: train acc >= 0.99 in <=10 epochs, <2min)",
            acc >= 0.99 and len(history) <= 10 and elapsed < 120.0,
            f"train accuracy {acc:.4f} after {len(history)} epochs, {elapsed:.1f}s",
        )


@pytest.fixture(scope="module")
def news_results():
    """Real AG News 8k/2k subset when AG_NEWS_*_CSV are set, news-like surrogate otherwise."""
    task = study.news_task(os.environ.get("AG_NEWS_TRAIN_CSV", ""), os.environ.get("AG_NEWS_TEST_CSV", ""))
    start = time.time()
    main_accuracy = study.news_run(task, 0, False)[0]
    main_elapsed = time.time() - start
    dual = [main_accuracy] + [study.news_run(task, seed, False)[0] for seed in (1, 2)]
    ablated = [study.news_run(task, seed, True)[0] for seed in (0, 1, 2)]
    return task[0], dual, ablated, main_elapsed


class TestDeskScaleNews:
    def test_accuracy_at_least_080(self, news_results):
        name, dual, _, main_elapsed = news_results
        report(
            "desk-scale news accuracy >= 0.80 (<30min)",
            dual[0] >= 0.80 and main_elapsed < 1800,
            f"{name}: accuracy {dual[0]:.4f} in {main_elapsed:.0f}s",
        )

    def test_descriptor_channel_helps_directionally(self, news_results):
        name, dual, ablated, _ = news_results
        report(
            "dual-channel >= descriptor-ablated accuracy (mean of 3 seeds)",
            float(np.mean(dual)) >= float(np.mean(ablated)),
            f"{name}: dual {np.mean(dual):.4f} {[round(a, 3) for a in dual]} vs "
            f"ablated {np.mean(ablated):.4f} {[round(a, 3) for a in ablated]}",
        )


class TestDimensionTrend:
    def test_n100_at_least_n50_mean_over_3_seeds(self):
        task = study.dimension_task()
        n50 = [study.dimension_run(task, 50, seed) for seed in (0, 1, 2)]
        n100 = [study.dimension_run(task, 100, seed) for seed in (0, 1, 2)]
        report(
            "descriptor dimension trend: n=100 >= n=50 (mean val accuracy, 3 seeds)",
            float(np.mean(n100)) >= float(np.mean(n50)),
            f"n=100 {np.mean(n100):.4f} {[round(v, 3) for v in n100]} vs "
            f"n=50 {np.mean(n50):.4f} {[round(v, 3) for v in n50]}",
        )


class TestDeterminism:
    def test_identical_config_and_seed_byte_identical_artifacts(self, tmp_path):
        rows, names = marker_corpus(90, n_classes=3, n_noise=20, seed=2)
        write_csv(rows, tmp_path / "train.csv")
        args = lambda out: [
            "train", "--train-path", str(tmp_path / "train.csv"), "--labels", ",".join(names),
            "--out-dir", str(out),
            "--d-embed", "8", "--gru-units", "4", "--text-length", "10",
            "--descriptor-dimension", "2", "--max-epochs", "3", "--seed", "11",
            "--dropout-rate", "0.4",
        ]
        assert cli_main(args(tmp_path / "run_a")) == 0
        assert cli_main(args(tmp_path / "run_b")) == 0
        history_same = (tmp_path / "run_a/history.csv").read_bytes() == (tmp_path / "run_b/history.csv").read_bytes()
        checkpoint_same = (tmp_path / "run_a/checkpoint.bin").read_bytes() == (tmp_path / "run_b/checkpoint.bin").read_bytes()
        report(
            "determinism: identical config+seed give byte-identical history and checkpoint",
            history_same and checkpoint_same,
            f"history identical: {history_same}, checkpoint identical: {checkpoint_same}",
        )
