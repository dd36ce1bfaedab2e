"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the checkout:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

import run as bench

bench._import_program()

import descnet.descriptors  # noqa: E402
import descnet.model  # noqa: E402
from descnet import verify  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
NAMED = {
    "train-news": [
        "setup_s",
        "train_docs_per_s",
        "train_step_ms_min",
        "train_step_ms_p50",
        "heldout_docs_per_s",
        "heldout_ms_min",
        "heldout_accuracy",
    ],
    "extract-wide": [
        "setup_s",
        "extract_chi2_docs_per_s",
        "extract_chi2_ms_min",
        "extract_anova_docs_per_s",
        "extract_anova_ms_min",
    ],
    "serve-short": ["setup_s", "score_docs_per_s", "score_ms_min", "predict_ms_min", "predict_ms_p50", "evaluate_ms_p50"],
}


def tiny_run(workload: str, trace: bool, seconds: float = 0.3) -> dict:
    return bench.run_workload(workload, seed=5, seconds=seconds, trace=trace, tiny=True)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMED)


@pytest.mark.parametrize("workload", list(NAMED))
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload, capsys):
    result = tiny_run(workload, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = capsys.readouterr().out
    for name in NAMED[workload] + ["peak_rss_mb", "error_rate"]:
        assert f"metric {name} = " in printed and "(n=" in printed, name
    assert '"blas_threads": "1"' in printed and "calibration_end_ms" in printed
    if workload == "train-news":  # eight steps per round: each of the two rounds adds three set-ups to the first three
        assert re.search(r"metric setup_s = \S+ s \(n=(\d+)\)", printed).group(1) == "9"


@pytest.mark.parametrize("workload", list(NAMED))
def test_every_per_layer_metric_is_emitted_with_its_unit(workload):
    result = tiny_run(workload, trace=True)
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == PER_LAYER
    assert 0.0 < result["metrics"]["trace.coverage_frac"]["value"] <= 1.0


def test_permuted_batch_rows_fail_the_serving_check(monkeypatch):
    score = descnet.model.predict_probabilities
    monkeypatch.setattr(descnet.model, "predict_probabilities", lambda *a, **k: score(*a, **k)[::-1])
    result = tiny_run("serve-short", trace=False)
    assert not result["correct"] and result["failed"] > 0


def test_perturbed_descriptor_score_fails_the_oracle_check(monkeypatch):
    extract = descnet.descriptors.extract_descriptors

    def perturbed(*args, **kwargs):
        found = extract(*args, **kwargs)
        found.entries = [[(tok, score * (1 + 1e-6)) for tok, score in entries] for entries in found.entries]
        return found

    monkeypatch.setattr(descnet.descriptors, "extract_descriptors", perturbed)
    result = tiny_run("extract-wide", trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_a_missing_candidate_fails_the_membership_check(monkeypatch):
    extract = descnet.descriptors.extract_descriptors

    def drops_the_best(corpus, vocab, labels, test, n, *args, **kwargs):
        found = extract(corpus, vocab, labels, test, len(vocab), *args, **kwargs)
        found.entries = [entries[1:n] + entries[-1:] for entries in found.entries]
        return found

    monkeypatch.setattr(descnet.descriptors, "extract_descriptors", drops_the_best)
    result = tiny_run("extract-wide", trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_reference_scores_match_the_oracles():
    from workloads import _descriptor_oracle, _reference_scores

    rng = np.random.default_rng(3)
    for _ in range(30):  # tiny corpora reach the zero-marginal and zero-variance cases
        docs, vocab, labels = verify.random_corpus(rng)
        reference = _reference_scores(docs, vocab, len(labels))
        for test, per_class in reference.items():
            for class_idx, scores in enumerate(per_class):
                for token, score in scores.items():
                    expected = _descriptor_oracle(docs, test, token, class_idx)
                    assert verify.relative_error(score, expected) <= 1e-9, (test, class_idx, token, score, expected)


def test_held_out_scoring_is_not_traced_inside_adam():
    tiny_run("train-news", trace=True)
    spans = [json.loads(line) for line in (bench.OUT / "trace-train-news-seed5.jsonl").read_text().splitlines()]
    names = [span["name"] for span in spans]
    assert "numerics.adam" in names and "model.forward" in names  # eight steps per round: the eighth scores
    assert all(names[span["parent"]] != "numerics.adam" for span in spans if span["parent"] is not None)


def test_non_finite_probabilities_fail_the_training_check(monkeypatch):
    score = descnet.model.predict_probabilities
    monkeypatch.setattr(descnet.model, "predict_probabilities", lambda *a, **k: score(*a, **k) * np.nan)
    result = tiny_run("train-news", trace=False)
    assert not result["correct"] and result["failed"] > 0


def test_tail_percentile_keeps_ten_samples_beyond_it():
    from workloads import tail_percentile

    assert tail_percentile(100, cap=90) == 90
    assert tail_percentile(200, cap=95) == 95
    assert tail_percentile(63, cap=90) == 84
    assert tail_percentile(5, cap=90) == 0
