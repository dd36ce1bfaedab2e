import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descnet.errors import DataError
from descnet.metrics import (
    THRESHOLD_GRID,
    PRFResult,
    accuracy,
    build_report,
    decide,
    label_matrix,
    macro_f1,
    precision_recall_f1,
    roc_auc,
    select_threshold,
)
from descnet.verify import auc_oracle


def _prf_from_counts(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def prf_oracle(predicted, gold, n_classes: int) -> PRFResult:
    """P/R/F1 counted with set algebra, one example at a time: the reference for the matrix path."""
    tp, fp, fn = [0] * n_classes, [0] * n_classes, [0] * n_classes
    for pred_set, gold_set in zip(predicted, gold):
        pred_set, gold_set = set(pred_set), set(gold_set)
        for c in pred_set & gold_set:
            tp[c] += 1
        for c in pred_set - gold_set:
            fp[c] += 1
        for c in gold_set - pred_set:
            fn[c] += 1
    per_class = [(*_prf_from_counts(tp[c], fp[c], fn[c]), tp[c] + fn[c]) for c in range(n_classes)]
    macro = tuple(float(np.mean([row[i] for row in per_class])) for i in range(3))
    micro = _prf_from_counts(sum(tp), sum(fp), sum(fn))
    supports = np.array([row[3] for row in per_class], dtype=np.float64)
    weighted = (0.0, 0.0, 0.0)
    if supports.sum() > 0:
        weights = supports / supports.sum()
        weighted = tuple(float(np.sum(weights * [row[i] for row in per_class])) for i in range(3))
    return PRFResult(per_class, macro, micro, weighted)


def above(probs: np.ndarray, t: float) -> list[set[int]]:
    return [{c for c, p in enumerate(row) if p >= t} for row in probs]


@st.composite
def scored_label_sets(draw):
    """Probabilities on a few two-decimal levels (so ties occur) and gold label sets (empty ones included)."""
    n_classes = draw(st.integers(1, 5))
    n = draw(st.integers(1, 30))
    levels = draw(st.lists(st.integers(0, 100).map(lambda k: k / 100), min_size=1, max_size=4))
    cells = draw(st.lists(st.sampled_from(levels), min_size=n * n_classes, max_size=n * n_classes))
    gold = [draw(st.sets(st.integers(0, n_classes - 1))) for _ in range(n)]
    return np.array(cells).reshape(n, n_classes), gold, n_classes


class TestLabelMatrix:
    def test_sets_and_matrix_give_the_same_bool_matrix(self):
        expected = np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=bool)
        np.testing.assert_array_equal(label_matrix([{0, 2}, set(), [1]], 3), expected)
        np.testing.assert_array_equal(label_matrix(expected.astype(np.float32), 3), expected)

    @pytest.mark.parametrize("labels", [[{0}, {-1}], [{2}, {0}], np.ones((2, 3)), np.full((2, 2), 2.0)])
    def test_out_of_range_labels_rejected(self, labels):
        with pytest.raises(DataError):
            label_matrix(labels, 2)
        with pytest.raises(DataError):
            precision_recall_f1([{0}, {1}], labels, n_classes=2)


class TestDecide:
    def test_multi_class_one_hot_argmax_ties_to_lowest_index(self):
        probs = np.array([[0.2, 0.4, 0.4], [0.5, 0.1, 0.4]])
        np.testing.assert_array_equal(decide(probs, "multi_class"), [[0, 1, 0], [1, 0, 0]])

    def test_multi_label_reaching_threshold_accepted(self):
        probs = np.array([[0.3, 0.29, 0.31]])
        np.testing.assert_array_equal(decide(probs, "multi_label", 0.3), [[1, 0, 1]])

    def test_multi_label_requires_threshold(self):
        with pytest.raises(DataError, match="requires a threshold"):
            decide(np.array([[0.5]]), "multi_label")


class TestRocAuc:
    def test_hand_case(self):
        assert roc_auc([0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0]) == pytest.approx(0.75, abs=1e-15)

    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties_half(self):
        assert roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(DataError, match="AUC undefined"):
            roc_auc([0.1, 0.2], [1, 1])

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            scores = rng.choice(np.round(rng.random(5), 2), size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert roc_auc(scores, labels) == pytest.approx(auc_oracle(scores, labels), abs=1e-12)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_invariant_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert roc_auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_complement_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        scores = rng.choice(np.round(rng.random(6), 2), size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) + roc_auc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)


class TestPrecisionRecallF1:
    def test_perfect_predictions(self):
        golds = [{0}, {1}, {0, 1}]
        result = precision_recall_f1(golds, golds, n_classes=2)
        for agg in (result.macro, result.micro, result.weighted):
            assert agg == (1.0, 1.0, 1.0)

    def test_two_class_hand_count(self):
        golds = [{0}, {0}, {1}, {1}]
        preds = [{0}, {1}, {1}, {1}]
        result = precision_recall_f1(preds, golds, n_classes=2)
        p_a, r_a, f_a, support_a = result.per_class[0]
        assert (p_a, r_a) == (1.0, 0.5)
        assert f_a == pytest.approx(2 / 3)
        p_b, r_b, f_b, _ = result.per_class[1]
        assert (r_b, f_b) == (1.0, pytest.approx(0.8))
        assert p_b == pytest.approx(2 / 3)
        assert result.macro[2] == pytest.approx(11 / 15)

    def test_absent_class_zero_in_macro_excluded_from_weighted(self):
        golds = [{0}, {0}]
        preds = [{0}, {0}]
        result = precision_recall_f1(preds, golds, n_classes=3)
        assert result.per_class[2] == (0.0, 0.0, 0.0, 0)
        assert result.macro[2] == pytest.approx(1 / 3)
        assert result.weighted[2] == 1.0

    def test_micro_equals_accuracy_for_single_label(self):
        rng = np.random.default_rng(3)
        golds = [{int(g)} for g in rng.integers(0, 4, size=50)]
        preds = [{int(p)} for p in rng.integers(0, 4, size=50)]
        result = precision_recall_f1(preds, golds, n_classes=4)
        acc = accuracy([next(iter(p)) for p in preds], [next(iter(g)) for g in golds])
        assert result.micro[0] == pytest.approx(acc)
        assert result.micro[1] == pytest.approx(acc)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            precision_recall_f1([{0}], [{0}, {1}], n_classes=2)

    @settings(max_examples=200)
    @given(scored_label_sets(), st.integers(0, 100))
    def test_equals_set_oracle(self, instance, percent):
        probs, gold, n_classes = instance
        predicted = above(probs, percent / 100)
        expected = prf_oracle(predicted, gold, n_classes)
        for pred, g in ((predicted, gold), (label_matrix(predicted, n_classes), label_matrix(gold, n_classes))):
            result = precision_recall_f1(pred, g, n_classes)
            assert result.per_class == expected.per_class
            assert (result.macro, result.micro, result.weighted) == (expected.macro, expected.micro, expected.weighted)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_half(self):
        assert accuracy([0, 1], [0, 0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no examples"):
            accuracy([], [])


class TestSelectThreshold:
    def test_single_label_separated_returns_smallest_perfect_grid_point(self):
        probs = np.array([[0.9], [0.1]])
        golds = [{0}, set()]
        assert select_threshold(probs, golds) == pytest.approx(0.11)

    def test_calibrated_beats_or_matches_fixed_half(self):
        rng = np.random.default_rng(11)
        n = 60
        golds = []
        probs = np.zeros((n, 3))
        for i in range(n):
            g = set()
            for c in range(3):
                positive = rng.random() < 0.5
                if positive:
                    g.add(c)
                probs[i, c] = np.clip((0.75 if positive else 0.25) + rng.normal(0, 0.1), 0.01, 0.99)
            golds.append(g)
        chosen = select_threshold(probs, golds)
        f1_at = lambda t: macro_f1([set(np.nonzero(row >= t)[0]) for row in probs], golds, 3)
        assert f1_at(chosen) >= f1_at(0.5)

    def test_equals_max_over_full_enumeration(self):
        rng = np.random.default_rng(23)
        probs = rng.random((40, 4))
        golds = [set(np.nonzero(rng.random(4) < 0.4)[0]) for _ in range(40)]
        chosen = select_threshold(probs, golds)
        scores = {t: macro_f1([set(np.nonzero(row >= t)[0]) for row in probs], golds, 4) for t in THRESHOLD_GRID}
        best = max(scores.values())
        assert scores[chosen] == pytest.approx(best, abs=1e-15)
        assert chosen == min(t for t, s in scores.items() if s == best)

    @settings(max_examples=100)
    @given(scored_label_sets())
    def test_equals_grid_scored_by_set_oracle(self, instance):
        probs, gold, n_classes = instance
        expected = max(THRESHOLD_GRID, key=lambda t: prf_oracle(above(probs, t), gold, n_classes).macro[2])
        assert select_threshold(probs, gold) == expected
        assert select_threshold(probs, label_matrix(gold, n_classes)) == expected

    def test_degenerate_label_does_not_break_selection(self):
        probs = np.array([[0.9, 0.2], [0.1, 0.3], [0.8, 0.1]])
        golds = [{0}, set(), {0}]  # label 1 never positive
        threshold = select_threshold(probs, golds)
        assert 0.0 < threshold < 1.0


class TestReport:
    def test_multi_class_report_round_trips_json(self):
        report = build_report("multi_class", ["a", "b"], [{0}, {1}], [{0}, {0}])
        assert report.accuracy == 0.5
        text = report.to_text()
        assert "accuracy\t0.5" in text
        import json

        payload = json.loads(report.to_json())
        assert payload["accuracy"] == 0.5
        assert payload["per_class"][0]["label"] == "a"

    def test_json_keys_are_the_report_fields(self):
        import json
        from dataclasses import fields

        report = build_report("multi_label", ["x", "y"], [{0}, {1}], [{0}, {0, 1}], np.array([[0.9, 0.2], [0.4, 0.7]]), 0.5)
        payload = json.loads(report.to_json())
        assert sorted(payload) == sorted(f.name for f in fields(report))
        assert payload["labels"] == ["x", "y"] and payload["threshold"] == 0.5

    def test_multi_label_report_includes_auc_and_threshold(self):
        probs = np.array([[0.9, 0.8], [0.2, 0.6], [0.1, 0.4]])
        golds = [{0, 1}, {1}, set()]
        preds = [set(np.nonzero(row > 0.5)[0]) for row in probs]
        report = build_report("multi_label", ["x", "y"], preds, golds, probabilities=probs, threshold=0.5)
        assert report.threshold == 0.5
        assert report.macro_auc == pytest.approx(1.0)
        assert report.per_class[0]["auc"] == 1.0

    @pytest.mark.parametrize("mode", ["multi_class", "multi_label"])
    def test_label_sets_and_indicator_matrices_give_the_same_report(self, mode):
        rng = np.random.default_rng(29)
        probs = np.round(rng.random((25, 3)), 1)
        if mode == "multi_class":
            gold = [{int(c)} for c in rng.integers(0, 3, size=25)]
            predicted = [{int(row.argmax())} for row in probs]
        else:
            gold = [set(np.flatnonzero(rng.random(3) < 0.4).tolist()) for _ in range(25)]
            predicted = above(probs, 0.5)
        from_sets = build_report(mode, ["a", "b", "c"], predicted, gold, probs, 0.5)
        from_matrices = build_report(
            mode, ["a", "b", "c"], label_matrix(predicted, 3), label_matrix(gold, 3).astype(np.float32), probs, 0.5
        )
        assert from_sets.to_text() == from_matrices.to_text()
        assert from_sets.to_json() == from_matrices.to_json()

    def test_permutation_equivariance_of_class_axis(self):
        rng = np.random.default_rng(5)
        probs = rng.random((20, 3))
        golds = [set(np.nonzero(rng.random(3) < 0.5)[0]) for _ in range(20)]
        preds = [set(np.nonzero(row > 0.4)[0]) for row in probs]
        base = precision_recall_f1(preds, golds, 3)
        perm = [2, 0, 1]
        preds_p = [{perm[c] for c in s} for s in preds]
        golds_p = [{perm[c] for c in s} for s in golds]
        permuted = precision_recall_f1(preds_p, golds_p, 3)
        assert base.macro == pytest.approx(permuted.macro)
        assert base.micro == pytest.approx(permuted.micro)
        for c in range(3):
            assert base.per_class[c] == pytest.approx(permuted.per_class[perm[c]])
