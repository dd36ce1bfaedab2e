"""Evaluation measures: ROC AUC, precision/recall/F1, accuracy, thresholding."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

THRESHOLD_GRID = [round(i / 100, 2) for i in range(1, 100)]


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative.

    Ties count one half, i.e. the Mann-Whitney U normalization, computed via
    tie-averaged ranks.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise DataError(f"roc_auc: scores {s.shape} vs labels {y.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise DataError("roc_auc: labels must be 0/1")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC undefined: need at least one positive and one negative")

    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(s.size, dtype=np.float64)
    i = 0
    while i < s.size:
        j = i
        while j < s.size and s[order[j]] == s[order[i]]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0  # average of 1-based ranks i+1..j
        i = j
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _prf_from_counts(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass
class PRFResult:
    """Per-class and aggregated precision/recall/F1."""

    per_class: list[tuple[float, float, float, int]]  # (P, R, F1, support)
    macro: tuple[float, float, float]
    micro: tuple[float, float, float]
    weighted: tuple[float, float, float]

    def aggregate(self, averaging: str) -> tuple[float, float, float]:
        if averaging not in ("macro", "micro", "weighted"):
            raise DataError(f"unknown averaging {averaging!r}")
        return getattr(self, averaging)


def precision_recall_f1(predicted, gold, n_classes: int) -> PRFResult:
    """Standard one-vs-rest P/R/F1 over label sets.

    ``predicted`` and ``gold`` are equal-length sequences of label-index
    collections. Macro averages classes unweighted; weighted averages by
    support (classes with zero support are excluded); micro uses global
    counts.
    """
    if len(predicted) != len(gold):
        raise DataError(f"precision_recall_f1: {len(predicted)} predictions vs {len(gold)} golds")
    tp = np.zeros(n_classes, dtype=np.int64)
    fp = np.zeros(n_classes, dtype=np.int64)
    fn = np.zeros(n_classes, dtype=np.int64)
    for pred_set, gold_set in zip(predicted, gold):
        pred_set, gold_set = set(pred_set), set(gold_set)
        for c in pred_set & gold_set:
            tp[c] += 1
        for c in pred_set - gold_set:
            fp[c] += 1
        for c in gold_set - pred_set:
            fn[c] += 1

    per_class = []
    for c in range(n_classes):
        p, r, f1 = _prf_from_counts(int(tp[c]), int(fp[c]), int(fn[c]))
        per_class.append((p, r, f1, int(tp[c] + fn[c])))

    macro = tuple(float(np.mean([row[i] for row in per_class])) for i in range(3))
    micro = _prf_from_counts(int(tp.sum()), int(fp.sum()), int(fn.sum()))
    supports = np.array([row[3] for row in per_class], dtype=np.float64)
    if supports.sum() > 0:
        weights = supports / supports.sum()
        weighted = tuple(float(np.sum(weights * [row[i] for row in per_class])) for i in range(3))
    else:
        weighted = (0.0, 0.0, 0.0)
    return PRFResult(per_class, macro, micro, weighted)


def macro_f1(predicted, gold, n_classes: int) -> float:
    return precision_recall_f1(predicted, gold, n_classes).macro[2]


def accuracy(predicted, gold) -> float:
    """Fraction of exactly matching single-class predictions."""
    if len(predicted) == 0:
        raise DataError("accuracy: no examples")
    if len(predicted) != len(gold):
        raise DataError(f"accuracy: {len(predicted)} predictions vs {len(gold)} golds")
    return sum(1 for p, g in zip(predicted, gold) if p == g) / len(predicted)


def threshold_labels(probabilities, threshold: float) -> list[set[int]]:
    """The multi-label decision rule: each row's classes whose probability reaches ``threshold``."""
    return [set(np.flatnonzero(row).tolist()) for row in np.asarray(probabilities) >= threshold]


def select_threshold(probabilities: np.ndarray, gold_sets) -> float:
    """Grid-search {0.01..0.99} for the threshold maximizing macro-F1.

    A class is accepted when its probability reaches the candidate threshold;
    ties between thresholds break toward the smaller one.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise DataError(f"select_threshold: need a non-empty (n, classes) matrix, got {probs.shape}")
    if len(gold_sets) != probs.shape[0]:
        raise DataError("select_threshold: row count does not match gold count")
    n_classes = probs.shape[1]
    gold = [set(g) for g in gold_sets]
    return max(THRESHOLD_GRID, key=lambda t: macro_f1(threshold_labels(probs, t), gold, n_classes))


def per_label_auc(probabilities: np.ndarray, gold_sets, n_classes: int) -> list[float | None]:
    """One-vs-rest AUC of each label's probability column; None where AUC is undefined."""
    probs = np.asarray(probabilities, dtype=np.float64)
    targets = np.zeros((probs.shape[0], n_classes), dtype=np.int64)
    for i, g in enumerate(gold_sets):
        for c in g:
            targets[i, c] = 1
    aucs: list[float | None] = []
    for c in range(n_classes):
        try:
            aucs.append(roc_auc(probs[:, c], targets[:, c]))
        except DataError:
            aucs.append(None)
    return aucs


def macro_auc(probabilities: np.ndarray, gold_sets, n_classes: int) -> float:
    """Unweighted mean of per-label AUCs over the labels where AUC is defined.

    Falls back to 0.5 if no label has both a positive and a negative example.
    """
    defined = [a for a in per_label_auc(probabilities, gold_sets, n_classes) if a is not None]
    return float(np.mean(defined)) if defined else 0.5


@dataclass
class EvaluationReport:
    """Everything the evaluate command emits, in one structure."""

    mode: str
    label_names: list[str]
    n_examples: int
    per_class: list[dict] = field(default_factory=list)
    macro: dict = field(default_factory=dict)
    micro: dict = field(default_factory=dict)
    weighted: dict = field(default_factory=dict)
    accuracy: float | None = None
    macro_auc: float | None = None
    threshold: float | None = None

    def to_text(self) -> str:
        lines = [f"mode\t{self.mode}", f"n_examples\t{self.n_examples}"]
        if self.accuracy is not None:
            lines.append(f"accuracy\t{self.accuracy!r}")
        if self.macro_auc is not None:
            lines.append(f"macro_auc\t{self.macro_auc!r}")
        if self.threshold is not None:
            lines.append(f"threshold\t{self.threshold!r}")
        for agg_name in ("macro", "micro", "weighted"):
            agg = getattr(self, agg_name)
            for metric in ("precision", "recall", "f1"):
                lines.append(f"{agg_name}_{metric}\t{agg[metric]!r}")
        for row in self.per_class:
            for metric in ("precision", "recall", "f1"):
                lines.append(f"class_{row['label']}_{metric}\t{row[metric]!r}")
            lines.append(f"class_{row['label']}_support\t{row['support']}")
            if row.get("auc") is not None:
                lines.append(f"class_{row['label']}_auc\t{row['auc']!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "mode": self.mode,
            "labels": self.label_names,
            "n_examples": self.n_examples,
            "per_class": self.per_class,
            "macro": self.macro,
            "micro": self.micro,
            "weighted": self.weighted,
            "accuracy": self.accuracy,
            "macro_auc": self.macro_auc,
            "threshold": self.threshold,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def build_report(
    mode: str,
    label_names,
    predicted,
    gold,
    probabilities: np.ndarray | None = None,
    threshold: float | None = None,
) -> EvaluationReport:
    n_classes = len(label_names)
    prf = precision_recall_f1(predicted, gold, n_classes)
    report = EvaluationReport(mode=mode, label_names=list(label_names), n_examples=len(gold))
    for name, agg in (("macro", prf.macro), ("micro", prf.micro), ("weighted", prf.weighted)):
        setattr(report, name, {"precision": agg[0], "recall": agg[1], "f1": agg[2]})

    aucs: list[float | None] = [None] * n_classes
    if mode == "multi_label" and probabilities is not None:
        aucs = per_label_auc(probabilities, gold, n_classes)
        defined = [a for a in aucs if a is not None]
        report.macro_auc = float(np.mean(defined)) if defined else None
        report.threshold = threshold

    if mode == "multi_class":
        report.accuracy = accuracy([next(iter(p)) for p in predicted], [next(iter(g)) for g in gold])

    for c, name in enumerate(label_names):
        p, r, f1, support = prf.per_class[c]
        row = {"label": name, "precision": p, "recall": r, "f1": f1, "support": support}
        if aucs[c] is not None:
            row["auc"] = aucs[c]
        report.per_class.append(row)
    return report
