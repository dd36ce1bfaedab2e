"""Evaluation measures: ROC AUC, precision/recall/F1, accuracy, thresholding."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

THRESHOLD_GRID = [round(i / 100, 2) for i in range(1, 100)]


def label_matrix(labels, n_classes: int) -> np.ndarray:
    """Labels as a bool ``(n, n_classes)`` indicator matrix.

    ``labels`` is a 2-D 0/1 array, or a sequence holding one collection of
    label indices per row. Every index must lie in ``[0, n_classes)``.
    """
    if isinstance(labels, np.ndarray) and labels.ndim == 2:
        if labels.shape[1] != n_classes or not np.all((labels == 0) | (labels == 1)):
            raise DataError(f"label matrix must hold 0/1 in {n_classes} columns, got shape {labels.shape}")
        return labels.astype(bool, copy=False)
    matrix = np.zeros((len(labels), n_classes), dtype=bool)
    for i, row in enumerate(labels):
        for c in row:
            if not 0 <= c < n_classes:
                raise DataError(f"row {i}: label index {c} outside [0, {n_classes})")
            matrix[i, c] = True
    return matrix


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

    # A group of ``count`` equal scores ending at 1-based rank ``end`` takes
    # the mean of ranks end - count + 1 .. end.
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _prf(tp, fp, fn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision, recall and F1 from counts; a ratio with denominator 0 is 0.0."""
    def ratio(numerator, denominator):
        return np.divide(numerator, denominator, out=np.zeros(np.shape(denominator)), where=denominator != 0)

    precision, recall = ratio(tp, tp + fp), ratio(tp, tp + fn)
    return precision, recall, ratio(2 * precision * recall, precision + recall)


@dataclass
class PRFResult:
    """Per-class and aggregated precision/recall/F1."""

    per_class: list[tuple[float, float, float, int]]  # (P, R, F1, support)
    macro: tuple[float, float, float]
    micro: tuple[float, float, float]
    weighted: tuple[float, float, float]


def precision_recall_f1(predicted, gold, n_classes: int) -> PRFResult:
    """Standard one-vs-rest P/R/F1 over label indicator matrices.

    ``predicted`` and ``gold`` are equal-length label collections in any form
    :func:`label_matrix` accepts. Macro averages classes unweighted; weighted
    averages by support (classes with zero support are excluded); micro uses
    global counts.
    """
    if len(predicted) != len(gold):
        raise DataError(f"precision_recall_f1: {len(predicted)} predictions vs {len(gold)} golds")
    p, g = label_matrix(predicted, n_classes), label_matrix(gold, n_classes)
    tp, fp, fn = (p & g).sum(axis=0), (p & ~g).sum(axis=0), (~p & g).sum(axis=0)

    per_class = _prf(tp, fp, fn)
    support = tp + fn
    macro = tuple(float(np.mean(values)) for values in per_class)
    micro = tuple(float(values) for values in _prf(tp.sum(), fp.sum(), fn.sum()))
    weighted = (0.0, 0.0, 0.0)
    if support.sum() > 0:
        weights = support / support.sum()
        weighted = tuple(float(np.sum(weights * values)) for values in per_class)
    rows = list(zip(*(values.tolist() for values in per_class), support.tolist()))
    return PRFResult(rows, macro, micro, weighted)


def macro_f1(predicted, gold, n_classes: int) -> float:
    return precision_recall_f1(predicted, gold, n_classes).macro[2]


def accuracy(predicted, gold) -> float:
    """Fraction of exactly matching single-class predictions."""
    if len(predicted) == 0:
        raise DataError("accuracy: no examples")
    if len(predicted) != len(gold):
        raise DataError(f"accuracy: {len(predicted)} predictions vs {len(gold)} golds")
    return float(np.mean(np.asarray(predicted) == np.asarray(gold)))


def decide(probabilities, mode: str, threshold: float | None = None) -> np.ndarray:
    """The decision rule, as a bool ``(n, n_classes)`` matrix.

    Multi-class: each row's argmax, ties to the lowest class index.
    Multi-label: every class whose probability reaches ``threshold``.
    """
    probs = np.asarray(probabilities)
    if mode == "multi_class":
        return np.eye(probs.shape[1], dtype=bool)[probs.argmax(axis=1)]
    if threshold is None:
        raise DataError("multi_label prediction requires a threshold")
    return probs >= threshold


def select_threshold(probabilities: np.ndarray, gold) -> float:
    """Grid-search {0.01..0.99} for the threshold maximizing macro-F1.

    A class is accepted when its probability reaches the candidate threshold;
    ties between thresholds break toward the smaller one.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise DataError(f"select_threshold: need a non-empty (n, classes) matrix, got {probs.shape}")
    if len(gold) != probs.shape[0]:
        raise DataError("select_threshold: row count does not match gold count")
    n_classes = probs.shape[1]
    targets = label_matrix(gold, n_classes)
    return max(THRESHOLD_GRID, key=lambda t: macro_f1(decide(probs, "multi_label", t), targets, n_classes))


def per_label_auc(probabilities: np.ndarray, gold, n_classes: int) -> list[float | None]:
    """One-vs-rest AUC of each label's probability column; None where AUC is undefined."""
    probs = np.asarray(probabilities, dtype=np.float64)
    targets = label_matrix(gold, n_classes)
    aucs: list[float | None] = []
    for c in range(n_classes):
        try:
            aucs.append(roc_auc(probs[:, c], targets[:, c]))
        except DataError:
            aucs.append(None)
    return aucs


def macro_auc(probabilities: np.ndarray, gold, n_classes: int) -> float:
    """Unweighted mean of per-label AUCs over the labels where AUC is defined.

    Falls back to 0.5 if no label has both a positive and a negative example.
    """
    defined = [a for a in per_label_auc(probabilities, gold, n_classes) if a is not None]
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
    predicted, gold = label_matrix(predicted, n_classes), label_matrix(gold, n_classes)
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
        report.accuracy = accuracy(predicted.argmax(axis=1), gold.argmax(axis=1))

    for c, name in enumerate(label_names):
        p, r, f1, support = prf.per_class[c]
        row = {"label": name, "precision": p, "recall": r, "f1": f1, "support": support}
        if aucs[c] is not None:
            row["auc"] = aucs[c]
        report.per_class.append(row)
    return report
