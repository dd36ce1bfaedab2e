"""Synthetic corpus generators for experiments and the acceptance suite.

Each generator returns (rows, label_names) where rows are (text, label_cell)
pairs in the dataset CSV convention (multi-label cells joined by '|').
"""

from __future__ import annotations

import numpy as np

from .corpus import Document, LabelSpace, make_document, parse_label_cell


def marker_corpus(
    n_docs: int,
    n_classes: int = 3,
    n_noise: int = 50,
    doc_len: int = 8,
    seed: int = 0,
) -> tuple[list[tuple[str, str]], list[str]]:
    """One perfectly class-identifying marker token per class, plus noise.

    Every document contains its class marker exactly once; the remaining
    positions are uniform draws from a shared noise pool.
    """
    rng = np.random.default_rng(seed)
    labels = [f"class{chr(ord('a') + j)}" for j in range(n_classes)]
    markers = [f"marker{chr(ord('a') + j)}" for j in range(n_classes)]
    noise = [f"noise{i:03d}" for i in range(n_noise)]
    rows = []
    for i in range(n_docs):
        j = i % n_classes
        words = [markers[j]] + [noise[k] for k in rng.integers(0, n_noise, size=doc_len - 1)]
        rng.shuffle(words)
        rows.append((" ".join(words), labels[j]))
    return rows, labels


def buried_signal_corpus(
    n_docs: int,
    n_classes: int = 4,
    indicators_per_class: int = 100,
    n_noise: int = 300,
    doc_len: int = 30,
    indicators_per_doc: int = 4,
    seed: int = 0,
) -> tuple[list[tuple[str, str]], list[str]]:
    """Many weak per-class indicator tokens buried in heavy shared noise.

    Each document carries a few indicators drawn from its class's pool of
    ``indicators_per_class`` tokens, so a descriptor channel that covers more
    of the pool sees more of the signal.
    """
    rng = np.random.default_rng(seed)
    labels = [f"topic{j}" for j in range(n_classes)]
    pools = [[f"ind{j}w{i:03d}" for i in range(indicators_per_class)] for j in range(n_classes)]
    noise = [f"filler{i:03d}" for i in range(n_noise)]
    rows = []
    for i in range(n_docs):
        j = i % n_classes
        picks = rng.choice(indicators_per_class, size=indicators_per_doc, replace=False)
        words = [pools[j][k] for k in picks]
        words += [noise[k] for k in rng.integers(0, n_noise, size=doc_len - indicators_per_doc)]
        rng.shuffle(words)
        rows.append((" ".join(words), labels[j]))
    return rows, labels


def news_like_corpus(
    n_docs: int,
    n_classes: int = 4,
    topical_per_class: int = 150,
    n_shared: int = 300,
    topical_fraction: float = 0.35,
    min_len: int = 15,
    max_len: int = 40,
    seed: int = 0,
) -> tuple[list[tuple[str, str]], list[str]]:
    """Four-topic corpus in the shape of a news headline dataset.

    Documents mix Zipf-weighted topical words of their class with a shared
    background vocabulary, so classes are learnable but not trivially
    separable from a single token.
    """
    rng = np.random.default_rng(seed)
    labels = [f"desk{j}" for j in range(n_classes)]
    topical = [[f"t{j}w{i:03d}" for i in range(topical_per_class)] for j in range(n_classes)]
    shared = [f"common{i:03d}" for i in range(n_shared)]

    def zipf_weights(size):
        w = 1.0 / np.arange(1, size + 1)
        return w / w.sum()

    topical_w = zipf_weights(topical_per_class)
    shared_w = zipf_weights(n_shared)
    rows = []
    for i in range(n_docs):
        j = i % n_classes
        length = int(rng.integers(min_len, max_len + 1))
        n_topical = max(1, int(round(length * topical_fraction)))
        words = [topical[j][k] for k in rng.choice(topical_per_class, size=n_topical, p=topical_w)]
        words += [shared[k] for k in rng.choice(n_shared, size=length - n_topical, p=shared_w)]
        rng.shuffle(words)
        rows.append((" ".join(words), labels[j]))
    return rows, labels


def to_documents(rows: list[tuple[str, str]], label_space: LabelSpace) -> list[Document]:
    return [make_document(i, text, parse_label_cell(cell, label_space.mode), label_space) for i, (text, cell) in enumerate(rows)]


def write_csv(rows: list[tuple[str, str]], path) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        writer.writerows(rows)
