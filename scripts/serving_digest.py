"""One sha256 over a seeded serving run, to check that a change leaves serving byte-identical.

Builds a bundle of the benchmark's serve-short shape (a multi-label model,
d_embed 64 and 64 GRU units, trained for one epoch on 256 documents of 1-2
joined news-like docs), saves and reloads checkpoint, vocabulary and
descriptors, scores 2,048 further documents in 128-document calls (each call
runs length-sorted chunks of the model's batch size, 32), selects a threshold,
builds the evaluation report and predicts each document on its own.
It prints one digest over the checkpoint bytes, every batched score, the
report's text and JSON and every single prediction, and the largest gap
between a single prediction and its batched row. ``descnet`` is imported from
``PYTHONPATH``, so the same script digests any checkout:

    PYTHONPATH=src python3 scripts/serving_digest.py --seed 1
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/serving_digest.py --seed 1
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: BLAS summation order depends on the thread count

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from descnet import metrics
from descnet.corpus import LabelSpace, build_vocabulary, load_vocabulary, save_vocabulary
from descnet.descriptors import extract_descriptors, load_descriptors, save_descriptors
from descnet.model import (
    DualChannelModel, ModelConfig, encode_examples, load_checkpoint, predict, predict_probabilities, save_checkpoint, train,
)
from descnet.synth import joined_news_corpus, to_documents


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    n_train, n_score, call_size = 256, 2048, 128
    rows, names = joined_news_corpus(n_train + n_score, n_classes=6, seed=args.seed)
    labels = LabelSpace(tuple(names), "multi_label")
    train_docs, score_docs = to_documents(rows[:n_train], labels), to_documents(rows[n_train:], labels)
    config = ModelConfig(
        mode="multi_label", d_embed=64, gru_units=64, learning_rate=0.05, max_epochs=1, patience=0, seed=args.seed,
    )
    vocab = build_vocabulary(train_docs, config.vocabulary_max)
    descriptors = extract_descriptors(train_docs, vocab, labels, "chi2", config.descriptor_dimension)
    train_ex = encode_examples(train_docs, vocab, descriptors, labels, config)
    trained = DualChannelModel(config, len(vocab), len(labels))
    train(trained, train_ex, train_ex[:64])

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        checkpoint, vocab_path, desc_path = (Path(workdir) / name for name in ("checkpoint.bin", "vocab.tsv", "descriptors.tsv"))
        save_checkpoint(trained, checkpoint, labels.names)
        save_vocabulary(vocab, vocab_path)
        save_descriptors(descriptors, desc_path)
        digest.update(checkpoint.read_bytes())
        net = load_checkpoint(checkpoint)[0]
        vocab, descriptors = load_vocabulary(vocab_path), load_descriptors(desc_path)

    scored = []
    for start in range(0, n_score, call_size):
        examples = encode_examples(score_docs[start : start + call_size], vocab, descriptors, labels, net.config)
        scored.append(predict_probabilities(net, examples))
        digest.update(scored[-1].tobytes())
    scored = np.concatenate(scored)
    gold = [set(doc.labels) for doc in score_docs]
    threshold = metrics.select_threshold(scored, gold)
    report = metrics.build_report("multi_label", labels.names, metrics.decide(scored, "multi_label", threshold), gold, scored, threshold)
    digest.update(report.to_text().encode("utf-8"))
    digest.update(report.to_json().encode("utf-8"))

    gap = 0.0
    for k, (text, _) in enumerate(rows[n_train:]):
        picked, probs = predict(net, vocab, descriptors, text, threshold)
        digest.update(np.array(picked, dtype=np.int64).tobytes())
        digest.update(probs.tobytes())
        gap = max(gap, float(np.abs(probs - scored[k]).max()))
    print(f"seed {args.seed}: {digest.hexdigest()}  largest single-vs-batched gap {gap:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
