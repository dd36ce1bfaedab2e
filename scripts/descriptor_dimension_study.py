"""Descriptor-dimension study: validation accuracy as a function of n.

Sweeps the number of descriptor words per class on the buried-signal corpus
(many weak indicators per class), training a small dual-channel model per
(dimension, seed) cell. More descriptors cover more of each class's indicator
pool, up to the point where the ranking starts admitting noise.

    python3 scripts/descriptor_dimension_study.py --dimensions 25 50 100 150 --seeds 3
"""

import argparse
import sys
import time

import numpy as np

from descnet.corpus import LabelSpace, build_vocabulary
from descnet.descriptors import extract_descriptors
from descnet.model import DualChannelModel, ModelConfig, encode_examples, train
from descnet.synth import buried_signal_corpus, to_documents


def run_cell(train_docs, val_docs, labels, n_desc, seed, epochs):
    config = ModelConfig(
        mode="multi_class",
        d_embed=16,
        gru_units=8,
        dropout_rate=0.3,
        descriptor_dimension=n_desc,
        text_length=36,
        descriptor_length=10,
        learning_rate=3e-3,
        batch_size=32,
        max_epochs=epochs,
        patience=epochs,
        seed=seed,
    )
    vocab = build_vocabulary(train_docs, config.vocabulary_max)
    descriptors = extract_descriptors(train_docs, vocab, labels, "chi2", n_desc)
    train_examples = encode_examples(train_docs, vocab, descriptors, labels, config)
    val_examples = encode_examples(val_docs, vocab, descriptors, labels, config)
    model = DualChannelModel(config, len(vocab), len(labels))
    history = train(model, train_examples, val_examples)
    return max(stats.val_metric for stats in history)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dimensions", type=int, nargs="+", default=[25, 50, 100, 150])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--n-train", type=int, default=1000)
    parser.add_argument("--n-val", type=int, default=300)
    parser.add_argument("--epochs", type=int, default=2)
    args = parser.parse_args(argv)

    rows, names = buried_signal_corpus(
        args.n_train + args.n_val, indicators_per_class=120, doc_len=36,
        indicators_per_doc=4, n_noise=300, seed=11,
    )
    labels = LabelSpace(tuple(names), "multi_class")
    docs = to_documents(rows, labels)
    train_docs, val_docs = docs[: args.n_train], docs[args.n_train :]

    print(f"{'n':>5}  {'mean val acc':>12}  per-seed")
    for n_desc in args.dimensions:
        start = time.time()
        values = [run_cell(train_docs, val_docs, labels, n_desc, seed, args.epochs) for seed in range(args.seeds)]
        print(f"{n_desc:>5}  {np.mean(values):>12.4f}  {[round(v, 3) for v in values]}  ({time.time() - start:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
