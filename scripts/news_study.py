"""Desk-scale news classification study: dual-channel vs descriptor-ablated.

With --train-csv/--test-csv pointing at AG News in this package's text,label
schema (labels World,Sports,Business,Sci/Tech), runs the 8k/2k subset
protocol: random-initialized 64-d embeddings, 64 GRU units, chi-square
descriptors with n=100. Without those flags it generates a news-like
synthetic corpus of the same shape. Prints the top descriptor words per class
and the test accuracy of the dual-channel model against the same model with
the descriptor channel zeroed out.

    python3 scripts/news_study.py --seeds 3
    python3 scripts/news_study.py --train-csv ag_train.csv --test-csv ag_test.csv
"""

import argparse
import sys
import time

import numpy as np

from descnet.corpus import LabelSpace, build_vocabulary, load_dataset
from descnet.descriptors import extract_descriptors
from descnet.model import DualChannelModel, ModelConfig, encode_examples, predict_probabilities, train
from descnet.synth import news_like_corpus, to_documents


def accuracy_of(model, examples):
    probs = predict_probabilities(model, examples)
    gold = np.stack([ex.target for ex in examples]).argmax(axis=1)
    return float((probs.argmax(axis=1) == gold).mean())


def run(train_docs, test_docs, labels, seed, ablate, overrides):
    config = ModelConfig(
        mode="multi_class", d_embed=64, gru_units=64, dropout_rate=0.5,
        descriptor_test="chi2", descriptor_dimension=100,
        learning_rate=1e-3, batch_size=32, seed=seed, **overrides,
    )
    vocab = build_vocabulary(train_docs, config.vocabulary_max)
    descriptors = extract_descriptors(train_docs, vocab, labels, "chi2", 100)
    train_examples = encode_examples(train_docs, vocab, descriptors, labels, config)
    test_examples = encode_examples(test_docs, vocab, descriptors, labels, config)
    if ablate:
        for ex in train_examples + test_examples:
            ex.descriptor_ids[:] = 0
    n_val = min(500, len(train_examples) // 5)
    model = DualChannelModel(config, len(vocab), len(labels))
    train(model, train_examples[:-n_val], train_examples[-n_val:])
    return accuracy_of(model, test_examples), descriptors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-csv", default="")
    parser.add_argument("--test-csv", default="")
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args(argv)

    if args.train_csv and args.test_csv:
        labels = LabelSpace(("World", "Sports", "Business", "Sci/Tech"), "multi_class")
        train_docs = load_dataset(args.train_csv, "csv", labels)
        test_docs = load_dataset(args.test_csv, "csv", labels)
        rng = np.random.default_rng(0)
        train_docs = [train_docs[i] for i in rng.permutation(len(train_docs))[:8000]]
        test_docs = [test_docs[i] for i in rng.permutation(len(test_docs))[:2000]]
        overrides = dict(text_length=80, descriptor_length=40, max_epochs=8, patience=2)
        print(f"AG News subset: {len(train_docs)} train / {len(test_docs)} test")
    else:
        rows, names = news_like_corpus(2500, topical_fraction=0.12, seed=7)
        labels = LabelSpace(tuple(names), "multi_class")
        docs = to_documents(rows, labels)
        train_docs, test_docs = docs[:2000], docs[2000:]
        overrides = dict(text_length=40, descriptor_length=24, max_epochs=2, patience=2)
        print("synthetic news-like corpus: 2000 train / 500 test (pass --train-csv/--test-csv for AG News)")

    dual, ablated = [], []
    for seed in range(args.seeds):
        start = time.time()
        acc, descriptors = run(train_docs, test_docs, labels, seed, False, overrides)
        dual.append(acc)
        if seed == 0:
            print("top descriptor words per class (chi-square, n=100):")
            for name, entries in zip(descriptors.class_names, descriptors.entries):
                print(f"  {name}: {', '.join(tok for tok, _ in entries[:10])}")
        acc_ablated, _ = run(train_docs, test_docs, labels, seed, True, overrides)
        ablated.append(acc_ablated)
        print(f"seed {seed}: dual {acc:.4f}  ablated {acc_ablated:.4f}  ({time.time() - start:.0f}s)")

    print(f"mean over {args.seeds} seeds: dual {np.mean(dual):.4f}  ablated {np.mean(ablated):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
