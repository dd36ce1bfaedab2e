"""Descriptor studies, one subcommand each; tests/test_acceptance.py imports their protocols.

news: test accuracy of the dual-channel model against the same model with the
descriptor channel zeroed out (random-initialized 64-d embeddings, 64 GRU
units, chi-square descriptors with n=100), and the top descriptor words per
class. With --train-csv/--test-csv pointing at AG News in this package's
text,label schema (labels World,Sports,Business,Sci/Tech) it runs the 8k/2k
subset protocol; without them, a news-like synthetic corpus of the same shape.

dimension: best validation accuracy against the number of descriptor words
per class on the buried-signal corpus (many weak indicators per class), one
small model per (dimension, seed) cell. More descriptors cover more of each
class's indicator pool, up to the point where the ranking admits noise.

    python3 scripts/descriptor_study.py news --seeds 3
    python3 scripts/descriptor_study.py news --train-csv ag_train.csv --test-csv ag_test.csv
    python3 scripts/descriptor_study.py dimension --dimensions 25 50 100 150 --seeds 3
"""

import argparse
import sys
import time

import numpy as np

from descnet import metrics
from descnet.corpus import LabelSpace, build_vocabulary, load_dataset
from descnet.descriptors import extract_descriptors
from descnet.model import DualChannelModel, ModelConfig, encode_examples, predict_probabilities, train
from descnet.synth import buried_signal_corpus, news_like_corpus, to_documents


def encode(fit_docs, doc_lists, labels, config):
    """Vocabulary and descriptors from ``fit_docs``, and each list of ``doc_lists`` encoded with them."""
    vocab = build_vocabulary(fit_docs, config.vocabulary_max)
    descriptors = extract_descriptors(fit_docs, vocab, labels, config.descriptor_test, config.descriptor_dimension)
    return vocab, descriptors, [encode_examples(docs, vocab, descriptors, labels, config) for docs in doc_lists]


def news_task(train_csv="", test_csv=""):
    """(name, train docs, test docs, labels, config overrides): AG News 8k/2k when both CSVs are given."""
    if train_csv and test_csv:
        labels = LabelSpace(("World", "Sports", "Business", "Sci/Tech"), "multi_class")
        train_docs = load_dataset(train_csv, "csv", labels)
        test_docs = load_dataset(test_csv, "csv", labels)
        rng = np.random.default_rng(0)
        train_docs = [train_docs[i] for i in rng.permutation(len(train_docs))[:8000]]
        test_docs = [test_docs[i] for i in rng.permutation(len(test_docs))[:2000]]
        overrides = dict(text_length=80, descriptor_length=40, max_epochs=8, patience=2)
        return f"AG News subset: {len(train_docs)} train / {len(test_docs)} test", train_docs, test_docs, labels, overrides
    rows, names = news_like_corpus(2500, topical_fraction=0.12, seed=7)
    labels = LabelSpace(tuple(names), "multi_class")
    docs = to_documents(rows, labels)
    overrides = dict(text_length=40, descriptor_length=24, max_epochs=2, patience=2)
    return "news-like synthetic corpus: 2000 train / 500 test", docs[:2000], docs[2000:], labels, overrides


def news_run(task, seed, ablate):
    """Test accuracy and descriptors of one seed; ``ablate`` zeroes the descriptor channel."""
    _, train_docs, test_docs, labels, overrides = task
    config = ModelConfig(
        mode="multi_class", d_embed=64, gru_units=64, dropout_rate=0.5,
        descriptor_test="chi2", descriptor_dimension=100,
        learning_rate=1e-3, batch_size=32, seed=seed, **overrides,
    )
    cut = len(train_docs) - min(500, len(train_docs) // 5)
    fit_docs, val_docs = train_docs[:cut], train_docs[cut:]
    vocab, descriptors, (fit_examples, val_examples, test_examples) = encode(
        fit_docs, [fit_docs, val_docs, test_docs], labels, config
    )
    if ablate:
        for examples in (fit_examples, val_examples, test_examples):
            examples.descriptor_ids[:] = 0
    model = DualChannelModel(config, len(vocab), len(labels))
    train(model, fit_examples, val_examples)
    gold = test_examples.target.argmax(axis=1)
    return metrics.accuracy(predict_probabilities(model, test_examples).argmax(axis=1), gold), descriptors


def dimension_task(n_train=1000, n_val=300):
    """(train docs, validation docs, labels) of the buried-signal corpus."""
    rows, names = buried_signal_corpus(
        n_train + n_val, indicators_per_class=120, doc_len=36, indicators_per_doc=4, n_noise=300, seed=11,
    )
    labels = LabelSpace(tuple(names), "multi_class")
    docs = to_documents(rows, labels)
    return docs[:n_train], docs[n_train:], labels


def dimension_run(task, n_desc, seed, epochs=2):
    """Best validation accuracy of one (dimension, seed) cell."""
    train_docs, val_docs, labels = task
    config = ModelConfig(
        mode="multi_class", d_embed=16, gru_units=8, dropout_rate=0.3,
        descriptor_dimension=n_desc, text_length=36, descriptor_length=10,
        learning_rate=3e-3, batch_size=32, max_epochs=epochs, patience=epochs, seed=seed,
    )
    vocab, _, (train_examples, val_examples) = encode(train_docs, [train_docs, val_docs], labels, config)
    model = DualChannelModel(config, len(vocab), len(labels))
    return max(stats.val_metric for stats in train(model, train_examples, val_examples))


def study_news(args) -> None:
    task = news_task(args.train_csv, args.test_csv)
    print(task[0])
    dual, ablated = [], []
    for seed in range(args.seeds):
        start = time.time()
        acc, descriptors = news_run(task, seed, False)
        dual.append(acc)
        if seed == 0:
            print("top descriptor words per class (chi-square, n=100):")
            for name, entries in zip(descriptors.class_names, descriptors.entries):
                print(f"  {name}: {', '.join(tok for tok, _ in entries[:10])}")
        ablated.append(news_run(task, seed, True)[0])
        print(f"seed {seed}: dual {acc:.4f}  ablated {ablated[-1]:.4f}  ({time.time() - start:.0f}s)")
    print(f"mean over {args.seeds} seeds: dual {np.mean(dual):.4f}  ablated {np.mean(ablated):.4f}")


def study_dimension(args) -> None:
    task = dimension_task(args.n_train, args.n_val)
    print(f"{'n':>5}  {'mean val acc':>12}  per-seed")
    for n_desc in args.dimensions:
        start = time.time()
        values = [dimension_run(task, n_desc, seed, args.epochs) for seed in range(args.seeds)]
        print(f"{n_desc:>5}  {np.mean(values):>12.4f}  {[round(v, 3) for v in values]}  ({time.time() - start:.0f}s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    studies = parser.add_subparsers(dest="study", required=True)
    news = studies.add_parser("news", help="dual-channel vs descriptor-ablated test accuracy")
    news.add_argument("--train-csv", default="")
    news.add_argument("--test-csv", default="")
    news.add_argument("--seeds", type=int, default=3)
    dimension = studies.add_parser("dimension", help="validation accuracy against descriptor words per class")
    dimension.add_argument("--dimensions", type=int, nargs="+", default=[25, 50, 100, 150])
    dimension.add_argument("--seeds", type=int, default=3)
    dimension.add_argument("--n-train", type=int, default=1000)
    dimension.add_argument("--n-val", type=int, default=300)
    dimension.add_argument("--epochs", type=int, default=2)
    args = parser.parse_args(argv)
    (study_news if args.study == "news" else study_dimension)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
