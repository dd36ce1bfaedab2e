"""One sha256 over a seeded training run, to check that a change leaves training byte-identical.

Trains the dual-channel model for one epoch on the news-like corpus of the
benchmark's train-news workload (2,016 train / 500 validation / 1,000 held-out
documents; text_length 40, d_embed 64, 64 GRU units, batch 32, 100 chi-square
descriptors) and prints one digest over the batch losses, every parameter in
``parameters()`` order and the held-out probabilities. The batches are the
ones ``model.train`` draws: length-bucketed chunks of 32 (see
``model.bucketed_batches``) in a seeded random order, so a change to the
sampler changes the digest. Each seed's line ends with the run's held-out
accuracy, so one call over many seeds gives the accuracy spread a change to
training is judged against. ``descnet`` is imported from ``PYTHONPATH``, so
the same script digests any checkout:

    PYTHONPATH=src python3 scripts/identity_digest.py --seed 1
    PYTHONPATH=src python3 scripts/identity_digest.py --seed $(seq 1 16)
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/identity_digest.py --seed 1
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: BLAS summation order depends on the thread count

import argparse
import hashlib
import sys

import numpy as np

from descnet import metrics
from descnet.corpus import LabelSpace, build_vocabulary
from descnet.descriptors import extract_descriptors
from descnet.model import DualChannelModel, ModelConfig, encode_examples, predict_probabilities, train
from descnet.synth import news_like_corpus, to_documents


def digest_run(seed: int) -> tuple[str, float]:
    """The run's sha256 and its held-out accuracy."""
    n_train, n_val, n_heldout = 2016, 500, 1000
    rows, names = news_like_corpus(n_train + n_val + n_heldout, topical_fraction=0.05, seed=seed)
    labels = LabelSpace(tuple(names), "multi_class")
    docs = to_documents(rows, labels)
    splits = docs[:n_train], docs[n_train : n_train + n_val], docs[n_train + n_val :]
    config = ModelConfig(
        d_embed=64, gru_units=64, text_length=40, batch_size=32, descriptor_dimension=100,
        max_epochs=1, patience=0, seed=seed,
    )
    vocab = build_vocabulary(splits[0], config.vocabulary_max)
    descriptors = extract_descriptors(splits[0], vocab, labels, "chi2", config.descriptor_dimension)
    train_ex, val_ex, heldout_ex = (encode_examples(d, vocab, descriptors, labels, config) for d in splits)
    model = DualChannelModel(config, len(vocab), len(labels))
    history = train(model, train_ex, val_ex)

    digest = hashlib.sha256()
    digest.update(np.array([loss for stats in history for loss in stats.batch_losses], dtype=np.float64).tobytes())
    for p in model.parameters():
        digest.update(p.data.tobytes())
    probs = predict_probabilities(model, heldout_ex)
    digest.update(probs.tobytes())
    return digest.hexdigest(), metrics.accuracy(probs.argmax(axis=1), heldout_ex.target.argmax(axis=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    for seed in args.seed:
        digest, accuracy = digest_run(seed)
        print(f"seed {seed}: {digest}  held-out accuracy {accuracy:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
