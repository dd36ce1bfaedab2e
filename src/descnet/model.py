"""Dual-channel model assembly, training loop, prediction, checkpointing.

Text channel: embed -> BiGRU -> [max-pool ; avg-pool]. Descriptor channel:
embed -> BiGRU -> attention context. The three vectors concatenate into a
dense head: softmax for multi-class, sigmoid for multi-label.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import metrics, nn
from . import numerics as nm
from .corpus import MODES, PAD_ID, Document, EncodedExamples, LabelSpace, Vocabulary, encode, preprocess_text
from .descriptors import TESTS, ClassDescriptorSet, build_descriptor_channel_input
from .errors import ArtifactError, DataError
from .numerics import NonFiniteError, Parameter, Tape, Tensor

CHECKPOINT_MAGIC = b"DCNC"
CHECKPOINT_VERSION = 1
# Settings that older checkpoint headers still carry; they no longer select anything.
LEGACY_CONFIG_KEYS = ("optimizer", "share_embedding", "recurrent_dropout_rate")


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# A config field's annotation: the type its value must have, that type in words, and how a config string parses
# (a string that does not parse raises KeyError or ValueError).
CONFIG_KINDS = {
    "int": (numbers.Integral, "an integer", int),
    "float": (numbers.Real, "a number", float),
    "bool": (bool, "true or false", lambda raw: _BOOLS[raw.strip().lower()]),
    "str": (str, "a string", str),
    "str | None": ((str, type(None)), "a string or None", str),
}


@dataclass
class ModelConfig:
    """Hyperparameters for the dual-channel classifier."""

    mode: str = "multi_class"
    d_embed: int = 300
    gru_units: int = 128
    dropout_rate: float = 0.5
    descriptor_test: str = "chi2"
    descriptor_dimension: int = 100
    text_length: int = 80
    descriptor_length: int = 0  # 0 means: use text_length
    vocabulary_max: int = 130_000
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, noun, _ = CONFIG_KINDS[f.type]
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise DataError(f"{f.name} must be {noun}, got {value!r}")
        if self.mode not in MODES:
            raise DataError(f"unknown mode {self.mode!r}")
        if self.descriptor_test not in TESTS:
            raise DataError(f"unknown descriptor test {self.descriptor_test!r}")
        for name in ("d_embed", "gru_units", "descriptor_dimension", "text_length", "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        if self.vocabulary_max < 3:
            raise DataError("vocabulary_max must be >= 3")
        if min(self.descriptor_length, self.patience, self.seed) < 0:
            raise DataError("descriptor_length, patience and seed must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise DataError("dropout_rate must be in [0, 1)")
        if not 0.0 < self.learning_rate < np.inf:
            raise DataError(f"learning_rate must be positive and finite, got {self.learning_rate}")

    @property
    def resolved_descriptor_length(self) -> int:
        return self.descriptor_length if self.descriptor_length else self.text_length


def valid_lengths(ids: np.ndarray) -> np.ndarray:
    """Non-padding ids per row of a ``(rows, width)`` id matrix: the length of each row's valid prefix."""
    return (ids != PAD_ID).sum(axis=1)


def trim_length(lengths: np.ndarray) -> int:
    """Steps a batch with these valid lengths needs: its longest sequence, and at least one."""
    return max(1, int(np.max(lengths, initial=0)))


def bucketed_batches(lengths: np.ndarray, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch's batches of row indices, in the order training visits them.

    A random permutation, stably sorted by ``lengths`` (so equal lengths keep
    their random order), is cut into consecutive chunks of ``batch_size``
    (the last may be shorter), and the chunks are visited in a second random
    order. Each batch then holds documents of similar length and the trim cuts
    it close to its own width (sequence bucketing, Khomenko et al. 2017).
    """
    order = rng.permutation(len(lengths))
    order = order[np.argsort(lengths[order], kind="stable")]
    chunks = [order[start : start + batch_size] for start in range(0, len(order), batch_size)]
    return [chunks[k] for k in rng.permutation(len(chunks))]


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_metric: float
    batch_losses: list[float] = field(default_factory=list, repr=False)


class DualChannelModel:
    """The assembled two-channel network."""

    def __init__(self, config: ModelConfig, vocab_size: int, n_classes: int, dtype=np.float32):
        self.config = config
        self.vocab_size = vocab_size
        self.n_classes = n_classes
        self.dtype = dtype
        self.history: list[EpochStats] = []
        rng = np.random.default_rng([config.seed, 0])

        # one table feeds both channels
        self.embedding = nn.EmbeddingLayer(vocab_size, config.d_embed, rng, dtype, name="embedding")
        g = config.gru_units
        self.text_fwd = nn.GRUCell(config.d_embed, g, rng, dtype, name="text_fwd")
        self.text_bwd = nn.GRUCell(config.d_embed, g, rng, dtype, name="text_bwd")
        self.desc_fwd = nn.GRUCell(config.d_embed, g, rng, dtype, name="desc_fwd")
        self.desc_bwd = nn.GRUCell(config.d_embed, g, rng, dtype, name="desc_bwd")
        self.attention = nn.AttentionLayer(2 * g, 2 * g, rng, dtype, name="attention")
        head_activation = "softmax" if config.mode == "multi_class" else "sigmoid"
        # max-pool + avg-pool (2*2g) plus the attention context (2g)
        self.head = nn.DenseLayer(6 * g, n_classes, head_activation, rng, dtype, name="head")

    def parameters(self) -> list[Parameter]:
        layers = [self.embedding, self.text_fwd, self.text_bwd, self.desc_fwd, self.desc_bwd, self.attention, self.head]
        params: list[Parameter] = []
        for layer in layers:
            params.extend(layer.parameters())
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def _recurrent_masks(self, batch: int, training: bool, rng) -> list[np.ndarray | None]:
        """The text and the descriptor BiGRU's (2, batch, gru_units) recurrent dropout masks."""
        rate = self.config.dropout_rate
        if not training or rate == 0.0:
            return [None, None]
        return [nn.dropout_mask(rng, (2, batch, self.config.gru_units), rate, self.dtype) for _ in range(2)]

    def _embed(self, ids: np.ndarray, lengths: np.ndarray, training: bool, rng) -> Tensor:
        """Embedded first ``trim_length(lengths)`` columns of ``ids``, after dropout."""
        embedded = self.embedding.forward(ids[:, : trim_length(lengths)])
        return nn.dropout(embedded, self.config.dropout_rate, training, rng)

    def forward(self, text_ids: np.ndarray, desc_ids: np.ndarray, training: bool = False, rng=None) -> Tensor:
        """Per-class probabilities, shape (batch, n_classes).

        Each channel is cut to the batch's longest valid sequence before it is
        embedded, so the BiGRUs do not step over columns that are padding in
        every row, and embedding dropout is drawn at that cut. The output, in
        training as in inference, does not depend on the padding width.
        """
        text_lengths = valid_lengths(text_ids)
        desc_lengths = valid_lengths(desc_ids)
        masks = self._recurrent_masks(text_ids.shape[0], training, rng)
        emb_text = self._embed(text_ids, text_lengths, training, rng)
        emb_desc = self._embed(desc_ids, desc_lengths, training, rng)
        return self._from_embedded(emb_text, text_lengths, emb_desc, desc_lengths, masks, training, rng)

    def _from_embedded(self, emb_text, text_lengths, emb_desc, desc_lengths, masks, training: bool, rng) -> Tensor:
        """The network after the embedding: both BiGRUs, the pools, attention, feature dropout and the head."""
        hidden_text = nn.bigru_forward(self.text_fwd, self.text_bwd, emb_text, text_lengths, masks[0])
        pooled_max = nn.max_pool_time(hidden_text, text_lengths)
        pooled_avg = nn.avg_pool_time(hidden_text, text_lengths)

        hidden_desc = nn.bigru_forward(self.desc_fwd, self.desc_bwd, emb_desc, desc_lengths, masks[1])
        context, _ = nn.attention_forward(self.attention, hidden_desc, desc_lengths)

        features = nm.concat([pooled_max, pooled_avg, context], axis=1)
        features = nn.dropout(features, self.config.dropout_rate, training, rng)
        return self.head.forward(features)

    def loss(self, probs: Tensor, targets: np.ndarray) -> Tensor:
        if self.config.mode == "multi_class":
            return nn.categorical_cross_entropy(probs, targets)
        return nn.binary_cross_entropy(probs, targets)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self.parameters()}

    def restore(self, state: dict[str, np.ndarray]) -> None:
        for p in self.parameters():
            p.data[...] = state[p.name]


def encode_examples(
    docs: list[Document],
    vocab: Vocabulary,
    descriptors: ClassDescriptorSet,
    label_space: LabelSpace,
    config: ModelConfig,
) -> EncodedExamples:
    """Both channels' ids and the target rows of ``docs``, as one aligned set."""
    targets = metrics.label_matrix([doc.labels for doc in docs], len(label_space)).astype(np.float32)
    return _encode_set([doc.tokens for doc in docs], vocab, descriptors, config, targets)


def _encode_set(token_lists: list[list[str]], vocab, descriptors, config: ModelConfig, targets) -> EncodedExamples:
    """Each channel is ``min(its configured length, the longest document)`` columns wide, and at least one:
    the configured lengths only truncate, and no column is padding in every row."""
    longest = max(1, max(map(len, token_lists), default=0))
    text = np.zeros((len(token_lists), min(config.text_length, longest)), dtype=np.int64)
    desc = np.zeros((len(token_lists), min(config.resolved_descriptor_length, longest)), dtype=np.int64)
    for row, tokens in enumerate(token_lists):
        text[row] = encode(tokens, vocab, text.shape[1])
        desc[row] = build_descriptor_channel_input(tokens, descriptors, vocab, desc.shape[1])
    return EncodedExamples(text, desc, targets)


def predict_probabilities(model: DualChannelModel, examples: EncodedExamples) -> np.ndarray:
    """Inference-mode probabilities, shape ``(len(examples), n_classes)``, rows in input order.

    Scores the examples, stably sorted by valid text length, in consecutive
    chunks of ``config.batch_size``: each chunk's forward trims to lengths close
    to its own instead of stepping every row to the longest document. A row can
    differ in the last bits from the same document's row in another batch,
    because BLAS picks its kernels by the product's shape.
    """
    order = np.argsort(valid_lengths(examples.text_ids), kind="stable")
    probs = np.empty((len(order), model.n_classes), dtype=model.dtype)
    for start in range(0, len(order), model.config.batch_size):
        idx = order[start : start + model.config.batch_size]
        probs[idx] = model.forward(examples.text_ids[idx], examples.descriptor_ids[idx], training=False).data
    return probs


def _validation_metric(model: DualChannelModel, examples: EncodedExamples) -> float:
    probs = predict_probabilities(model, examples)
    if model.config.mode == "multi_class":
        return metrics.accuracy(probs.argmax(axis=1), examples.target.argmax(axis=1))
    return metrics.macro_auc(probs, examples.target, model.n_classes)


def train(
    model: DualChannelModel,
    train_examples: EncodedExamples,
    val_examples: EncodedExamples,
) -> list[EpochStats]:
    """Mini-batch training with early stopping on the validation metric.

    Each epoch draws its batches with :func:`bucketed_batches`: documents of
    similar valid text length share a batch, so the per-batch trim steps the
    BiGRUs over little padding, and both the batches' makeup and their order
    change from epoch to epoch. Keeps the best-validation parameters; stops
    after ``patience`` epochs without improvement (patience 0 runs exactly one
    epoch) or at max_epochs. Descriptors and vocabulary must come from the
    training split only.
    """
    cfg = model.config
    rng = np.random.default_rng([cfg.seed, 1])
    lengths = valid_lengths(train_examples.text_ids)
    params = model.parameters()
    # Adam's first and second moments, allocated here: filled inside the first step, they land among
    # that step's temporaries, and train-news steps measured 2-5% slower.
    moments = {p.name: (np.zeros_like(p.data), np.zeros_like(p.data)) for p in params}

    # Epoch 1 always sets best_state: the validation metric is finite and beats -inf.
    best_metric, best_state = -np.inf, None
    epochs_without_improvement = 0
    step = 0
    model.history = []

    for epoch in range(1, cfg.max_epochs + 1):
        batch_losses: list[float] = []
        for k, idx in enumerate(bucketed_batches(lengths, cfg.batch_size, rng)):
            batch = train_examples[idx]
            model.zero_grad()
            with Tape() as tape:
                probs = model.forward(batch.text_ids, batch.descriptor_ids, training=True, rng=rng)
                loss = model.loss(probs, batch.target)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise NonFiniteError(f"non-finite loss at epoch {epoch}, batch {k}")
            nm.backward(loss, tape)
            step += 1
            nm.adam_step(params, moments, cfg.learning_rate, step)
            batch_losses.append(loss_value)

        val_metric = _validation_metric(model, val_examples)
        stats = EpochStats(epoch, float(np.mean(batch_losses)), val_metric, batch_losses)
        model.history.append(stats)

        if val_metric > best_metric:
            best_metric = val_metric
            best_state = model.snapshot()
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
        if epochs_without_improvement >= cfg.patience:
            break

    model.restore(best_state)
    return model.history


def predict_texts(
    model: DualChannelModel,
    vocab: Vocabulary,
    descriptors: ClassDescriptorSet,
    texts: list[str],
    threshold: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decisions (bool) and probabilities, both ``(len(texts), n_classes)``; multi-label needs ``threshold``."""
    no_targets = np.zeros((len(texts), model.n_classes), dtype=np.float32)
    examples = _encode_set([preprocess_text(text) for text in texts], vocab, descriptors, model.config, no_targets)
    probs = predict_probabilities(model, examples)
    return metrics.decide(probs, model.config.mode, threshold), probs


def predict(
    model: DualChannelModel,
    vocab: Vocabulary,
    descriptors: ClassDescriptorSet,
    text: str,
    threshold: float | None = None,
) -> tuple[list[int], np.ndarray]:
    """Label indices, picked by :func:`metrics.decide`, plus the per-class probability row for one raw text."""
    picked, probs = predict_texts(model, vocab, descriptors, [text], threshold)
    return np.flatnonzero(picked[0]).tolist(), probs[0]


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class CheckpointMeta:
    label_names: list[str]
    vocab_sha256: str
    descriptor_sha256: str
    epoch: int
    val_metric: float


def save_checkpoint(
    model: DualChannelModel,
    path,
    label_names,
    vocab_sha256: str = "",
    descriptor_sha256: str = "",
    epoch: int = 0,
    val_metric: float = 0.0,
) -> None:
    """Self-describing binary: magic, version, JSON header, f32 LE parameters."""
    header = {
        "config": asdict(model.config),
        "vocab_size": model.vocab_size,
        "n_classes": model.n_classes,
        "label_names": list(label_names),
        "vocab_sha256": vocab_sha256,
        "descriptor_sha256": descriptor_sha256,
        "epoch": epoch,
        "val_metric": val_metric,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    params = model.parameters()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(params)))
        for p in params:
            name_bytes = p.name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<I", p.data.ndim))
            fh.write(struct.pack(f"<{p.data.ndim}Q", *p.data.shape))
            fh.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[DualChannelModel, CheckpointMeta]:
    """Rebuild the model from a checkpoint; forward outputs match bit-exactly."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n: int) -> bytes:
            """The next ``n`` bytes; a length past the file size fails before anything is allocated."""
            data = fh.read(n) if n <= size else b""
            if len(data) != n:
                raise ArtifactError(f"{path}: truncated checkpoint file")
            return data

        if take(4) != CHECKPOINT_MAGIC:
            raise ArtifactError(f"{path}: not a descnet checkpoint")
        (version,) = struct.unpack("<I", take(4))
        if version != CHECKPOINT_VERSION:
            raise ArtifactError(f"{path}: unsupported checkpoint version {version}")
        (header_len,) = struct.unpack("<Q", take(8))
        try:
            header = json.loads(take(header_len).decode("utf-8"))
            config = ModelConfig(**{k: v for k, v in dict(header["config"]).items() if k not in LEGACY_CONFIG_KEYS})
            for key in ("vocab_size", "n_classes", "epoch"):
                if type(header[key]) is not int:  # a JSON integer; bool is an int subclass
                    raise ValueError(f"{key} must be an integer, got {header[key]!r}")
            if type(header["val_metric"]) not in (int, float) or not np.isfinite(header["val_metric"]):
                raise ValueError(f"val_metric must be a finite number, got {header['val_metric']!r}")
            vocab_size, n_classes = header["vocab_size"], header["n_classes"]
            meta = CheckpointMeta(
                label_names=header["label_names"],
                vocab_sha256=header["vocab_sha256"],
                descriptor_sha256=header["descriptor_sha256"],
                epoch=header["epoch"],
                val_metric=float(header["val_metric"]),
            )
            names = meta.label_names
            if not (isinstance(names, list) and all(isinstance(n, str) for n in names) and len(set(names)) == len(names)):
                raise ValueError(f"label_names must be a list of distinct strings, got {names!r}")
            if not (isinstance(meta.vocab_sha256, str) and isinstance(meta.descriptor_sha256, str)):
                raise ValueError("vocab_sha256 and descriptor_sha256 must be strings")
            if min(vocab_size, n_classes) < 1 or len(meta.label_names) != n_classes:
                raise ValueError(f"vocab_size {vocab_size}, n_classes {n_classes}, {len(meta.label_names)} label names")
            # The embedding table, one recurrent matrix and part of the head hold at
            # least this many float32 values, so a header declaring more than the
            # file holds is corrupt.
            if 4 * (vocab_size * config.d_embed + config.gru_units * (config.gru_units + n_classes)) > size:
                raise ValueError("declares more parameters than the file holds")
            model = DualChannelModel(config, vocab_size, n_classes, dtype=np.float32)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ArtifactError(f"{path}: bad checkpoint header ({e})") from None

        by_name = {p.name: p for p in model.parameters()}
        (n_params,) = struct.unpack("<I", take(4))
        if n_params != len(by_name):
            raise ArtifactError(f"{path}: {n_params} parameter records, model expects {len(by_name)}")
        for _ in range(n_params):
            (name_len,) = struct.unpack("<I", take(4))
            name = take(name_len).decode("utf-8", errors="replace")
            param = by_name.pop(name, None)
            if param is None:
                raise ArtifactError(f"{path}: unknown or repeated parameter {name!r}")
            (ndim,) = struct.unpack("<I", take(4))
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
            if tuple(shape) != param.data.shape:
                raise ArtifactError(
                    f"{path}: parameter {name!r} has shape {tuple(shape)}, model expects {param.data.shape}"
                )
            count = int(np.prod(shape))
            values = np.frombuffer(take(4 * count), dtype="<f4")
            if not np.isfinite(values).all():
                raise ArtifactError(f"{path}: parameter {name!r} holds a non-finite value")
            param.data[...] = values.reshape(shape)
        if fh.read(1):
            raise ArtifactError(f"{path}: trailing bytes after parameter records")
    return model, meta
