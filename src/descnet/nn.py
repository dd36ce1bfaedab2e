"""Neural building blocks: embeddings, GRU, pooling, attention, losses.

All layers run on the numerics tape so every gradient in the repo is
produced by the in-house reverse-mode engine and checked against finite
differences.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .corpus import PAD_ID, open_text
from .errors import DataError
from .numerics import Parameter, Tensor

_MASK_NEG = 1e30  # added negatively to scores at padded positions before max/softmax
_PROB_FLOOR = 1e-7  # probability clip for loss stability


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _valid_mask(lengths: np.ndarray, n_steps: int, dtype) -> np.ndarray:
    """(batch, n_steps) 1.0/0.0 mask of positions inside each valid prefix."""
    lengths = np.asarray(lengths)
    return (np.arange(n_steps)[None, :] < lengths[:, None]).astype(dtype)


def _padding_shield(lengths: np.ndarray, n_steps: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(batch, n_steps) scores to add, -_MASK_NEG at padded positions, and the (batch, 1) mask of non-empty rows."""
    shield = ((1.0 - _valid_mask(lengths, n_steps, dtype)) * -_MASK_NEG).astype(dtype)
    return shield, (np.asarray(lengths)[:, None] > 0).astype(dtype)


class EmbeddingLayer:
    """Token-id lookup table; the padding row stays zero and gets no gradient."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator, dtype=np.float32, name: str = "embedding"):
        table = rng.uniform(-0.05, 0.05, size=(vocab_size, dim)).astype(dtype)
        table[PAD_ID] = 0.0
        self.table = Parameter(table, name=f"{name}.table")
        self.dim = dim

    def forward(self, ids: np.ndarray) -> Tensor:
        return nm.embedding_gather(self.table, ids, padding_id=PAD_ID)

    def parameters(self) -> list[Parameter]:
        return [self.table]


def load_pretrained_embeddings(layer: EmbeddingLayer, path, token_to_id: dict[str, int]) -> int:
    """Overwrite table rows from a whitespace-separated ``token v1 v2 ... vd`` text file.

    A first line of two integers, the ``count dim`` header of word2vec/fastText
    ``.vec`` files, is skipped. Tokens absent from the file keep their random
    initialization. Returns the number of rows covered. The file dimension
    must match the layer's, and every loaded value must be finite in the
    table's precision.
    """
    covered = 0
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if lineno == 1 and len(parts) == 2 and all(p.isdecimal() for p in parts):
                if int(parts[1]) != layer.dim:
                    raise DataError(f"{path}: line 1: header declares {parts[1]}-dimensional vectors, expected {layer.dim}")
                continue
            if len(parts) < 2:
                raise DataError(f"{path}: line {lineno}: expected 'token v1 ... vd'")
            tok, values = parts[0], parts[1:]
            if len(values) != layer.dim:
                raise DataError(
                    f"{path}: line {lineno}: {len(values)}-dimensional vector, expected {layer.dim}"
                )
            idx = token_to_id.get(tok)
            if idx is None or idx == PAD_ID:
                continue
            try:
                vector = np.array([float(v) for v in values])
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric embedding value")
            if not np.all(np.abs(vector) <= np.finfo(layer.table.data.dtype).max):
                raise DataError(f"{path}: line {lineno}: embedding value is not finite in {layer.table.data.dtype}")
            layer.table.data[idx] = vector
            covered += 1
    return covered


class GRUCell:
    """Gated recurrent unit parameters: update gate z, reset gate r, candidate state.

    h_t = (1 - z) * h_prev + z * h_tilde, the convention of the original
    encoder-decoder formulation; ``nm.bigru_sequence`` runs the recurrence.
    """

    def __init__(self, input_dim: int, hidden_size: int, rng: np.random.Generator, dtype=np.float32, name: str = "gru"):
        self.hidden_size = hidden_size

        def w(gate):
            return Parameter(glorot_uniform(rng, input_dim, hidden_size, (input_dim, hidden_size), dtype), name=f"{name}.W_{gate}")

        def u(gate):
            return Parameter(glorot_uniform(rng, hidden_size, hidden_size, (hidden_size, hidden_size), dtype), name=f"{name}.U_{gate}")

        def b(gate):
            return Parameter(np.zeros(hidden_size, dtype=dtype), name=f"{name}.b_{gate}")

        self.W_z, self.U_z, self.b_z = w("z"), u("z"), b("z")
        self.W_r, self.U_r, self.b_r = w("r"), u("r"), b("r")
        self.W_h, self.U_h, self.b_h = w("h"), u("h"), b("h")

    def parameters(self) -> list[Parameter]:
        return [self.W_z, self.U_z, self.b_z, self.W_r, self.U_r, self.b_r, self.W_h, self.U_h, self.b_h]


def bigru_forward(
    forward_cell: GRUCell,
    backward_cell: GRUCell,
    embedded: Tensor,
    lengths: np.ndarray,
    recurrent_mask: np.ndarray | None = None,
) -> Tensor:
    """Run both directions over the valid prefix; concat per-timestep states.

    ``recurrent_mask`` is the (2, batch, hidden) recurrent dropout mask, the
    forward direction's first. Output shape (batch, steps, 2 * hidden);
    positions past each example's length are exactly zero.
    """
    step_mask = _valid_mask(lengths, embedded.shape[1], embedded.data.dtype)
    return nm.bigru_sequence(embedded, forward_cell.parameters(), backward_cell.parameters(), step_mask, recurrent_mask)


def max_pool_time(hidden: Tensor, lengths: np.ndarray) -> Tensor:
    """Per-feature max over valid timesteps; zero vector for empty sequences."""
    shield, nonempty = _padding_shield(lengths, hidden.shape[1], hidden.data.dtype)
    return nm.mul(nm.max_over_axis(nm.add(hidden, shield[:, :, None]), axis=1), nonempty)


def avg_pool_time(hidden: Tensor, lengths: np.ndarray) -> Tensor:
    """Per-feature mean over valid timesteps; zero vector for empty sequences."""
    dtype = hidden.data.dtype
    mask = _valid_mask(lengths, hidden.shape[1], dtype)
    summed = nm.sum_over_axis(nm.mul(hidden, mask[:, :, None]), axis=1)
    inv_len = (1.0 / np.maximum(np.asarray(lengths), 1))[:, None].astype(dtype)
    return nm.mul(summed, inv_len)


class AttentionLayer:
    """Projection + context-vector attention over a hidden sequence.

    u_i = tanh(h_i @ proj + bias); scores u_i . context are softmaxed over
    the valid timesteps and the states are averaged under those weights.
    """

    def __init__(self, input_dim: int, attention_dim: int, rng: np.random.Generator, dtype=np.float32, name: str = "attention"):
        self.proj = Parameter(
            glorot_uniform(rng, input_dim, attention_dim, (input_dim, attention_dim), dtype), name=f"{name}.proj"
        )
        self.bias = Parameter(np.zeros(attention_dim, dtype=dtype), name=f"{name}.bias")
        self.context = Parameter(
            glorot_uniform(rng, attention_dim, 1, (attention_dim,), dtype), name=f"{name}.context"
        )

    def parameters(self) -> list[Parameter]:
        return [self.proj, self.bias, self.context]


def attention_forward(layer: AttentionLayer, hidden: Tensor, lengths: np.ndarray) -> tuple[Tensor, Tensor]:
    """Weighted context vector and the attention weights themselves.

    Padded positions are excluded from the softmax; an all-padding sequence
    yields a zero context vector.
    """
    batch, n_steps = hidden.shape[0], hidden.shape[1]
    u = nm.tanh(nm.add(nm.matmul(hidden, layer.proj), layer.bias))
    scores = nm.sum_over_axis(nm.mul(u, layer.context), axis=2)
    shield, nonempty = _padding_shield(lengths, n_steps, hidden.data.dtype)
    weights = nm.softmax(nm.add(scores, shield), axis=1)
    context = nm.sum_over_axis(nm.mul(hidden, nm.reshape(weights, (batch, n_steps, 1))), axis=1)
    return nm.mul(context, nonempty), weights


class DenseLayer:
    """Affine map with a softmax or sigmoid head activation."""

    ACTIVATIONS = ("softmax", "sigmoid")

    def __init__(self, input_dim: int, output_dim: int, activation: str, rng: np.random.Generator, dtype=np.float32, name: str = "dense"):
        if activation not in self.ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation
        self.weights = Parameter(
            glorot_uniform(rng, input_dim, output_dim, (input_dim, output_dim), dtype), name=f"{name}.weights"
        )
        self.bias = Parameter(np.zeros(output_dim, dtype=dtype), name=f"{name}.bias")

    def parameters(self) -> list[Parameter]:
        return [self.weights, self.bias]

    def forward(self, x: Tensor) -> Tensor:
        logits = nm.add(nm.matmul(x, self.weights), self.bias)
        if self.activation == "softmax":
            return nm.softmax(logits, axis=-1)
        return nm.sigmoid(logits)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero at ``rate``, scale survivors by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    return nm.mul(x, dropout_mask(rng, x.shape, rate, x.data.dtype))


def dropout_mask(rng: np.random.Generator, shape, rate: float, dtype) -> np.ndarray:
    """Inverted-dropout mask: 0 at ``rate`` and 1/(1-rate) elsewhere; a recurrent mask is reused across timesteps."""
    return (rng.random(shape) >= rate).astype(dtype) / (1.0 - rate)


def _check_targets(probs: Tensor, targets: np.ndarray, one_hot: bool) -> np.ndarray:
    t = np.asarray(targets, dtype=probs.data.dtype)
    if t.shape != probs.shape:
        raise nm.ShapeError(f"loss: targets {t.shape} vs probabilities {probs.shape}")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("targets must be 0/1 indicator vectors")
    if one_hot and not np.all(t.sum(axis=-1) == 1.0):
        raise ValueError("multi-class targets must be one-hot")
    return t


def categorical_cross_entropy(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over the batch of -sum_j t_j log p_j, with probability clipping."""
    t = _check_targets(probs, targets, one_hot=True)
    p = nm.clip(probs, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    batch = probs.shape[0]
    return nm.mul(nm.sum_over_axis(nm.mul(nm.log(p), t), axis=None), -1.0 / batch)


def binary_cross_entropy(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over batch and classes of the per-class Bernoulli cross-entropy."""
    t = _check_targets(probs, targets, one_hot=False)
    p = nm.clip(probs, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    batch, n_classes = probs.shape
    positive = nm.mul(nm.log(p), t)
    negative = nm.mul(nm.log(nm.sub(1.0, p)), 1.0 - t)
    return nm.mul(nm.sum_over_axis(nm.add(positive, negative), axis=None), -1.0 / (batch * n_classes))
