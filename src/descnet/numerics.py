"""Dense-tensor engine with recorded-operation reverse-mode differentiation.

Forward values are numpy arrays, float32 for training and float64 for
verification. While a ``Tape`` is active every primitive appends an adjoint
closure to it; ``backward`` replays the closures in exact reverse recording
order. Gradients accumulate additively, so fan-out sums naturally and a
repeated ``backward`` without zeroing accumulates by contract — callers zero
parameter gradients between optimizer steps. With no active tape the ops run
forward-only, which is the inference fast path.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "Tape",
    "ShapeError",
    "NonFiniteError",
    "add",
    "sub",
    "mul",
    "matmul",
    "tanh",
    "sigmoid",
    "softmax",
    "log",
    "clip",
    "concat",
    "gru_sequence",
    "reshape",
    "embedding_gather",
    "max_over_axis",
    "sum_over_axis",
    "backward",
    "grad_check",
    "adam_step",
]


class ShapeError(ValueError):
    """Operand shapes or precisions incompatible with the requested op."""


class NonFiniteError(ArithmeticError):
    """NaN or infinity encountered where finite values are required."""


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """Dense row-major float array, immutable by convention once created."""

    __slots__ = ("data", "grad", "needs_grad")

    def __init__(self, data, dtype=None, needs_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.needs_grad = needs_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def precision(self) -> str:
        return "f32" if self.data.dtype == np.float32 else "f64"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.shape} is not scalar")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, {self.precision})"


class Parameter(Tensor):
    """Named trainable tensor with a gradient slot; optimizer state lives with the caller (see ``adam_step``)."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = "", dtype=None):
        super().__init__(data, dtype=dtype, needs_grad=True)
        self.name = name

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, {self.precision})"


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of executed primitives (a Wengert list)."""

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted: unbalanced enter/exit")

    def __len__(self) -> int:
        return len(self._records)


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _emit(data: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    out.needs_grad = any(t.needs_grad for t in inputs)
    tape = _active_tape()
    if tape is not None and out.needs_grad:
        tape._records.append((out, backward_fn))
    return out


def _grad(t: Tensor) -> np.ndarray:
    """``t.grad``, allocated as zeros on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.needs_grad:
        grad = _grad(t)
        grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` after a numpy-style broadcast."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _broadcasting(op: str, ufunc: np.ufunc, a, b, grad_a, grad_b) -> Tensor:
    """``ufunc(a, b)`` under numpy broadcasting; a non-Tensor operand is a constant of the other's precision.

    ``grad_a(g, x, y)`` and ``grad_b(g, x, y)`` give each operand's adjoint at
    the broadcast shape from the upstream ``g`` and the operand values.
    """
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        raise ShapeError(f"{op}: at least one operand must be a Tensor")
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    elif not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"{op}: mixed precision {a.data.dtype} vs {b.data.dtype}")
    x, y = a.data, b.data
    try:
        data = ufunc(x, y)
    except ValueError as e:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from e

    def backward_fn(g):
        if a.needs_grad:
            _accum(a, _unbroadcast(grad_a(g, x, y), a.shape))
        if b.needs_grad:
            _accum(b, _unbroadcast(grad_b(g, x, y), b.shape))

    return _emit(data, (a, b), backward_fn)


def add(a, b) -> Tensor:
    return _broadcasting("add", np.add, a, b, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _broadcasting("sub", np.subtract, a, b, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _broadcasting("mul", np.multiply, a, b, lambda g, x, y: g * y, lambda g, x, y: g * x)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` where ``a`` is 2-D or stacked (..., m, k) and ``b`` is (k, n)."""
    if a.data.ndim < 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    data = a.data @ b.data

    def backward_fn(g):
        if a.needs_grad:
            _accum(a, g @ b.data.T)
        if b.needs_grad:
            flat_a = a.data.reshape(-1, a.shape[-1])
            flat_g = g.reshape(-1, g.shape[-1])
            _accum(b, flat_a.T @ flat_g)

    return _emit(data, (a, b), backward_fn)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward_fn(g):
        _accum(a, g * (1.0 - data * data))

    return _emit(data, (a,), backward_fn)


def _logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) where z >= 0, else e^z / (1 + e^z), so exp never overflows.

    Written without ``np.where``, whose data-dependent branches made it the
    slowest step. ``minimum(z, -z)`` is -|z| but returns its first operand
    when both are NaN, so a NaN keeps its sign and payload. With
    e = exp(-|z|), ``maximum(e, z >= 0)`` picks 1 where z >= 0 (there e <= 1)
    and e elsewhere (there e >= 0), and passes a NaN through. Each element
    gets its branch's operations, so the result is bit-identical to the
    two-branch form.
    """
    e = np.exp(np.minimum(z, -z))
    return np.maximum(e, (z >= 0).astype(z.dtype)) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function, computed by the overflow-safe ``_logistic``."""
    data = _logistic(a.data)

    def backward_fn(g):
        _accum(a, g * data * (1.0 - data))

    return _emit(data, (a,), backward_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax with max-subtraction along ``axis`` for overflow safety."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accum(a, data * (g - inner))

    return _emit(data, (a,), backward_fn)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward_fn(g):
        _accum(a, g / a.data)

    return _emit(data, (a,), backward_fn)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only where the input was interior."""
    data = np.clip(a.data, lo, hi)
    passthrough = (a.data > lo) & (a.data < hi)

    def backward_fn(g):
        _accum(a, g * passthrough)

    return _emit(data, (a,), backward_fn)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat: empty input list")
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) != 1:
        raise ShapeError(f"concat: mixed precisions {sorted(map(str, dtypes))}")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: shapes {[t.shape for t in tensors]} on axis {axis}") from e
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _emit(data, tuple(tensors), backward_fn)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)

    def backward_fn(g):
        _accum(a, g.reshape(a.shape))

    return _emit(data, (a,), backward_fn)


def embedding_gather(table: Tensor, ids: np.ndarray, padding_id: int | None = None) -> Tensor:
    """Row lookup ``table[ids]``. Rows equal to ``padding_id`` get no gradient."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding_gather: ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding_gather: id out of range for table with {table.shape[0]} rows"
        )
    data = table.data[ids]

    def backward_fn(g):
        if table.needs_grad:
            if padding_id is None:
                np.add.at(_grad(table), ids, g)
            else:
                keep = ids != padding_id
                np.add.at(_grad(table), ids[keep], g[keep])

    return _emit(data, (table,), backward_fn)


def max_over_axis(a: Tensor, axis: int) -> Tensor:
    """Maximum along ``axis``; ties share the upstream gradient equally."""
    data = a.data.max(axis=axis)

    def backward_fn(g):
        expanded = np.expand_dims(data, axis)
        mask = a.data == expanded
        counts = mask.sum(axis=axis, keepdims=True)
        _accum(a, mask * (np.expand_dims(g, axis) / counts))

    return _emit(data, (a,), backward_fn)


def sum_over_axis(a: Tensor, axis: int | None) -> Tensor:
    data = a.data.sum(axis=axis)

    def backward_fn(g):
        _accum(a, np.broadcast_to(g if axis is None else np.expand_dims(g, axis), a.shape))

    return _emit(data, (a,), backward_fn)


def gru_sequence(
    x: Tensor,
    weights: Sequence[Parameter],
    step_mask: np.ndarray,
    reverse: bool,
    recurrent_mask: np.ndarray | None = None,
) -> Tensor:
    """One GRU direction over time as a single tape record: states of shape (batch, steps, hidden).

    ``weights`` are (W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h), as in
    ``GRUCell.parameters()``. Step t, taken in reverse time order when
    ``reverse``, computes with h_rec = h_prev * recurrent_mask (h_prev when
    no mask), the mask being a constant (batch, hidden) dropout mask, and s
    the logistic function:

        z = s(x_t W_z + b_z + h_rec U_z);  r = s(x_t W_r + b_r + h_rec U_r)
        c = tanh(x_t W_h + b_h + (r * h_rec) U_h)
        h_t = ((1 - z) * h_prev + z * c) * step_mask[:, t]

    so a padded step emits zeros and resets the state. The forward issues the
    numpy calls of the op-by-op tape path (``verify.bigru_oracle``) on the same
    operand shapes, and the adjoint sums every gradient in that path's replay
    order, so states and gradients are byte-identical to it. Per-step values
    are kept only while a tape is recording.
    """
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = weights
    if x.data.ndim != 3 or x.shape[2] != W_z.shape[0] or x.data.dtype != W_z.data.dtype:
        raise ShapeError(f"gru_sequence: input {x.shape} {x.data.dtype} does not fit W_z {W_z.shape} {W_z.data.dtype}")
    xz = x.data @ W_z.data + b_z.data
    xr = x.data @ W_r.data + b_r.data
    xh = x.data @ W_h.data + b_h.data
    n_steps = x.shape[1]
    order = range(n_steps - 1, -1, -1) if reverse else range(n_steps)
    recording = _active_tape() is not None
    h = np.zeros((x.shape[0], U_z.shape[0]), dtype=x.data.dtype)
    states: list[np.ndarray | None] = [None] * n_steps
    saved = []
    for t in order:
        h_rec = h if recurrent_mask is None else h * recurrent_mask
        z = _logistic(xz[:, t] + h_rec @ U_z.data)
        r = _logistic(xr[:, t] + h_rec @ U_r.data)
        rh = r * h_rec
        c = np.tanh(xh[:, t] + rh @ U_h.data)
        not_z = 1.0 - z
        if recording:
            saved.append((h, h_rec, z, r, rh, c, not_z))
        h = states[t] = (not_z * h + z * c) * step_mask[:, t : t + 1]
    data = np.stack(states, axis=1)

    def backward_fn(g):
        g_xz, g_xr, g_xh = np.zeros_like(xz), np.zeros_like(xr), np.zeros_like(xh)
        grad_U_z, grad_U_r, grad_U_h = _grad(U_z), _grad(U_r), _grad(U_h)
        g_state = g[:, order[-1]]
        for i in range(n_steps - 1, -1, -1):
            t = order[i]
            g_out_prev = g[:, order[i - 1]] if i > 0 else None
            g_a_z, g_a_r, g_a_h, g_state = _gru_step_adjoint(
                g_state * step_mask[:, t : t + 1], g_out_prev, saved[i], recurrent_mask, U_z.data, U_r.data, U_h.data
            )
            _, h_rec, _, _, rh, _, _ = saved[i]
            grad_U_h += rh.T @ g_a_h
            grad_U_r += h_rec.T @ g_a_r
            grad_U_z += h_rec.T @ g_a_z
            g_xz[:, t], g_xr[:, t], g_xh[:, t] = g_a_z, g_a_r, g_a_h
        flat_x = x.data.reshape(-1, x.shape[-1])
        for W, b, g_p in ((W_h, b_h, g_xh), (W_r, b_r, g_xr), (W_z, b_z, g_xz)):
            _accum(b, _unbroadcast(g_p, b.shape))
            if x.needs_grad:
                _accum(x, g_p @ W.data.T)
            _accum(W, flat_x.T @ g_p.reshape(-1, g_p.shape[-1]))

    return _emit(data, (x, *weights), backward_fn)


def _gru_step_adjoint(g_new, g_out_prev, saved, recurrent_mask, U_z, U_r, U_h):
    """Pre-activation adjoints of one ``gru_sequence`` step, and the gradient of its h_prev.

    ``g_new`` is the gradient of the step's new state before the step mask;
    ``g_out_prev`` is the output gradient at h_prev's position, or None at
    the first step, whose h_prev is the constant zero state (its gradient is
    then None too). Each sum runs in the op-by-op path's order. The closure
    looks this function up at each call, so ``verify --inject-fault`` can
    put a corrupted BPTT step in its place.
    """
    h_prev, h_rec, z, r, _, c, not_z = saved
    g_a_h = g_new * z * (1.0 - c * c)
    g_rh = g_a_h @ U_h.T
    g_a_r = g_rh * h_rec * r * (1.0 - r)
    g_a_z = (g_new * c - g_new * h_prev) * z * not_z
    if g_out_prev is None:
        return g_a_z, g_a_r, g_a_h, None
    g_prev = g_out_prev + g_new * not_z
    if recurrent_mask is None:
        g_prev = g_prev + g_rh * r + g_a_r @ U_r.T + g_a_z @ U_z.T
    else:
        g_prev = g_prev + (g_rh * r + g_a_r @ U_r.T + g_a_z @ U_z.T) * recurrent_mask
    return g_a_z, g_a_r, g_a_h, g_prev


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate gradients of everything ``loss`` depends on via ``tape``.

    Intermediate gradients are recomputed from scratch on every call;
    Parameter gradients (never op outputs) persist and accumulate.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    for out, _ in tape._records:
        out.grad = None
    loss.grad = np.ones_like(loss.data)
    for out, backward_fn in reversed(tape._records):
        if out.grad is not None:
            backward_fn(out.grad)


def grad_check(f: Callable[[], Tensor], params: Sequence[Parameter], epsilon: float = 1e-5) -> float:
    """Max relative error of tape gradients vs central differences.

    ``f`` must be a deterministic float64 scalar function closing over
    ``params``. Relative error uses max(|analytic|, |numeric|, 1e-12) as the
    denominator.
    """
    if not 1e-7 <= epsilon <= 1e-4:
        raise ValueError(f"grad_check: epsilon {epsilon} outside [1e-7, 1e-4]")
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = f()
    if loss.data.dtype != np.float64:
        raise ValueError("grad_check: requires float64 precision")
    backward(loss, tape)

    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        analytic = analytic.reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + epsilon
            f_plus = f().item()
            flat[i] = original - epsilon
            f_minus = f().item()
            flat[i] = original
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            if not (np.isfinite(numeric) and np.isfinite(analytic[i])):
                raise NonFiniteError(
                    f"grad_check: non-finite value at parameter '{p.name}' entry {i}"
                )
            rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-12)
            worst = max(worst, rel)
    return worst


def adam_step(
    params: Sequence[Parameter],
    moments: dict[str, tuple[np.ndarray, np.ndarray]],
    learning_rate: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
    step_count: int = 1,
) -> None:
    """Bias-corrected Adam update, in place, of every parameter that has a gradient.

    ``moments`` is the caller's map from parameter name to its (first, second) moment arrays, zeros before step 1.
    """
    if step_count < 1:
        raise ValueError("adam_step: step_count must be >= 1")
    for p in params:
        if p.grad is None:
            continue
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"adam_step: non-finite gradient for parameter '{p.name}'")
        m, v = moments[p.name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**step_count)
        v_hat = v / (1.0 - beta2**step_count)
        p.data -= learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
