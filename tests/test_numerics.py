import inspect
import typing
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descnet import numerics as nm
from descnet.numerics import (
    NonFiniteError,
    Parameter,
    ShapeError,
    Tape,
    Tensor,
    adam_step,
    backward,
    grad_check,
)
from descnet.verify import _layer_cases, _primitive_cases


def scalar_sum(t):
    return nm.sum_over_axis(t, axis=None)


def branchwise_sigmoid(z: np.ndarray) -> np.ndarray:
    """The two-branch logistic that ``nm.sigmoid`` must reproduce bit for bit."""
    data = np.empty_like(z)
    pos = z >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    data[~pos] = ez / (1.0 + ez)
    return data


SIGMOID_SPECIALS = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 88.7, -88.7, 1e4, -1e4]


class TestForwardValues:
    def test_softmax_symmetry(self):
        out = nm.softmax(Tensor(np.array([0.0, 0.0])))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_softmax_large_inputs_no_overflow(self):
        out = nm.softmax(Tensor(np.array([1000.0, 0.0])))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)
        assert np.all(np.isfinite(out.data))

    def test_sigmoid_at_zero(self):
        assert nm.sigmoid(Tensor(np.array(0.0))).item() == 0.5

    def test_sigmoid_extremes_finite(self):
        out = nm.sigmoid(Tensor(np.array([-1e4, 1e4])))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == 0.0 and out.data[1] == 1.0

    def test_matmul_identity(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = nm.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
        with pytest.raises(ShapeError, match="add"):
            nm.add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_mixed_precision_rejected(self):
        with pytest.raises(ShapeError, match="precision"):
            nm.add(Tensor(np.ones(2, dtype=np.float32)), Tensor(np.ones(2, dtype=np.float64)))


class TestBroadcastingOps:
    """``add``, ``sub`` and ``mul`` share one broadcasting kernel; these pin its adjoints and errors."""

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    @pytest.mark.parametrize("shapes", [
        ((3, 4), (4,)),
        ((3, 1), (1, 4)),
        ((2, 3, 4), (3, 1)),
        (1.0, (3, 4)),  # a Python scalar on the left: sub(1.0, z) as the GRU and BCE write it
        ((3, 4), 0.5),
    ], ids=["3x4-4", "3x1-1x4", "2x3x4-3x1", "scalar-left", "scalar-right"])
    def test_broadcast_adjoints(self, op, shapes):
        rng = np.random.default_rng(zlib.crc32(f"{op}{shapes}".encode()))
        operands = [
            Parameter(rng.normal(size=s), name=name) if isinstance(s, tuple) else s
            for s, name in zip(shapes, "ab")
        ]
        params = [t for t in operands if isinstance(t, Parameter)]
        assert grad_check(lambda: scalar_sum(nm.tanh(getattr(nm, op)(*operands))), params) < 1e-6
        for p in params:
            assert p.grad.shape == p.shape

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_constant_tensor_operand_keeps_no_gradient(self, op):
        w = Parameter(np.ones((3, 4)), name="w")
        c = np.full(4, 2.0)
        for left, right in ((c, w), (w, c)):
            w.grad = None
            with Tape() as tape:
                loss = scalar_sum(getattr(nm, op)(left, right))
            backward(loss, tape)
            assert w.grad is not None and w.grad.shape == w.shape

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_hand_built_tensor_operand_receives_its_gradient(self, op):
        # A plain Tensor is a variable like a Parameter: under a tape it is recorded and gets its adjoint.
        w = Parameter(np.full((3, 4), 3.0), name="w")
        t = Tensor(np.full(4, 2.0))
        expected = {"add": 3.0, "sub": -3.0, "mul": 9.0}[op]  # d/dt of sum(w op t) over the 3 broadcast rows
        with Tape() as tape:
            loss = scalar_sum(getattr(nm, op)(w, t))
        backward(loss, tape)
        np.testing.assert_array_equal(t.grad, np.full(4, expected))

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_errors_name_the_op(self, op):
        with pytest.raises(ShapeError, match=f"^{op}: shapes"):
            getattr(nm, op)(Tensor(np.ones(3)), Tensor(np.ones(4)))
        with pytest.raises(ShapeError, match=f"^{op}: mixed precision"):
            getattr(nm, op)(Tensor(np.ones(2, dtype=np.float32)), Tensor(np.ones(2)))
        with pytest.raises(ShapeError, match=f"^{op}: at least one operand"):
            getattr(nm, op)(1.0, 2.0)


class TestBackward:
    def test_linear_sum(self):
        w = Parameter(np.zeros(3, dtype=np.float64), name="w")
        with Tape() as tape:
            loss = scalar_sum(w)
        backward(loss, tape)
        np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_quadratic(self):
        w = Parameter(np.array([1.0, 2.0]), name="w")
        with Tape() as tape:
            loss = scalar_sum(nm.mul(w, w))
        backward(loss, tape)
        np.testing.assert_allclose(w.grad, [2.0, 4.0])

    def test_fanout_accumulates(self):
        w = Parameter(np.array([3.0]), name="w")
        with Tape() as tape:
            loss = scalar_sum(nm.add(w, w))
        backward(loss, tape)
        np.testing.assert_allclose(w.grad, [2.0])

    def test_repeated_backward_accumulates_parameter_grads(self):
        w = Parameter(np.array([1.0, 2.0]), name="w")
        with Tape() as tape:
            loss = scalar_sum(nm.mul(w, w))
        backward(loss, tape)
        backward(loss, tape)
        np.testing.assert_allclose(w.grad, [4.0, 8.0])

    def test_loss_must_be_scalar(self):
        w = Parameter(np.ones(3), name="w")
        with Tape() as tape:
            out = nm.mul(w, w)
        with pytest.raises(ShapeError, match="scalar"):
            backward(out, tape)

    def test_no_tape_records_nothing(self):
        w = Parameter(np.ones(3), name="w")
        out = nm.mul(w, w)
        assert out.data is not None
        with Tape() as tape:
            pass
        assert len(tape) == 0

    def test_concat_backward_splits_gradient_exactly(self):
        a = Parameter(np.arange(3, dtype=np.float64), name="a")
        b = Parameter(np.arange(4, dtype=np.float64), name="b")
        upstream = np.array([1.0, -2.0, 3.0, 0.5, 4.0, -1.0, 2.0])
        with Tape() as tape:
            joined = nm.concat([a, b], axis=0)
            loss = scalar_sum(nm.mul(joined, Tensor(upstream)))
        backward(loss, tape)
        np.testing.assert_array_equal(np.concatenate([a.grad, b.grad]), upstream)
        assert np.dot(a.grad, a.grad) + np.dot(b.grad, b.grad) == pytest.approx(np.dot(upstream, upstream))

    def test_three_layer_composition_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        w1 = Parameter(rng.normal(size=(4, 5)), name="w1")
        w2 = Parameter(rng.normal(size=(5, 3)), name="w2")
        b = Parameter(rng.normal(size=3), name="b")
        x = Tensor(rng.normal(size=(2, 4)))

        def f():
            h = nm.tanh(nm.matmul(x, w1))
            out = nm.sigmoid(nm.add(nm.matmul(h, w2), b))
            return scalar_sum(nm.mul(out, out))

        assert grad_check(f, [w1, w2, b]) < 1e-6


class TestGradCheckPrimitives:
    """Each primitive of ``descnet verify``'s gradient check, run through grad_check at f64 on draws of its own."""

    @pytest.mark.parametrize("op", [name for name, _, _ in _primitive_cases(np.random.default_rng(0))])
    def test_primitive(self, op):
        cases = {name: (f, params) for name, f, params in _primitive_cases(np.random.default_rng(zlib.crc32(op.encode())))}
        f, params = cases[op]
        assert grad_check(f, params) < 1e-6

    def test_constant_function_zero_error(self):
        w = Parameter(np.ones(2), name="w")
        c = Tensor(np.ones(2))
        assert grad_check(lambda: scalar_sum(nm.mul(c, c)), [w]) == 0.0

    def test_grad_check_epsilon_range(self):
        w = Parameter(np.ones(2), name="w")
        with pytest.raises(ValueError, match="epsilon"):
            grad_check(lambda: scalar_sum(w), [w], epsilon=1e-2)

    def test_grad_check_requires_f64(self):
        w = Parameter(np.ones(2, dtype=np.float32), name="w")
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda: scalar_sum(w), [w])

    def test_embedding_padding_row_gets_no_gradient(self):
        table = Parameter(np.ones((4, 2)), name="table")
        ids = np.array([[0, 1], [0, 2]])
        with Tape() as tape:
            loss = scalar_sum(nm.embedding_gather(table, ids, padding_id=0))
        backward(loss, tape)
        np.testing.assert_array_equal(table.grad[0], [0.0, 0.0])
        np.testing.assert_array_equal(table.grad[1], [1.0, 1.0])


def primitives_without_a_case(primitive_cases, layer_cases) -> list[str]:
    """Functions in ``numerics.__all__`` that return a Tensor and have no gradient case of ``descnet verify``.

    ``bigru_sequence`` counts as covered by a ``bigru_forward*`` layer case: ``nn.bigru_forward`` is one such record.
    """
    covered = {name for name, _, _ in primitive_cases}
    if any(name.startswith("bigru_forward") for name, _, _ in layer_cases):
        covered.add("bigru_sequence")
    return [
        name for name in nm.__all__
        if inspect.isfunction(fn := getattr(nm, name)) and typing.get_type_hints(fn).get("return") is Tensor and name not in covered
    ]


class TestPrimitiveCoverage:
    def test_every_primitive_has_a_gradient_case(self):
        primitive_cases, layer_cases = _primitive_cases(np.random.default_rng(0)), _layer_cases(np.random.default_rng(0))
        # The check flags a primitive whose case is missing, and bigru_sequence without its layer cases.
        assert primitives_without_a_case(primitive_cases[1:], layer_cases) == [primitive_cases[0][0]]
        assert primitives_without_a_case(primitive_cases, layer_cases[:1]) == ["bigru_sequence"]
        assert primitives_without_a_case(primitive_cases, layer_cases) == []


def row_scatter(grad, ids, g, padding_id):
    """The row-form ``np.add.at`` that ``embedding_gather``'s adjoint replaced, kept as its oracle."""
    keep = np.ones(ids.shape, dtype=bool) if padding_id is None else ids != padding_id
    np.add.at(grad, ids[keep], g[keep])


class TestEmbeddingScatter:
    """``embedding_gather``'s one flat-index scatter against the row-form oracle, byte for byte."""

    CHANNELS = {
        "repeats": lambda rng: [rng.integers(1, 3, size=(4, 6))],
        "padding": lambda rng: [rng.integers(0, 5, size=(4, 6))],
        "all_padding": lambda rng: [np.zeros((3, 4), dtype=np.int64)],
        "no_padding_id": lambda rng: [rng.integers(0, 5, size=(4, 6))],
        "two_channels": lambda rng: [rng.integers(0, 5, size=(4, 6)), rng.integers(0, 3, size=(4, 3))],
    }

    @staticmethod
    def _compare(rng, dtype, channels, padding_id, n_rows, dim):
        table = Parameter(rng.normal(size=(n_rows, dim)).astype(dtype), name="table")
        prior = rng.normal(size=(n_rows, dim)).astype(dtype)
        weights = [rng.normal(size=ids.shape + (dim,)).astype(dtype) for ids in channels]
        table.grad = prior.copy()
        with Tape() as tape:
            terms = [scalar_sum(nm.mul(nm.embedding_gather(table, ids, padding_id), w)) for ids, w in zip(channels, weights)]
            loss = terms[0] if len(terms) == 1 else nm.add(*terms)
        backward(loss, tape)
        # Each gather's upstream gradient is exactly its weights; the tape replays the later channel's gather first.
        expected = prior.copy()
        for ids, w in reversed(list(zip(channels, weights))):
            row_scatter(expected, ids, w, padding_id)
        assert table.grad.dtype == expected.dtype
        assert table.grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", list(CHANNELS))
    def test_byte_identical_to_row_form(self, dtype, case):
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        channels = self.CHANNELS[case](rng)
        self._compare(rng, dtype, channels, None if case == "no_padding_id" else 0, 5, 7)

    def test_byte_identical_to_row_form_on_random_draws(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            n_rows, dim = int(rng.integers(1, 8)), int(rng.integers(1, 9))
            shapes = [tuple(rng.integers(1, 6, size=int(rng.integers(1, 3)))) for _ in range(int(rng.integers(1, 3)))]
            channels = [rng.integers(0, n_rows, size=shape) for shape in shapes]
            padding_id = None if rng.random() < 0.3 else int(rng.integers(0, n_rows))
            self._compare(rng, rng.choice([np.float32, np.float64]), channels, padding_id, n_rows, dim)

    def test_table_that_is_not_2d_raises_shape_error(self):
        table = Parameter(np.ones((4, 2, 3)), name="table")
        with pytest.raises(ShapeError, match=r"table of shape \(4, 2, 3\) is not 2-D"):
            nm.embedding_gather(table, np.array([0, 1]))


class TestOptimizers:
    def test_zero_gradient_leaves_value_unchanged(self):
        p = Parameter(np.array([1.0, 2.0]), name="p")
        p.grad = np.zeros(2)
        adam_step([p], {"p": (np.zeros(2), np.zeros(2))}, learning_rate=0.1, step_count=1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_constant_gradient_update_approaches_lr_times_sign(self):
        # Closed-form Adam fixed point: with constant g, the bias-corrected
        # update tends to lr * g / (|g| + eps) = lr * sign(g).
        p = Parameter(np.array([0.0, 0.0]), name="p")
        g = np.array([0.5, -2.0])
        lr = 1e-3
        previous = p.data.copy()
        moments = {"p": (np.zeros(2), np.zeros(2))}
        for step in range(1, 201):
            p.grad = g.copy()
            adam_step([p], moments, learning_rate=lr, step_count=step)
            delta = p.data - previous
            previous = p.data.copy()
        np.testing.assert_allclose(np.abs(delta), lr, rtol=1e-3)
        np.testing.assert_allclose(np.sign(delta), -np.sign(g))

    def test_non_finite_gradient_names_parameter(self):
        p = Parameter(np.array([1.0]), name="bad_param")
        p.grad = np.array([np.inf])
        with pytest.raises(NonFiniteError, match="bad_param"):
            adam_step([p], {}, 1e-3, step_count=1)

    def test_step_count_validated(self):
        with pytest.raises(ValueError):
            adam_step([], {}, 1e-3, step_count=0)


class TestProperties:
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8))
    def test_softmax_rows_sum_to_one(self, values):
        out = nm.softmax(Tensor(np.array(values, dtype=np.float64)))
        assert np.all(out.data > 0)
        assert abs(out.data.sum() - 1.0) < 1e-12

    @given(st.floats(min_value=-700, max_value=700))
    def test_sigmoid_symmetry(self, z):
        s = nm.sigmoid(Tensor(np.array([z, -z])))
        assert abs(s.data.sum() - 1.0) < 1e-12

    @given(
        st.sampled_from([np.float32, np.float64]),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=12),
    )
    def test_sigmoid_matches_branchwise_reference_bit_for_bit(self, dtype, values):
        with np.errstate(over="ignore"):  # a float64 beyond float32's range casts to inf
            z = np.array([*values, *SIGMOID_SPECIALS], dtype=dtype)
        for arr in [z, *(np.array(v, dtype=dtype) for v in z)]:  # the whole vector, then each entry as a 0-d array
            with np.errstate(over="raise"):
                out = nm.sigmoid(Tensor(arr)).data
            assert out.shape == arr.shape and out.dtype == arr.dtype
            assert out.tobytes() == branchwise_sigmoid(arr).tobytes()

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_forward_determinism(self, seed):
        def run():
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(3, 4)))
            w = Parameter(rng.normal(size=(4, 2)), name="w")
            with Tape() as tape:
                loss = scalar_sum(nm.softmax(nm.matmul(nm.tanh(x), w)))
            backward(loss, tape)
            return loss.item(), w.grad.copy()

        loss1, grad1 = run()
        loss2, grad2 = run()
        assert loss1 == loss2
        np.testing.assert_array_equal(grad1, grad2)
