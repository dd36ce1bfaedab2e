import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descnet import nn, verify
from descnet import numerics as nm
from descnet.errors import DataError
from descnet.numerics import Parameter, Tape, Tensor, adam_step, backward, grad_check


def total(t):
    return nm.sum_over_axis(t, axis=None)


def gru_step(cell, x_t, h_prev):
    """One recurrence step from raw input vectors, by the op-by-op oracle in ``verify``."""
    return verify.gru_step(cell, *verify.gru_input_projections(cell, x_t), h_prev)


class TestGRUCell:
    def zero_cell(self, input_dim=3, hidden=4, dtype=np.float64):
        cell = nn.GRUCell(input_dim, hidden, np.random.default_rng(0), dtype)
        for p in cell.parameters():
            p.data[...] = 0.0
        return cell

    def test_zero_weights_halve_previous_state(self):
        # z = r = sigmoid(0) = 0.5 and the candidate is tanh(0) = 0, so
        # h_t = (1 - z) * h_prev = 0.5 * h_prev.
        cell = self.zero_cell()
        h_prev = Tensor(np.array([[0.2, -0.4, 1.0, 0.0]]))
        x = Tensor(np.ones((1, 3)))
        h_t = gru_step(cell, x, h_prev)
        np.testing.assert_allclose(h_t.data, 0.5 * h_prev.data)

    def test_zero_input_zero_state_fixed_point(self):
        cell = self.zero_cell()
        h_t = gru_step(cell, Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
        np.testing.assert_array_equal(h_t.data, 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        cell = nn.GRUCell(3, 4, rng, np.float64)
        x = Tensor(rng.normal(size=(2, 3)))
        h_prev = Tensor(rng.normal(size=(2, 4)) * 0.3)

        def f():
            h_t = gru_step(cell, x, h_prev)
            return total(nm.mul(h_t, h_t))

        assert grad_check(f, cell.parameters()) < 1e-6

    def test_state_stays_in_open_unit_interval(self):
        rng = np.random.default_rng(4)
        cell = nn.GRUCell(3, 5, rng, np.float64)
        h = Tensor(np.zeros((4, 5)))
        for t in range(20):
            x = Tensor(rng.normal(size=(4, 3)) * 3.0)
            h = gru_step(cell, x, h)
            assert np.all(np.abs(h.data) < 1.0)


class TestBiGRU:
    def test_palindrome_with_tied_weights(self):
        rng = np.random.default_rng(2)
        cell = nn.GRUCell(3, 4, rng, np.float64)
        half = rng.normal(size=(2, 3, 3))
        emb = Tensor(np.concatenate([half, half[:, ::-1]], axis=1))  # palindrome, T=6
        lengths = np.array([6, 6])
        out = nn.bigru_forward(cell, cell, emb, lengths).data
        fwd, bwd = out[:, :, :4], out[:, :, 4:]
        for t in range(6):
            np.testing.assert_allclose(fwd[:, t], bwd[:, 5 - t], atol=1e-12)

    def test_length_one_sequence(self):
        rng = np.random.default_rng(3)
        fwd = nn.GRUCell(3, 4, rng, np.float64)
        bwd = nn.GRUCell(3, 4, rng, np.float64)
        emb = Tensor(rng.normal(size=(1, 5, 3)))
        out = nn.bigru_forward(fwd, bwd, emb, np.array([1]))
        x0 = Tensor(emb.data[:, 0])
        h0 = gru_step(fwd, x0, Tensor(np.zeros((1, 4))))
        g0 = gru_step(bwd, x0, Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(out.data[0, 0], np.concatenate([h0.data[0], g0.data[0]]))
        np.testing.assert_array_equal(out.data[0, 1:], 0.0)

    def test_padded_positions_zero_output_and_zero_gradient(self):
        rng = np.random.default_rng(5)
        fwd = nn.GRUCell(3, 4, rng, np.float64)
        bwd = nn.GRUCell(3, 4, rng, np.float64)
        emb = Tensor(rng.normal(size=(2, 5, 3)))
        lengths = np.array([3, 2])
        with Tape() as tape:
            out = nn.bigru_forward(fwd, bwd, emb, lengths)
            # loss reads only the padded tail, which is defined to be zero
            tail_mask = np.zeros((2, 5, 1))
            tail_mask[0, 3:] = 1.0
            tail_mask[1, 2:] = 1.0
            loss = total(nm.mul(out, tail_mask))
        assert loss.item() == 0.0
        backward(loss, tape)
        for p in fwd.parameters() + bwd.parameters():
            if p.grad is not None:
                np.testing.assert_array_equal(p.grad, 0.0)

    def test_zero_length_gives_all_zero_outputs(self):
        rng = np.random.default_rng(6)
        fwd = nn.GRUCell(3, 4, rng, np.float64)
        bwd = nn.GRUCell(3, 4, rng, np.float64)
        emb = Tensor(rng.normal(size=(2, 4, 3)))
        out = nn.bigru_forward(fwd, bwd, emb, np.array([0, 4]))
        np.testing.assert_array_equal(out.data[0], 0.0)
        assert np.any(out.data[1] != 0.0)


class TestFusedGRU:
    """``nn.bigru_forward`` runs both directions as one ``nm.bigru_sequence`` record; ``verify.bigru_oracle`` is the op-by-op path."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from([np.float32, np.float64]),
        st.integers(1, 6),
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(1, 5),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    # The single-row, single-step, single-feature and single-unit shapes,
    # where BLAS switches to matrix-vector kernels, always run.
    @example(np.float32, 1, 1, 1, 1, True, 0)
    @example(np.float32, 1, 5, 3, 4, True, 1)
    @example(np.float64, 3, 1, 3, 4, False, 2)
    @example(np.float32, 3, 5, 1, 4, True, 3)
    @example(np.float64, 3, 5, 3, 1, True, 4)
    def test_byte_identical_to_op_by_op_oracle(self, dtype, batch, n_steps, d, hidden, dropout, seed):
        rng = np.random.default_rng(seed)
        cells = nn.GRUCell(d, hidden, rng, dtype, name="fwd"), nn.GRUCell(d, hidden, rng, dtype, name="bwd")
        x = Parameter(rng.normal(size=(batch, n_steps, d)).astype(dtype), name="x")
        lengths = rng.integers(0, n_steps + 1, size=batch)
        mask = nn.dropout_mask(rng, (2, batch, hidden), 0.4, dtype) if dropout else None
        weight = rng.normal(size=(batch, n_steps, 2 * hidden)).astype(dtype)
        fused = verify.bigru_arrays(nn.bigru_forward, cells, x, lengths, mask, weight)
        oracle = verify.bigru_arrays(verify.bigru_oracle, cells, x, lengths, mask, weight)
        assert len(fused) == 2 * 9 + 2
        for produced, expected in zip(fused, oracle):
            assert produced.dtype == expected.dtype
            assert produced.tobytes() == expected.tobytes()

    def test_one_record_per_bigru_call(self):
        rng = np.random.default_rng(40)
        fwd, bwd = nn.GRUCell(3, 4, rng, np.float32), nn.GRUCell(3, 4, rng, np.float32)
        emb = Parameter(rng.normal(size=(2, 7, 3)).astype(np.float32), name="emb")
        with Tape() as tape:
            nn.bigru_forward(fwd, bwd, emb, np.array([7, 3]), nn.dropout_mask(rng, (2, 2, 4), 0.5, np.float32))
        assert len(tape) == 1

    @pytest.mark.parametrize(
        "bwd_shape, bwd_dtype, detail",
        [((5, 4), np.float32, r"\(5, 4\)"), ((3, 6), np.float32, r"\(6, 6\)"), ((3, 4), np.float64, "float64")],
        ids=["input size", "hidden size", "dtype"],
    )
    def test_cells_that_differ_raise_shape_error_naming_both(self, bwd_shape, bwd_dtype, detail):
        rng = np.random.default_rng(41)
        fwd, bwd = nn.GRUCell(3, 4, rng, np.float32), nn.GRUCell(*bwd_shape, rng, bwd_dtype)
        emb = Tensor(rng.normal(size=(2, 5, 3)).astype(np.float32))
        with pytest.raises(nm.ShapeError, match=rf"\(3, 4\).*{detail}"):
            nn.bigru_forward(fwd, bwd, emb, np.array([5, 2]))

    def test_recurrent_mask_of_the_wrong_shape_raises_shape_error(self):
        # A (batch, hidden) mask would otherwise broadcast to both directions.
        rng = np.random.default_rng(42)
        fwd, bwd = nn.GRUCell(3, 4, rng, np.float32), nn.GRUCell(3, 4, rng, np.float32)
        emb = Tensor(rng.normal(size=(2, 5, 3)).astype(np.float32))
        with pytest.raises(nm.ShapeError, match=r"recurrent mask \(2, 4\), expected \(2, 2, 4\)"):
            nn.bigru_forward(fwd, bwd, emb, np.array([5, 2]), nn.dropout_mask(rng, (2, 4), 0.5, np.float32))

    def test_fused_check_catches_a_corrupted_bptt_alone(self, monkeypatch):
        # The oracle is left intact: only the fused adjoint's carried gradient is scaled.
        assert verify.check_fused_gru().passed
        monkeypatch.setattr(nm, "_gru_step_adjoint", verify.scaled_carry(nm._gru_step_adjoint))
        assert not verify.check_fused_gru().passed


class TestPooling:
    def test_constant_sequence_both_pools_return_it(self):
        c = np.array([0.3, -1.2, 0.7])
        hidden = Tensor(np.tile(c, (1, 4, 1)))
        for pool in (nn.max_pool_time, nn.avg_pool_time):
            np.testing.assert_allclose(pool(hidden, np.array([4])).data[0], c, atol=1e-7)

    def test_hand_example(self):
        hidden = Tensor(np.array([[[1.0, -2.0], [3.0, 0.0]]]))
        lengths = np.array([2])
        np.testing.assert_allclose(nn.max_pool_time(hidden, lengths).data[0], [3.0, 0.0])
        np.testing.assert_allclose(nn.avg_pool_time(hidden, lengths).data[0], [2.0, -1.0])

    def test_length_one_equals_single_state(self):
        rng = np.random.default_rng(7)
        hidden = Tensor(rng.normal(size=(2, 5, 3)))
        lengths = np.array([1, 1])
        np.testing.assert_allclose(nn.max_pool_time(hidden, lengths).data, hidden.data[:, 0])
        np.testing.assert_allclose(nn.avg_pool_time(hidden, lengths).data, hidden.data[:, 0])

    def test_invalid_positions_ignored(self):
        hidden = Tensor(np.array([[[1.0], [99.0]]]))
        lengths = np.array([1])
        assert nn.max_pool_time(hidden, lengths).data[0, 0] == 1.0
        assert nn.avg_pool_time(hidden, lengths).data[0, 0] == 1.0

    def test_zero_length_zero_vector(self):
        hidden = Tensor(np.ones((1, 3, 2)))
        lengths = np.array([0])
        np.testing.assert_array_equal(nn.max_pool_time(hidden, lengths).data, 0.0)
        np.testing.assert_array_equal(nn.avg_pool_time(hidden, lengths).data, 0.0)


class TestAttention:
    def test_single_valid_timestep_returns_that_state(self):
        rng = np.random.default_rng(9)
        layer = nn.AttentionLayer(4, 4, rng, np.float64)
        hidden = Tensor(rng.normal(size=(1, 3, 4)))
        context, weights = nn.attention_forward(layer, hidden, np.array([1]))
        np.testing.assert_allclose(context.data[0], hidden.data[0, 0], atol=1e-12)
        assert weights.data[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_identical_states_get_uniform_weights(self):
        rng = np.random.default_rng(10)
        layer = nn.AttentionLayer(4, 4, rng, np.float64)
        state = rng.normal(size=4)
        hidden = Tensor(np.tile(state, (1, 2, 1)))
        context, weights = nn.attention_forward(layer, hidden, np.array([2]))
        np.testing.assert_allclose(weights.data[0], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(context.data[0], state, atol=1e-12)

    def test_weights_sum_to_one_and_context_is_convex_combination(self):
        rng = np.random.default_rng(11)
        layer = nn.AttentionLayer(4, 4, rng, np.float64)
        hidden = Tensor(rng.normal(size=(3, 6, 4)))
        lengths = np.array([6, 4, 1])
        context, weights = nn.attention_forward(layer, hidden, lengths)
        mask = np.arange(6)[None, :] < lengths[:, None]
        np.testing.assert_allclose((weights.data * mask).sum(axis=1), 1.0, atol=1e-12)
        assert np.all(weights.data >= 0)
        recombined = (weights.data[:, :, None] * hidden.data * mask[:, :, None]).sum(axis=1)
        np.testing.assert_allclose(context.data, recombined, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        layer = nn.AttentionLayer(3, 3, rng, np.float64)
        hidden = Tensor(rng.normal(size=(2, 4, 3)))
        lengths = np.array([4, 2])

        def f():
            context, _ = nn.attention_forward(layer, hidden, lengths)
            return total(nm.mul(context, context))

        assert grad_check(f, layer.parameters()) < 1e-6

    def test_all_padding_returns_zero_vector(self):
        rng = np.random.default_rng(13)
        layer = nn.AttentionLayer(3, 3, rng, np.float64)
        hidden = Tensor(rng.normal(size=(1, 4, 3)))
        context, _ = nn.attention_forward(layer, hidden, np.array([0]))
        np.testing.assert_array_equal(context.data, 0.0)


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert nn.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_inference_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert nn.dropout(x, 0.9, training=False) is x

    def test_statistics_at_half_rate(self):
        rng = np.random.default_rng(21)
        x = Tensor(np.ones(100_000))
        dropped = nn.dropout(x, 0.5, training=True, rng=rng)
        survivors = np.count_nonzero(dropped.data)
        assert abs(survivors / 100_000 - 0.5) < 0.01
        assert abs(dropped.data.mean() - 1.0) < 0.02  # inverted scaling preserves expectation
        np.testing.assert_allclose(dropped.data[dropped.data != 0], 2.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            nn.dropout(Tensor(np.ones(2)), 1.0, training=True, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_applies_the_mask_builder_at_the_input_shape(self, dtype):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4, 2)).astype(dtype))
        dropped = nn.dropout(x, 0.3, training=True, rng=np.random.default_rng(5))
        mask = nn.dropout_mask(np.random.default_rng(5), x.shape, 0.3, dtype)
        assert isinstance(mask, np.ndarray) and mask.dtype == dtype
        assert dropped.data.tobytes() == (x.data * mask).tobytes()


class TestLosses:
    def test_perfect_prediction_near_zero(self):
        probs = Tensor(np.eye(3))
        loss = nn.categorical_cross_entropy(probs, np.eye(3))
        assert 0.0 <= loss.item() < 1e-6

    def test_uniform_four_classes_ln4(self):
        probs = Tensor(np.full((2, 4), 0.25))
        loss = nn.categorical_cross_entropy(probs, np.eye(4)[[0, 3]])
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_binary_half_everywhere_ln2(self):
        probs = Tensor(np.full((3, 5), 0.5))
        targets = (np.random.default_rng(1).random((3, 5)) < 0.5).astype(float)
        loss = nn.binary_cross_entropy(probs, targets)
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_non_one_hot_target_rejected(self):
        probs = Tensor(np.full((1, 3), 1 / 3))
        with pytest.raises(ValueError, match="one-hot"):
            nn.categorical_cross_entropy(probs, np.array([[1.0, 1.0, 0.0]]))

    def test_fractional_target_rejected(self):
        probs = Tensor(np.full((1, 2), 0.5))
        with pytest.raises(ValueError):
            nn.binary_cross_entropy(probs, np.array([[0.5, 0.5]]))

    def test_class_axis_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 5))
        probs = nm.softmax(Tensor(logits), axis=1)
        targets = np.eye(5)[[0, 2, 4, 1]]
        perm = [3, 0, 4, 1, 2]
        probs_p = nm.softmax(Tensor(logits[:, perm]), axis=1)
        base = nn.categorical_cross_entropy(probs, targets).item()
        permuted = nn.categorical_cross_entropy(probs_p, targets[:, perm]).item()
        assert base == pytest.approx(permuted, abs=1e-12)
        sig = nm.sigmoid(Tensor(logits))
        sig_p = nm.sigmoid(Tensor(logits[:, perm]))
        multi = (rng.random((4, 5)) < 0.5).astype(float)
        assert nn.binary_cross_entropy(sig, multi).item() == pytest.approx(
            nn.binary_cross_entropy(sig_p, multi[:, perm]).item(), abs=1e-12
        )


class TestEmbedding:
    def test_padding_row_zero_after_optimizer_steps(self):
        rng = np.random.default_rng(14)
        layer = nn.EmbeddingLayer(8, 4, rng, np.float64)
        ids = np.array([[0, 1, 2], [3, 0, 4]])
        moments = {p.name: (np.zeros_like(p.data), np.zeros_like(p.data)) for p in layer.parameters()}
        for step in range(1, 6):
            layer.table.zero_grad()
            with Tape() as tape:
                out = layer.forward(ids)
                loss = total(nm.mul(out, out))
            backward(loss, tape)
            adam_step(layer.parameters(), moments, 0.05, step_count=step)
        np.testing.assert_array_equal(layer.table.data[0], 0.0)
        assert np.any(layer.table.data[1] != 0.0)


    def test_layer_check_catches_a_scatter_that_drops_repeated_ids(self, monkeypatch):
        def buffered_gather(table, ids, padding_id=None):
            # ``grad[ids] += g`` stores one sum per repeated row: the last contribution wins.
            def backward_fn(g):
                keep = ids != padding_id
                nm._grad(table)[ids[keep]] += g[keep]

            return nm._emit(table.data[ids], (table,), backward_fn)

        assert verify.check_layer_gradients().passed
        monkeypatch.setattr(nm, "embedding_gather", buffered_gather)
        result = verify.check_layer_gradients()
        assert not result.passed
        assert result.detail == "worst: embedding"


class TestPretrainedLoader:
    def test_covered_tokens_overwritten_others_random(self, tmp_path):
        rng = np.random.default_rng(16)
        layer = nn.EmbeddingLayer(5, 3, rng, np.float32)
        before = layer.table.data.copy()
        path = tmp_path / "vectors.txt"
        path.write_text("apple 1.0 2.0 3.0\nmissingtoken 9 9 9\n")
        covered = nn.load_pretrained_embeddings(layer, path, {"apple": 2, "banana": 3})
        assert covered == 1
        np.testing.assert_allclose(layer.table.data[2], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(layer.table.data[3], before[3])

    def test_dimension_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(17)
        layer = nn.EmbeddingLayer(5, 3, rng, np.float32)
        path = tmp_path / "vectors.txt"
        path.write_text("apple 1.0 2.0\n")
        with pytest.raises(DataError, match="2-dimensional"):
            nn.load_pretrained_embeddings(layer, path, {"apple": 2})

    def test_vec_header_line_skipped(self, tmp_path):
        rng = np.random.default_rng(19)
        layer = nn.EmbeddingLayer(5, 3, rng, np.float32)
        path = tmp_path / "vectors.vec"
        path.write_text("2 3\napple 1.0 2.0 3.0\nbanana 4 5 6\n")
        assert nn.load_pretrained_embeddings(layer, path, {"apple": 2, "banana": 3}) == 2
        np.testing.assert_allclose(layer.table.data[2:4], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_repeated_and_trailing_spaces_accepted(self, tmp_path):
        rng = np.random.default_rng(20)
        layer = nn.EmbeddingLayer(5, 3, rng, np.float32)
        path = tmp_path / "vectors.txt"
        path.write_text("apple  1.0   2.0 3.0 \nbanana\t4 5 6   \r\n")
        assert nn.load_pretrained_embeddings(layer, path, {"apple": 2, "banana": 3}) == 2
        np.testing.assert_allclose(layer.table.data[2:4], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_vec_header_dimension_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(21)
        layer = nn.EmbeddingLayer(5, 3, rng, np.float32)
        path = tmp_path / "vectors.vec"
        path.write_text("1 300\napple 1.0 2.0 3.0\n")
        with pytest.raises(DataError, match="line 1: header declares 300-dimensional"):
            nn.load_pretrained_embeddings(layer, path, {"apple": 2})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_value_rejected_at_its_line(self, tmp_path, value):
        # 1e39 is finite in float64 but overflows the float32 table.
        layer = nn.EmbeddingLayer(5, 3, np.random.default_rng(22), np.float32)
        before = layer.table.data.copy()
        path = tmp_path / "vectors.txt"
        path.write_text(f"apple 1.0 2.0 3.0\nbanana 4.0 {value} 6.0\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: line 2: embedding value is not finite")):
            nn.load_pretrained_embeddings(layer, path, {"apple": 2, "banana": 3})
        np.testing.assert_array_equal(layer.table.data[3], before[3])

    def test_padding_row_never_overwritten(self, tmp_path):
        rng = np.random.default_rng(18)
        layer = nn.EmbeddingLayer(5, 2, rng, np.float32)
        path = tmp_path / "vectors.txt"
        path.write_text("padlike 5.0 5.0\n")
        nn.load_pretrained_embeddings(layer, path, {"padlike": 0})
        np.testing.assert_array_equal(layer.table.data[0], 0.0)
