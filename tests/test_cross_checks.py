"""Cross-checks against independent implementations.

Gradient checks prove the adjoints match the forwards; these tests pin the
forwards themselves against literal re-transcriptions of the layer equations
and against scipy/scikit-learn where an equivalent exists. scipy and
scikit-learn are optional: the tests skip if they are absent.
"""

import numpy as np
import pytest

from descnet import nn, verify
from descnet import numerics as nm
from descnet.metrics import precision_recall_f1, roc_auc
from descnet.numerics import Parameter, Tensor, adam_step


def sigmoid_ref(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestGRUEquationTranscription:
    """The cell must compute exactly:
    z = s(xWz + hUz + bz); r = s(xWr + hUr + br);
    cand = tanh(xWh + (r*h)Uh + bh); h' = (1-z)*h + z*cand.
    """

    def reference_step(self, cell, x, h):
        z = sigmoid_ref(x @ cell.W_z.data + h @ cell.U_z.data + cell.b_z.data)
        r = sigmoid_ref(x @ cell.W_r.data + h @ cell.U_r.data + cell.b_r.data)
        cand = np.tanh(x @ cell.W_h.data + (r * h) @ cell.U_h.data + cell.b_h.data)
        return (1.0 - z) * h + z * cand

    def test_random_cells_match_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            cell = nn.GRUCell(3, 5, rng, np.float64)
            x = rng.normal(size=(4, 3))
            h = rng.normal(size=(4, 5))
            got = verify.gru_step(cell, *verify.gru_input_projections(cell, Tensor(x)), Tensor(h)).data
            np.testing.assert_allclose(got, self.reference_step(cell, x, h), atol=1e-12)

    def test_bigru_matches_reference_loop_with_masking(self):
        rng = np.random.default_rng(32)
        fwd = nn.GRUCell(3, 4, rng, np.float64)
        bwd = nn.GRUCell(3, 4, rng, np.float64)
        emb = rng.normal(size=(3, 6, 3))
        lengths = np.array([6, 4, 0])
        got = nn.bigru_forward(fwd, bwd, Tensor(emb), lengths).data

        expected = np.zeros((3, 6, 8))
        for b in range(3):
            n = lengths[b]
            h = np.zeros(4)
            for t in range(n):
                h = self.reference_step(fwd, emb[b, t][None, :], h[None, :])[0]
                expected[b, t, :4] = h
            h = np.zeros(4)
            for t in range(n - 1, -1, -1):
                h = self.reference_step(bwd, emb[b, t][None, :], h[None, :])[0]
                expected[b, t, 4:] = h
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestAttentionTranscription:
    def test_matches_reference(self):
        rng = np.random.default_rng(33)
        layer = nn.AttentionLayer(4, 3, rng, np.float64)
        hidden = rng.normal(size=(2, 5, 4))
        lengths = np.array([5, 2])
        got_context, got_weights = nn.attention_forward(layer, Tensor(hidden), lengths)

        for b in range(2):
            n = lengths[b]
            u = np.tanh(hidden[b, :n] @ layer.proj.data + layer.bias.data)
            scores = u @ layer.context.data
            e = np.exp(scores - scores.max())
            weights = e / e.sum()
            context = (weights[:, None] * hidden[b, :n]).sum(axis=0)
            np.testing.assert_allclose(got_weights.data[b, :n], weights, atol=1e-12)
            np.testing.assert_allclose(got_context.data[b], context, atol=1e-12)


class TestLossTranscription:
    def test_cce_matches_reference(self):
        rng = np.random.default_rng(34)
        probs = nm.softmax(Tensor(rng.normal(size=(6, 4))))
        targets = np.eye(4)[rng.integers(0, 4, 6)]
        got = nn.categorical_cross_entropy(probs, targets).item()
        p = np.clip(probs.data, 1e-7, 1 - 1e-7)
        expected = float(np.mean([-np.log(p[i][targets[i].argmax()]) for i in range(6)]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_bce_matches_reference(self):
        rng = np.random.default_rng(35)
        probs = nm.sigmoid(Tensor(rng.normal(size=(6, 4))))
        targets = (rng.random((6, 4)) < 0.5).astype(float)
        got = nn.binary_cross_entropy(probs, targets).item()
        p = np.clip(probs.data, 1e-7, 1 - 1e-7)
        expected = float(np.mean(-(targets * np.log(p) + (1 - targets) * np.log(1 - p))))
        assert got == pytest.approx(expected, abs=1e-12)


class TestAdamTranscription:
    def test_trajectory_matches_reference(self):
        rng = np.random.default_rng(36)
        p = Parameter(rng.normal(size=7), name="p")
        theta = p.data.copy()
        m = np.zeros(7)
        v = np.zeros(7)
        lr, b1, b2, eps = 2e-3, 0.9, 0.999, 1e-8
        moments = {"p": (np.zeros(7), np.zeros(7))}
        for step in range(1, 30):
            g = rng.normal(size=7)
            p.grad = g.copy()
            adam_step([p], moments, lr, step_count=step)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1**step)) / (np.sqrt(v / (1 - b2**step)) + eps)
            np.testing.assert_allclose(p.data, theta, atol=1e-14)


class TestAgainstScipy:
    def test_softmax_matches(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(37)
        x = rng.normal(size=(5, 7)) * 10
        got = nm.softmax(Tensor(x)).data
        np.testing.assert_allclose(got, special.softmax(x, axis=1), atol=1e-12)

    def test_sigmoid_matches_expit(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(38)
        x = rng.normal(size=200) * 20
        got = nm.sigmoid(Tensor(x)).data
        np.testing.assert_allclose(got, special.expit(x), atol=1e-12)

    def test_anova_f_matches_f_oneway(self, anova_of_counts):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(39)
        for _ in range(50):
            a = rng.integers(0, 6, size=rng.integers(2, 12)).astype(float)
            b = rng.integers(0, 6, size=rng.integers(2, 12)).astype(float)
            got = anova_of_counts(a, b)
            expected = stats.f_oneway(a, b).statistic
            if np.isnan(expected) or np.isinf(got):
                # degenerate cases: scipy emits nan where this package pins 0 or +inf
                continue
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestAgainstSklearn:
    def test_roc_auc_matches(self):
        sk = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(4, 120))
            scores = rng.choice(np.round(rng.random(6), 2), size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert roc_auc(scores, labels) == pytest.approx(
                sk.roc_auc_score(labels, scores), abs=1e-12
            )

    def test_prf_matches_all_averagings(self):
        sk = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(41)
        n_classes = 4
        for _ in range(20):
            n = int(rng.integers(5, 60))
            gold = (rng.random((n, n_classes)) < 0.4).astype(int)
            pred = (rng.random((n, n_classes)) < 0.4).astype(int)
            gold_sets = [set(np.nonzero(row)[0]) for row in gold]
            pred_sets = [set(np.nonzero(row)[0]) for row in pred]
            result = precision_recall_f1(pred_sets, gold_sets, n_classes)
            for averaging in ("macro", "micro", "weighted"):
                expected = sk.precision_recall_fscore_support(
                    gold, pred, average=averaging, zero_division=0
                )
                got = getattr(result, averaging)
                np.testing.assert_allclose(got, expected[:3], atol=1e-12)
