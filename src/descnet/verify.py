"""Built-in verification suite: statistical, gradient, and metric checks.

Every check pairs the production path with an independently written oracle
(direct expected-frequency sums, from-definition variance decompositions,
all-pairs concordance counting, central finite differences) and reports the
worst measured deviation against a fixed tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics, nn
from . import model as model_module
from . import numerics as nm
from .corpus import PAD_ID, Document, LabelSpace, Vocabulary, build_vocabulary
from .descriptors import anova_f_score, build_contingency, score_tokens
from .model import DualChannelModel, ModelConfig
from .numerics import Parameter, Tape, Tensor, grad_check


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status}  {self.name}: measured={self.measured:.3e} tolerance={self.tolerance:.0e}"
        return out + (f"  ({self.detail})" if self.detail else "")


# ---------------------------------------------------------------------------
# Oracles: written from the textbook definitions; the model-path oracles share
# everything with production except the one decision each of them checks.
# ---------------------------------------------------------------------------

def chi2_oracle(a: int, b: int, c: int, d: int) -> float:
    """Sum of (observed - expected)^2 / expected over the four cells."""
    n = a + b + c + d
    observed = np.array([[a, b], [c, d]], dtype=np.float64)
    row = observed.sum(axis=1)
    col = observed.sum(axis=0)
    if np.any(row == 0) or np.any(col == 0):
        return 0.0
    total = 0.0
    for i in range(2):
        for j in range(2):
            expected = row[i] * col[j] / n
            total += (observed[i, j] - expected) ** 2 / expected
    return total


def anova_oracle(in_counts, out_counts) -> float:
    """One-way F from the literal sum-of-squares definitions."""
    groups = [np.asarray(in_counts, dtype=np.float64), np.asarray(out_counts, dtype=np.float64)]
    n = sum(g.size for g in groups)
    grand_mean = sum(float(g.sum()) for g in groups) / n
    ss_between = sum(g.size * (g.mean() - grand_mean) ** 2 for g in groups)
    ss_within = sum(float(((g - g.mean()) ** 2).sum()) for g in groups)
    if ss_between == 0.0:
        return 0.0
    if ss_within == 0.0:
        return math.inf
    return (ss_between / 1.0) / (ss_within / (n - 2))


def anova_groups(docs: list[Document], token: str, class_idx: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-document raw counts of ``token``, split into in-class and out-of-class groups."""
    in_counts = [doc.tokens.count(token) for doc in docs if class_idx in doc.labels]
    out_counts = [doc.tokens.count(token) for doc in docs if class_idx not in doc.labels]
    return np.array(in_counts, dtype=np.float64), np.array(out_counts, dtype=np.float64)


def presence_table(docs: list[Document], token: str, class_idx: int) -> tuple[int, int, int, int]:
    """One-vs-rest 2x2 table (a, b, c, d): in-class and out-of-class documents with and without ``token``."""
    in_counts, out_counts = anova_groups(docs, token, class_idx)
    a, b = int(np.count_nonzero(in_counts)), int(np.count_nonzero(out_counts))
    return a, b, in_counts.size - a, out_counts.size - b


def auc_oracle(scores, labels) -> float:
    """All-pairs concordance count; ties contribute one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    positives = scores[labels == 1]
    negatives = scores[labels == 0]
    total = 0.0
    for p in positives:
        for q in negatives:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (positives.size * negatives.size)


def padded_forward(model: DualChannelModel, text_ids, desc_ids, training: bool = False, rng=None) -> Tensor:
    """``DualChannelModel.forward`` without the trim: both channels are embedded, and the BiGRUs run, at the full padded width."""
    text_lengths = (np.asarray(text_ids) != PAD_ID).sum(axis=1)
    desc_lengths = (np.asarray(desc_ids) != PAD_ID).sum(axis=1)
    masks = model._recurrent_masks(text_ids.shape[0], training, rng)
    emb_text = nn.dropout(model.embedding.forward(text_ids), model.config.dropout_rate, training, rng)
    emb_desc = nn.dropout(model.embedding.forward(desc_ids), model.config.dropout_rate, training, rng)
    return model._from_embedded(emb_text, text_lengths, emb_desc, desc_lengths, masks, training, rng)


def gru_input_projections(cell: nn.GRUCell, x_seq: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """x @ W_* + b_* for all timesteps at once."""
    return (
        nm.add(nm.matmul(x_seq, cell.W_z), cell.b_z),
        nm.add(nm.matmul(x_seq, cell.W_r), cell.b_r),
        nm.add(nm.matmul(x_seq, cell.W_h), cell.b_h),
    )


def gru_step(cell: nn.GRUCell, xz_t: Tensor, xr_t: Tensor, xh_t: Tensor, h_prev: Tensor, recurrent_mask: np.ndarray | None = None) -> Tensor:
    """One recurrence step from precomputed input projections, one tape record per operation.

    ``recurrent_mask`` is the per-sequence dropout mask on the recurrent
    connections (gate and candidate paths); the state carry (1 - z) * h_prev
    stays undropped.
    """
    h_rec = nm.mul(h_prev, recurrent_mask) if recurrent_mask is not None else h_prev
    z = nm.sigmoid(nm.add(xz_t, nm.matmul(h_rec, cell.U_z)))
    r = nm.sigmoid(nm.add(xr_t, nm.matmul(h_rec, cell.U_r)))
    h_tilde = nm.tanh(nm.add(xh_t, nm.matmul(nm.mul(r, h_rec), cell.U_h)))
    return nm.add(nm.mul(nm.sub(1.0, z), h_prev), nm.mul(z, h_tilde))


def bigru_oracle(
    forward_cell: nn.GRUCell,
    backward_cell: nn.GRUCell,
    embedded: Tensor,
    lengths: np.ndarray,
    forward_recurrent_mask: np.ndarray | None = None,
    backward_recurrent_mask: np.ndarray | None = None,
) -> Tensor:
    """``nn.bigru_forward`` built op by op on the tape: the path ``nm.gru_sequence`` must match byte for byte."""
    step_mask = nn._valid_mask(lengths, embedded.shape[1], embedded.data.dtype)
    batch, n_steps = embedded.shape[0], embedded.shape[1]
    directions = []
    for cell, reverse, recurrent_mask in (
        (forward_cell, False, forward_recurrent_mask),
        (backward_cell, True, backward_recurrent_mask),
    ):
        hidden = cell.hidden_size
        flat = [nm.reshape(p, (batch * n_steps, hidden)) for p in gru_input_projections(cell, embedded)]
        h = Tensor(np.zeros((batch, hidden), dtype=embedded.data.dtype))
        outputs: list[Tensor | None] = [None] * n_steps
        for t in range(n_steps - 1, -1, -1) if reverse else range(n_steps):
            rows = np.arange(batch) * n_steps + t
            h_new = gru_step(cell, *(nm.embedding_gather(p, rows) for p in flat), h, recurrent_mask)
            # Padded steps emit zeros and reset the state.
            h = outputs[t] = nm.mul(h_new, step_mask[:, t : t + 1])
        # Reshaped after the loop: a state's output gradient then arrives before the next step's, as in the fused adjoint.
        directions.append(nm.concat([nm.reshape(h_t, (batch, 1, hidden)) for h_t in outputs], axis=1))
    return nm.concat(directions, axis=2)


def training_gradients(forward, model: DualChannelModel, text_ids, desc_ids, targets, rng) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and every parameter gradient of one training-mode ``forward(model, text_ids, desc_ids, training, rng)``."""
    model.zero_grad()
    with Tape() as tape:
        loss = model.loss(forward(model, text_ids, desc_ids, True, rng), targets)
    nm.backward(loss, tape)
    return loss.item(), {p.name: p.grad.copy() for p in model.parameters()}


def relative_gap(produced: np.ndarray, expected: np.ndarray) -> float:
    """Largest absolute difference over the largest magnitude of ``expected``; 0 when both are all zero."""
    gap = float(np.abs(produced - expected).max(initial=0.0))
    return gap / max(float(np.abs(expected).max(initial=0.0)), np.finfo(np.float64).tiny)


def relative_error(x: float, y: float) -> float:
    if x == y:  # covers the exact-zero and both-inf cases
        return 0.0
    if math.isinf(x) or math.isinf(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def random_corpus(rng: np.random.Generator) -> tuple[list[Document], Vocabulary, LabelSpace]:
    """Tiny random multi-class corpus: <= 10 docs, <= 15 tokens, 2-4 classes."""
    n_classes = int(rng.integers(2, 5))
    n_docs = int(rng.integers(n_classes, 11))
    pool = [f"w{i}" for i in range(int(rng.integers(3, 16)))]
    labels = LabelSpace(tuple(f"c{j}" for j in range(n_classes)), "multi_class")
    docs = []
    for i in range(n_docs):
        j = i % n_classes  # guarantees every class is populated
        tokens = [pool[k] for k in rng.integers(0, len(pool), size=int(rng.integers(1, 9)))]
        docs.append(Document(i, " ".join(tokens), tokens, frozenset([j])))
    vocab = build_vocabulary(docs, max_size=len(pool) + 2)
    return docs, vocab, labels


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _score_check(name: str, test: str, errors, n_corpora: int, seed: int, min_docs: int = 0) -> CheckResult:
    """Every token-class ``test`` score on ``n_corpora`` random corpora, judged by ``errors(docs, token, class_idx, produced)``."""
    rng = np.random.default_rng(seed)
    worst, comparisons = 0.0, 0
    for _ in range(n_corpora):
        docs, vocab, labels = random_corpus(rng)
        if len(docs) < min_docs:
            continue
        stats = build_contingency(docs, vocab, labels)
        for class_idx, scores in enumerate(score_tokens(stats, test).tolist()):
            for token, produced in zip(stats.tokens, scores):
                worst = max(worst, *errors(docs, token, class_idx, produced))
                comparisons += 1
    return CheckResult(name, worst < 1e-9, worst, 1e-9, f"{comparisons} comparisons over {n_corpora} corpora")


def check_chi2_equivalence(n_corpora: int = 1000, seed: int = 2024) -> CheckResult:
    errors = lambda docs, token, class_idx, produced: [relative_error(produced, chi2_oracle(*presence_table(docs, token, class_idx)))]
    return _score_check("chi2 bulk kernel vs direct (O-E)^2/E oracle", "chi2", errors, n_corpora, seed)


def check_anova_equivalence(n_corpora: int = 1000, seed: int = 2025) -> CheckResult:
    def errors(docs, token, class_idx, produced):
        groups = anova_groups(docs, token, class_idx)
        expected = anova_oracle(*groups)
        return relative_error(produced, expected), relative_error(anova_f_score(*groups), expected)

    # F needs at least one within-group degree of freedom, so corpora of 2 documents are skipped.
    return _score_check("anova F vs from-definition SSB/SSW oracle", "anova", errors, n_corpora, seed, min_docs=3)


def check_worked_statistics() -> CheckResult:
    docs = [
        Document(0, "cat cat", ["cat", "cat"], frozenset([0])),
        Document(1, "cat", ["cat"], frozenset([0])),
        Document(2, "dog", ["dog"], frozenset([1])),
        Document(3, "dog dog", ["dog", "dog"], frozenset([1])),
    ]
    labels = LabelSpace(("A", "B"), "multi_class")
    vocab = build_vocabulary(docs, max_size=10)
    stats = build_contingency(docs, vocab, labels)
    chi2, anova = score_tokens(stats, "chi2"), score_tokens(stats, "anova")
    cat, dog = stats.tokens.index("cat"), stats.tokens.index("dog")
    errors = [
        abs(chi2[0, cat] - 4.0),
        abs(anova[0, cat] - 9.0),
        abs(anova_f_score(*anova_groups(docs, "cat", 0)) - 9.0),
        abs(chi2[1, dog] - 4.0),
    ]
    worst = float(max(errors))
    return CheckResult("worked examples chi2(cat,A)=4 and F(cat,A)=9", worst <= 1e-12, worst, 1e-12)


def _primitive_cases(rng: np.random.Generator):
    a = Parameter(rng.normal(size=(3, 4)), name="a")
    b = Parameter(rng.normal(size=(3, 4)), name="b")
    w = Parameter(rng.normal(size=(4, 2)), name="w")
    table = Parameter(rng.normal(size=(6, 3)), name="table")
    ids = np.array([[1, 2, 4], [5, 1, 3]])
    total = lambda t: nm.sum_over_axis(t, axis=None)
    return [
        ("add", lambda: total(nm.tanh(nm.add(a, b))), [a, b]),
        ("sub", lambda: total(nm.tanh(nm.sub(a, b))), [a, b]),
        ("mul", lambda: total(nm.tanh(nm.mul(a, b))), [a, b]),
        ("matmul", lambda: total(nm.tanh(nm.matmul(a, w))), [a, w]),
        ("tanh", lambda: total(nm.mul(nm.tanh(a), nm.tanh(a))), [a]),
        ("sigmoid", lambda: total(nm.mul(nm.sigmoid(a), b)), [a]),
        ("softmax", lambda: total(nm.mul(nm.softmax(a, axis=1), b)), [a]),
        ("log", lambda: total(nm.log(nm.add(nm.mul(a, a), 1.0))), [a]),
        ("clip", lambda: total(nm.clip(a, -0.5, 0.5)), [a]),
        ("concat", lambda: total(nm.tanh(nm.concat([a, b], axis=1))), [a, b]),
        ("reshape", lambda: total(nm.tanh(nm.reshape(a, (2, 6)))), [a]),
        ("embedding_gather", lambda: total(nm.tanh(nm.embedding_gather(table, ids))), [table]),
        ("max_over_axis", lambda: total(nm.max_over_axis(nm.mul(a, a), axis=1)), [a]),
        ("sum_over_axis", lambda: total(nm.tanh(nm.sum_over_axis(a, axis=1))), [a]),
    ]


def _gradient_check(name: str, cases) -> CheckResult:
    """``grad_check`` over ``(case name, loss, parameters)`` cases; the detail names the first case with the largest error."""
    worst, worst_name = 0.0, ""
    for case, f, params in cases:
        err = grad_check(f, params)
        if err > worst:
            worst, worst_name = err, case
    return CheckResult(name, worst < 1e-6, worst, 1e-6, f"worst: {worst_name}")


def check_primitive_gradients(seed: int = 7) -> CheckResult:
    return _gradient_check("primitive op gradients vs central differences", _primitive_cases(np.random.default_rng(seed)))


def _layer_cases(rng: np.random.Generator):
    total = lambda t: nm.sum_over_axis(t, axis=None)
    dtype = np.float64
    cases = []

    cell = nn.GRUCell(3, 4, rng, dtype, name="cell")
    x_t = Tensor(rng.normal(size=(2, 3)))
    h_prev = Tensor(rng.normal(size=(2, 4)) * 0.5)

    def cell_loss():
        h_t = gru_step(cell, *gru_input_projections(cell, x_t), h_prev)
        return total(nm.mul(h_t, h_t))

    cases.append(("gru_cell", cell_loss, cell.parameters()))

    fwd = nn.GRUCell(3, 4, rng, dtype, name="fwd")
    bwd = nn.GRUCell(3, 4, rng, dtype, name="bwd")
    emb = Tensor(rng.normal(size=(2, 5, 3)))
    lengths = np.array([5, 3])  # one padded example

    def bigru_loss():
        h = nn.bigru_forward(fwd, bwd, emb, lengths)
        return total(nm.mul(h, h))

    cases.append(("bigru_forward", bigru_loss, fwd.parameters() + bwd.parameters()))
    drop = [nn.dropout_mask(rng, (2, 4), 0.3, dtype) for _ in range(2)]

    def bigru_dropout_loss():
        h = nn.bigru_forward(fwd, bwd, emb, lengths, *drop)
        return total(nm.mul(h, h))

    cases.append(("bigru_forward_dropout", bigru_dropout_loss, fwd.parameters() + bwd.parameters()))

    # ids avoid the padding row: it is pinned at zero by contract, so finite
    # differences on it would measure a constraint, not a gradient.
    embedding = nn.EmbeddingLayer(7, 3, rng, dtype, name="emb")
    ids = np.array([[1, 2, 4], [3, 6, 5]])
    cases.append(("embedding", lambda: total(nm.tanh(embedding.forward(ids))), embedding.parameters()))

    attn = nn.AttentionLayer(4, 4, rng, dtype, name="attn")
    hidden = Tensor(rng.normal(size=(2, 5, 4)))
    cases.append(("attention", lambda: total(nn.attention_forward(attn, hidden, lengths)[0]), attn.parameters()))

    hidden_p = Parameter(rng.normal(size=(2, 5, 4)), name="hidden_p")
    cases.append(("max_pool_time", lambda: total(nn.max_pool_time(hidden_p, lengths)), [hidden_p]))
    cases.append(("avg_pool_time", lambda: total(nn.avg_pool_time(hidden_p, lengths)), [hidden_p]))

    dense_soft = nn.DenseLayer(4, 3, "softmax", rng, dtype, name="dsoft")
    dense_sig = nn.DenseLayer(4, 3, "sigmoid", rng, dtype, name="dsig")
    x = Tensor(rng.normal(size=(4, 4)))
    one_hot = np.eye(3)[[0, 2, 1, 0]]
    multi_hot = (rng.random((4, 3)) < 0.5).astype(np.float64)
    cases.append(("dense_softmax_cce", lambda: nn.categorical_cross_entropy(dense_soft.forward(x), one_hot), dense_soft.parameters()))
    cases.append(("dense_sigmoid_bce", lambda: nn.binary_cross_entropy(dense_sig.forward(x), multi_hot), dense_sig.parameters()))
    return cases


def check_layer_gradients(seed: int = 11) -> CheckResult:
    return _gradient_check("layer gradients vs central differences", _layer_cases(np.random.default_rng(seed)))


def toy_model(mode: str = "multi_class", seed: int = 3, dropout_rate: float = 0.0) -> DualChannelModel:
    config = ModelConfig(
        mode=mode,
        d_embed=8,
        gru_units=4,
        dropout_rate=dropout_rate,
        descriptor_dimension=2,
        text_length=6,
        descriptor_length=4,
        vocabulary_max=20,
        seed=seed,
    )
    return DualChannelModel(config, vocab_size=20, n_classes=3, dtype=np.float64)


def check_full_model_gradient(model_seed: int = 14, data_seed: int = 3) -> CheckResult:
    # The default seeds pin a test point whose nonzero gradient entries all sit
    # well above the finite-difference noise floor at epsilon 1e-4 and whose
    # max-pool argmaxes are stable under the probe perturbation; at an
    # arbitrary point, entries below ~1e-8 are unresolvable by central
    # differences regardless of adjoint correctness.
    rng = np.random.default_rng(data_seed)
    model = toy_model(seed=model_seed)
    text_ids = rng.integers(1, 20, size=(3, 6))
    text_ids[1, 4:] = 0
    desc_ids = rng.integers(1, 20, size=(3, 4))
    desc_ids[2, :] = 0  # one all-padding descriptor channel
    targets = np.eye(3)[[0, 1, 2]]

    def f():
        return nn.categorical_cross_entropy(model.forward(text_ids, desc_ids), targets)

    err = grad_check(f, model.parameters(), epsilon=1e-4)
    return CheckResult("full dual-channel model gradient (toy sizes)", err < 1e-4, err, 1e-4)


def check_trimmed_forward(seed: int = 5) -> CheckResult:
    """The trimmed ``forward`` against :func:`padded_forward`, on a batch where both channels trim."""
    rng = np.random.default_rng(seed)
    text_ids = rng.integers(1, 20, size=(3, 6))
    text_ids[:, 4:] = 0
    text_ids[1, 2:] = 0
    desc_ids = np.zeros((3, 4), dtype=np.int64)
    desc_ids[0, :2] = rng.integers(1, 20, size=2)
    desc_ids[1, :1] = rng.integers(1, 20, size=1)
    targets = np.eye(3)[[0, 1, 2]]

    model = toy_model()
    worst_prob = relative_gap(model.forward(text_ids, desc_ids).data, padded_forward(model, text_ids, desc_ids).data)
    model = toy_model(dropout_rate=0.3)
    trimmed_rng, padded_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    _, trimmed = training_gradients(DualChannelModel.forward, model, text_ids, desc_ids, targets, trimmed_rng)
    _, padded = training_gradients(padded_forward, model, text_ids, desc_ids, targets, padded_rng)
    worst_grad = max(relative_gap(trimmed[name], padded[name]) for name in padded)
    same_stream = trimmed_rng.bit_generator.state == padded_rng.bit_generator.state
    passed = worst_prob <= 1e-12 and worst_grad <= 1e-10 and same_stream
    return CheckResult(
        "trimmed forward vs padded-width oracle (f64 toy model)",
        passed,
        max(worst_prob, worst_grad),
        1e-10,
        f"probabilities {worst_prob:.1e} (tolerance 1e-12), gradients {worst_grad:.1e}, "
        f"random stream {'kept' if same_stream else 'diverged'}",
    )


def bigru_arrays(bigru, cells, x: Parameter, lengths, masks, weight: np.ndarray) -> list[np.ndarray]:
    """Output, every parameter gradient and the input gradient of ``sum(bigru(...) * weight)``."""
    params = cells[0].parameters() + cells[1].parameters() + [x]
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        out = bigru(*cells, x, lengths, *masks)
        loss = nm.sum_over_axis(nm.mul(out, weight), axis=None)
    nm.backward(loss, tape)
    return [out.data] + [p.grad for p in params]


def check_fused_gru(seed: int = 19) -> CheckResult:
    """``nn.bigru_forward`` (one ``nm.gru_sequence`` record per direction) against :func:`bigru_oracle`, byte for byte.

    Shapes include a single row, one step, one input feature and one hidden
    unit, where BLAS switches from matrix-matrix to matrix-vector kernels;
    lengths include 0, 1 and the full width; each case runs with and
    without recurrent dropout, in float32 and float64.
    """
    rng = np.random.default_rng(seed)
    shapes = [(1, 5, 3, 4), (2, 5, 3, 4), (32, 6, 8, 8), (2, 1, 3, 4), (2, 5, 1, 4), (2, 5, 3, 1)]
    cases, differing, worst = 0, 0, 0.0
    for dtype in (np.float32, np.float64):
        for batch, n_steps, d, hidden in shapes:
            cells = nn.GRUCell(d, hidden, rng, dtype, name="fwd"), nn.GRUCell(d, hidden, rng, dtype, name="bwd")
            patterns = {(0,) * batch, (1,) * batch, (n_steps,) * batch, tuple(np.resize([0, 1, n_steps], batch))}
            for lengths in sorted(patterns):
                for rate in (0.0, 0.3):
                    x = Parameter(rng.normal(size=(batch, n_steps, d)).astype(dtype), name="x")
                    weight = rng.normal(size=(batch, n_steps, 2 * hidden)).astype(dtype)
                    masks = [nn.dropout_mask(rng, (batch, hidden), rate, dtype) for _ in range(2)] if rate else []
                    fused = bigru_arrays(nn.bigru_forward, cells, x, np.array(lengths), masks, weight)
                    oracle = bigru_arrays(bigru_oracle, cells, x, np.array(lengths), masks, weight)
                    for produced, expected in zip(fused, oracle):
                        if produced.dtype != expected.dtype or produced.tobytes() != expected.tobytes():
                            differing += 1
                            worst = max(worst, relative_gap(produced.astype(np.float64), expected.astype(np.float64)))
                    cases += 1
    return CheckResult(
        "fused GRU vs op-by-op tape oracle, byte for byte",
        differing == 0,
        worst,
        0.0,
        f"{cases} cases in f32 and f64, {differing} arrays not byte-identical",
    )


def check_probability_invariants(n_trials: int = 1000, seed: int = 17) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        batch = int(rng.integers(1, 5))
        n_steps = int(rng.integers(1, 7))
        width = int(rng.integers(1, 6))

        logits = Tensor((rng.normal(size=(batch, width)) * 10).astype(np.float32))
        rows = nm.softmax(logits, axis=1).data
        if np.any(rows <= 0):
            return CheckResult("probability invariants (softmax/sigmoid/attention)", False, math.inf, 1e-6, "softmax <= 0")
        worst = max(worst, float(np.abs(rows.sum(axis=1) - 1.0).max()))

        head = nn.DenseLayer(width, width, "sigmoid", rng, np.float32)
        sig = head.forward(Tensor(rng.normal(size=(batch, width)).astype(np.float32))).data
        if np.any(sig <= 0.0) or np.any(sig >= 1.0):
            return CheckResult("probability invariants (softmax/sigmoid/attention)", False, math.inf, 1e-6, "sigmoid out of (0,1)")

        layer = nn.AttentionLayer(width, width, rng, np.float32)
        hidden = Tensor(rng.normal(size=(batch, n_steps, width)).astype(np.float32))
        lengths = rng.integers(1, n_steps + 1, size=batch)
        _, weights = nn.attention_forward(layer, hidden, lengths)
        mask = np.arange(n_steps)[None, :] < lengths[:, None]
        if np.any(weights.data < 0):
            return CheckResult("probability invariants (softmax/sigmoid/attention)", False, math.inf, 1e-6, "negative attention weight")
        worst = max(worst, float(np.abs((weights.data * mask).sum(axis=1) - 1.0).max()))
    return CheckResult("probability invariants (softmax/sigmoid/attention)", worst < 1e-6, worst, 1e-6, f"{n_trials} trials")


def check_auc_equivalence(n_instances: int = 100, seed: int = 23) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    hand_cases = [
        (np.array([0.9, 0.8, 0.4, 0.3]), np.array([1, 0, 1, 0]), 0.75),
        (np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]), 1.0),
        (np.array([0.5, 0.5, 0.5, 0.5]), np.array([1, 0, 1, 0]), 0.5),
    ]
    for scores, labels, expected in hand_cases:
        worst = max(worst, abs(metrics.roc_auc(scores, labels) - expected))
    for _ in range(n_instances):
        n = int(rng.integers(2, 201))
        # discrete score pools force ties so the half-credit path is exercised
        scores = rng.choice(np.round(rng.random(max(2, n // 3)), 3), size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst = max(worst, abs(metrics.roc_auc(scores, labels) - auc_oracle(scores, labels)))
    return CheckResult("roc_auc vs all-pairs concordance oracle", worst < 1e-12, worst, 1e-12, f"{n_instances} instances + hand cases")


def scaled_carry(step_adjoint):
    """``step_adjoint`` with the gradient it carries back in time scaled by 1.01: the fused-BPTT fault."""

    def corrupted(*args):
        *gate_adjoints, g_prev = step_adjoint(*args)
        return (*gate_adjoints, None if g_prev is None else g_prev * 1.01)

    return corrupted


def _corrupted_tanh(a: Tensor) -> Tensor:
    """Correct forward, adjoint scaled by 1.01: the fault-injection hook."""
    data = np.tanh(a.data)

    def backward_fn(g):
        nm._accum(a, g * (1.0 - data * data) * 1.01)

    return nm._emit(data, (a,), backward_fn)


def run_all(quick: bool = False, inject_fault: bool = False) -> list[CheckResult]:
    """Run every check; ``quick`` shrinks the sample counts for smoke testing.

    ``inject_fault`` deliberately corrupts the adjoint of ``nm.tanh`` (which
    the op-by-op oracle and attention use) and, separately, the fused GRU's
    BPTT, and makes the batch trim drop one valid step for the duration,
    which must make the gradient checks, the fused-GRU check and the trim
    check fail — used to prove the checks can actually catch a broken
    adjoint or a wrong trim.
    """
    n_corpora = 100 if quick else 1000
    n_trials = 100 if quick else 1000
    original_tanh, original_step_adjoint, original_trim = nm.tanh, nm._gru_step_adjoint, model_module.trim_length
    if inject_fault:
        nm.tanh = _corrupted_tanh
        nm._gru_step_adjoint = scaled_carry(original_step_adjoint)
        model_module.trim_length = lambda lengths: original_trim(lengths) - 1
    try:
        results = [
            check_chi2_equivalence(n_corpora),
            check_anova_equivalence(n_corpora),
            check_worked_statistics(),
            check_primitive_gradients(),
            check_layer_gradients(),
            check_full_model_gradient(),
            check_trimmed_forward(),
            check_fused_gru(),
            check_probability_invariants(n_trials),
            check_auc_equivalence(),
        ]
    finally:
        nm.tanh, nm._gru_step_adjoint, model_module.trim_length = original_tanh, original_step_adjoint, original_trim
    return results
