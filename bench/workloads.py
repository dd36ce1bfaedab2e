"""The benchmark's three workloads: train-news, extract-wide and serve-short.

Each workload generates its inputs from ``descnet.synth`` with the run's seed
(untimed), times a few set-ups, then runs its timed operations, set-ups
included, in interleaved cycles until the run's seconds are spent. Every
timed output is checked; a failed check or an operation that raises counts
against ``error_rate``. Gated timings, ``setup_s`` included, are minimums over
many equal-work samples (see bench/README.md).

descnet is called through module attributes (``model.train``,
``descriptors.extract_descriptors``, ...) so that the tracer's wrappers and
the tests' deliberate faults take effect.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from descnet import corpus, descriptors, metrics, model, numerics, synth, verify
from descnet.corpus import LabelSpace

now = time.perf_counter


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    n: int

    def __post_init__(self):
        self.value = float(self.value)


@dataclass
class Outcome:
    """What one workload run measured.

    ``end_to_end`` holds the metrics BENCHMARK.json names (the same names on
    every workload); ``named`` holds the workload's own names for them plus
    the ones that are printed but not gated.
    """

    end_to_end: dict[str, Metric] = field(default_factory=dict)
    named: list[Metric] = field(default_factory=list)
    primary_kind: str | None = None
    latency_traced: list[float] = field(default_factory=list)
    latency_untraced: list[float] = field(default_factory=list)


class Run:
    """Phase timing, alternating tracing and correctness counts for one run."""

    def __init__(self, seconds: float, tracer, tiny: bool, workdir: Path, seed: int):
        self.seconds = seconds
        self.tracer = tracer
        self.tiny = tiny
        self.workdir = workdir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def _once(self, name: str, op, check, done: list) -> bool:
        """Run and time ``op(i)``, then ``check(i, result)``; False if it raised.

        ``i`` counts the operation's earlier repetitions. When tracing, odd
        repetitions are traced and even ones are not, so traced and untraced
        timings come from the same run.
        """
        i = len(done)
        traced = self.tracer is not None and i % 2 == 1
        if name == "setup":
            # Untimed: a set-up then starts from a collected heap wherever it
            # runs, as at program start. Otherwise about half of the set-ups
            # inside a training round paid for a full collection that earlier
            # work left pending (about 40 of 200 ms).
            gc.collect()
        try:
            with self.tracer.op(name, traced) if self.tracer is not None else nullcontext():
                t0 = now()
                result = op(i)
                elapsed = now() - t0
        except Exception:  # an operation the program failed counts against error_rate
            traceback.print_exc(file=sys.stderr)
            self.check(False, f"{name}[{i}] raised")
            return False
        done.append((elapsed, traced, result))
        if check is not None:
            check(i, result)
        return True

    def times(self, name: str, n: int, op, check=None) -> list[tuple[float, bool, object]]:
        """Run ``op`` ``n`` times (at least twice when tracing).

        Returns (seconds, traced, result) per repetition; stops at the first
        one that raises.
        """
        done: list[tuple[float, bool, object]] = []
        for _ in range(max(n, 2 if self.tracer is not None else 1)):
            if not self._once(name, op, check, done):
                break
        return done

    def cycle(self, budget: float, ops: list[tuple[str, object, object, int]]) -> dict[str, list]:
        """Interleave several operations until ``budget`` seconds are spent.

        Each cycle runs every (name, op, check, count) entry ``count`` times,
        so every operation samples the whole run rather than one stretch of
        it; the machine's speed drifts over seconds. Runs at least two cycles
        and stops before one that would overrun, or at the first operation
        that raises.
        """
        done: dict[str, list] = {name: [] for name, *_ in ops}
        start = now()
        cycles, cycle_s = 0, 0.0
        while cycles < 2 or (now() - start) + cycle_s <= budget:
            t0 = now()
            for name, op, check, count in ops:
                for _ in range(count):
                    if not self._once(name, op, check, done[name]):
                        return done
            cycles, cycle_s = cycles + 1, now() - t0
        return done


def _untraced(reps):
    return [r for r in reps if not r[1]]


def tail_percentile(n: int, cap: int) -> int:
    """Highest whole percentile, at most ``cap``, with at least ten samples beyond it."""
    return max(0, min(cap, math.floor(100 * (1 - 10 / n)))) if n else 0


def _latency(prefix: str, ms: list[float], cap: int = 0) -> list[Metric]:
    """Minimum, median and, up to ``cap``, the highest tail percentile with ten samples beyond it."""
    out = [
        Metric(f"{prefix}_min", min(ms), "ms", len(ms)),
        Metric(f"{prefix}_p50", statistics.median(ms), "ms", len(ms)),
    ]
    q = tail_percentile(len(ms), cap)
    if q > 50:
        out.append(Metric(f"{prefix}_p{q}", np.percentile(ms, q), "ms", len(ms)))
    return out


def _rate(name: str, docs: float, seconds: float, n: int) -> Metric:
    return Metric(name, docs / seconds, "docs/s", n)


def _setup_metric(setups, per_sample: int = 1) -> Metric:
    """The fastest untraced set-up sample, per set-up when a sample holds ``per_sample`` of them."""
    samples = [r[0] for r in _untraced(setups)]
    return Metric("setup_s", min(samples) / per_sample, "s", len(samples))


def _chunks(n: int, size: int) -> list[range]:
    return [range(start, min(start + size, n)) for start in range(0, n, size)]


# ---------------------------------------------------------------------------
# train-news
# ---------------------------------------------------------------------------


class TrainRound(NamedTuple):
    step_s: list[float]
    heldout_s: list[tuple[int, float]]  # (docs, seconds) per scoring call
    probs: np.ndarray
    accuracy: float
    losses: list[float]
    setup_s: list[float]


def train_news(run: Run) -> Outcome:
    """Train the dual-channel model on a news-like corpus; score a held-out split."""
    # 63 full batches and eight 125-doc held-out calls: every timed sample does equal work.
    n_train, n_val, n_heldout = (256, 32, 64) if run.tiny else (2016, 500, 1000)
    dims = dict(d_embed=8, gru_units=4) if run.tiny else dict(d_embed=64, gru_units=64)
    rows, names = synth.news_like_corpus(n_train + n_val + n_heldout, topical_fraction=0.05, seed=run.seed)
    labels = LabelSpace(tuple(names), "multi_class")
    docs = synth.to_documents(rows, labels)
    train_docs = docs[:n_train]
    val_docs = docs[n_train : n_train + n_val]
    heldout_docs = docs[n_train + n_val :]
    cfg = model.ModelConfig(
        text_length=40, batch_size=32, descriptor_dimension=100, max_epochs=1, patience=0, seed=run.seed, **dims
    )

    state = {}  # each set-up replaces the last one's, so repeats do not pile up in memory

    def setup(_):
        state["vocab"] = vocab = corpus.build_vocabulary(train_docs, cfg.vocabulary_max)
        desc = descriptors.extract_descriptors(train_docs, vocab, labels, "chi2", cfg.descriptor_dimension)
        state["encoded"] = [model.encode_examples(d, vocab, desc, labels, cfg) for d in (train_docs, val_docs, heldout_docs)]
        model.DualChannelModel(cfg, len(vocab), len(labels))

    setups = run.times("setup", 3, setup)
    vocab, (train_ex, val_ex, heldout_ex) = state["vocab"], state["encoded"]
    gold = [int(ex.target.argmax()) for ex in heldout_ex]
    heldout_calls = _chunks(n_heldout, 125)
    n_steps = math.ceil(n_train / cfg.batch_size)

    # Step boundaries come from a hook on the optimizer update inside
    # model.train. Every eighth step the hook also times one held-out scoring
    # call on the current model, and every other step otherwise one set-up,
    # so that both sample the whole round rather than only its ends. A set-up
    # varies most from sample to sample, so it gets the most samples. Both
    # run outside the tape and draw no random numbers from training's
    # generator, so training is unchanged.
    step_s: list[float] = []
    heldout_s: list[tuple[int, float]] = []  # (docs, seconds) per scoring call
    setup_times: list[float] = []
    clock = [0.0]

    def score_heldout(net, idx: range) -> np.ndarray:
        t0 = now()
        probs = model.predict_probabilities(net, heldout_ex[idx.start : idx.stop])
        heldout_s.append((len(idx), now() - t0))
        return probs

    def train_round(_):
        net = model.DualChannelModel(cfg, len(vocab), len(labels))
        step_s.clear()
        heldout_s.clear()
        setup_times.clear()
        # The hook is installed inside the operation, so in a traced round it
        # wraps the tracer's numerics.adam span rather than running inside it.
        adam_step = numerics.adam_step

        def stamped_adam_step(*args, **kwargs):
            adam_step(*args, **kwargs)
            step_s.append(now() - clock[0])
            if len(step_s) % 8 == 0:
                score_heldout(net, heldout_calls[len(step_s) // 8 % len(heldout_calls)])
            elif len(step_s) % 2 == 0:
                gc.collect()  # untimed, as before every set-up (see Run._once)
                t0 = now()
                setup(None)
                setup_times.append(now() - t0)
            clock[0] = now()

        numerics.adam_step = stamped_adam_step
        try:
            clock[0] = now()
            model.train(net, train_ex, val_ex)
        finally:
            numerics.adam_step = adam_step
        probs = np.concatenate([score_heldout(net, idx) for idx in heldout_calls])
        accuracy = metrics.accuracy(list(probs.argmax(axis=1)), gold)
        return TrainRound(list(step_s), list(heldout_s), probs, accuracy, net.history[-1].batch_losses, list(setup_times))

    def check(i, result):
        steps, probs, losses = result.step_s, result.probs, result.losses
        run.check(len(steps) == n_steps, f"round {i}: {len(steps)} optimizer steps, expected {n_steps}")
        for k, loss in enumerate(losses):
            run.check(math.isfinite(loss), f"round {i} step {k}: non-finite loss {loss}")
        for k, row_sum in enumerate(probs.sum(axis=1)):
            run.check(abs(row_sum - 1.0) <= 1e-5, f"round {i} held-out row {k}: probabilities sum to {row_sum}")

    rounds = run.cycle(run.seconds, [("train_round", train_round, check, 1)])["train_round"]
    # a set-up inside a round counts as untraced when its round is
    setup_s = _setup_metric(setups + [(s, traced, None) for _, traced, r in rounds for s in r.setup_s])

    out = Outcome(primary_kind="train")
    untraced = [r[2] for r in _untraced(rounds)]
    step_ms = [1e3 * s for r in untraced for s in r.step_s]
    heldout_ms = [1e3 * s for r in untraced for _, s in r.heldout_s]
    heldout_docs = sum(n for r in untraced for n, _ in r.heldout_s)
    out.latency_untraced = step_ms
    out.latency_traced = [1e3 * s for _, traced, r in rounds if traced for s in r.step_s]
    step = _latency("train_step_ms", step_ms, cap=90)
    heldout = _latency("heldout_ms", heldout_ms)
    out.named = [
        setup_s,
        _rate("train_docs_per_s", n_train * len(untraced), sum(step_ms) / 1e3, len(step_ms)),
        *step,
        _rate("heldout_docs_per_s", heldout_docs, sum(heldout_ms) / 1e3, len(heldout_ms)),
        *heldout,
        Metric("heldout_accuracy", statistics.median(r.accuracy for r in untraced), "frac", n_heldout),
    ]
    out.end_to_end = {"setup_s": setup_s, "op_ms_min": step[0], "op2_ms_min": heldout[0]}
    return out


# ---------------------------------------------------------------------------
# extract-wide
# ---------------------------------------------------------------------------


def _descriptor_oracle(docs, test: str, token: str, class_idx: int) -> float:
    """The score recomputed from the documents with verify's textbook oracles."""
    in_counts, out_counts = [], []
    for doc in docs:
        (in_counts if class_idx in doc.labels else out_counts).append(doc.tokens.count(token))
    if test == "anova":
        return verify.anova_oracle(in_counts, out_counts)
    a = sum(1 for c in in_counts if c)
    b = sum(1 for c in out_counts if c)
    return verify.chi2_oracle(a, b, len(in_counts) - a, len(out_counts) - b)


def _reference_scores(docs, vocab, n_classes: int, min_df: int = 2) -> dict[str, list[dict[str, float]]]:
    """Every candidate token's chi2 and ANOVA score per class, from textbook formulas.

    Candidates are vocabulary tokens in at least ``min_df`` documents. Chi2 is
    the sum of (observed - expected)^2 / expected over the presence table;
    ANOVA is the two-group F from per-group sums of counts and of squares.
    """
    index: dict[str, int] = {}
    tok, doc, count = [], [], []
    for d, document in enumerate(docs):
        for token, c in Counter(t for t in document.tokens if t in vocab).items():
            tok.append(index.setdefault(token, len(index)))
            doc.append(d)
            count.append(c)
    tok, doc, count = np.array(tok), np.array(doc), np.array(count, dtype=np.float64)
    size = len(index)
    df = np.bincount(tok, minlength=size).astype(np.float64)
    s_all = np.bincount(tok, count, size)
    q_all = np.bincount(tok, count * count, size)
    names = np.array(list(index), dtype=object)
    keep = df >= min_df
    n = len(docs)
    out: dict[str, list[dict[str, float]]] = {"chi2": [], "anova": []}
    with np.errstate(divide="ignore", invalid="ignore"):
        for class_idx in range(n_classes):
            member = np.array([class_idx in document.labels for document in docs])
            inside = member[doc].astype(np.float64)
            n_in = float(member.sum())
            n_out = n - n_in
            # chi2 over the 2x2 presence table [[a, b], [c, d]]
            a = np.bincount(tok, inside, size)
            table = [a, df - a, n_in - a, n_out - (df - a)]
            rows = [df, df, n - df, n - df]
            cols = [n_in, n_out, n_in, n_out]
            chi2 = sum((o - r * c / n) ** 2 / (r * c / n) for o, r, c in zip(table, rows, cols))
            chi2 = np.where((df == 0) | (df == n), 0.0, chi2)
            # two-group one-way ANOVA F
            s_in, q_in = np.bincount(tok, count * inside, size), np.bincount(tok, count * count * inside, size)
            s_out, q_out = s_all - s_in, q_all - q_in
            grand = s_all / n
            ss_between = n_in * (s_in / n_in - grand) ** 2 + n_out * (s_out / n_out - grand) ** 2
            ss_within = np.maximum(q_in - s_in**2 / n_in, 0.0) + np.maximum(q_out - s_out**2 / n_out, 0.0)
            anova = np.where(ss_within == 0.0, np.inf, ss_between / (ss_within / (n - 2)))
            anova = np.where(s_in / n_in == s_out / n_out, 0.0, anova)
            for test, scores in (("chi2", chi2), ("anova", anova)):
                out[test].append(dict(zip(names[keep], scores[keep].tolist())))
    return out


def extract_wide(run: Run) -> Outcome:
    """Extract chi2 and ANOVA descriptors from a wide-vocabulary corpus file."""
    n_docs, n = (400, 10) if run.tiny else (2_500, 100)
    width = dict(topical_per_class=50, n_shared=100) if run.tiny else dict(topical_per_class=5000, n_shared=10_000)
    rows, names = synth.news_like_corpus(n_docs, seed=run.seed, **width)
    labels = LabelSpace(tuple(names), "multi_class")
    csv_path = run.workdir / "corpus.csv"
    synth.write_csv(rows, csv_path)
    out_path = run.workdir / "descriptors.tsv"
    sample_rng = np.random.default_rng([run.seed, 7])

    state = {}  # each set-up replaces the last one's, so repeats do not pile up in memory

    def setup(_):
        state["docs"] = corpus.load_dataset(csv_path, "csv", labels)
        state["vocab"] = corpus.build_vocabulary(state["docs"], model.ModelConfig.vocabulary_max)

    setups = run.times("setup", 2, setup)
    docs, vocab = state["docs"], state["vocab"]
    reference = _reference_scores(docs, vocab, len(labels))
    nth_best = {
        test: [sorted(scores.values(), reverse=True)[min(n, len(scores)) - 1] for scores in per_class]
        for test, per_class in reference.items()
    }

    def extract_pair(_):
        seconds, results = {}, {}
        for test in ("chi2", "anova"):
            t0 = now()
            results[test] = descriptors.extract_descriptors(docs, vocab, labels, test, n)
            descriptors.save_descriptors(results[test], out_path)
            seconds[test] = now() - t0
        return seconds, results

    def check(i, result):
        """Each list is a top-n of the reference ranking; sampled scores match verify's oracles."""
        for test, desc in result[1].items():
            problems = []
            for class_idx, entries in enumerate(desc.entries):
                scores = [score for _, score in entries]
                ref = reference[test][class_idx]
                if len(entries) != n or len({token for token, _ in entries}) != len(entries):
                    problems.append(f"class {class_idx} has {len(entries)} entries, not {n} distinct ones")
                if any(later > earlier for earlier, later in zip(scores, scores[1:])):
                    problems.append(f"class {class_idx} scores increase")
                wrong = [t for t, score in entries if t not in ref or verify.relative_error(score, ref[t]) > 1e-9]
                if wrong:
                    problems.append(f"class {class_idx}: {len(wrong)} entries off the reference, e.g. {wrong[0]!r}")
                elif entries and min(scores) < nth_best[test][class_idx] * (1 - 1e-9):
                    problems.append(
                        f"class {class_idx}: lowest score {min(scores)!r} is below the reference's "
                        f"n-th best {nth_best[test][class_idx]!r}, so a better candidate is missing"
                    )
                for rank in sample_rng.choice(len(entries), size=min(3, len(entries)), replace=False):
                    token, score = entries[rank]
                    expected = _descriptor_oracle(docs, test, token, class_idx)
                    if verify.relative_error(score, expected) > 1e-9:
                        problems.append(f"class {class_idx} {token!r}: {score!r} vs oracle {expected!r}")
            run.check(not problems, f"pair {i} {test}: " + "; ".join(problems))

    done = run.cycle(run.seconds, [("setup", setup, None, 2), ("extract_pair", extract_pair, check, 1)])
    pairs = done["extract_pair"]
    setup_s = _setup_metric(setups + done["setup"])
    out = Outcome()
    ms = {test: [1e3 * r[2][0][test] for r in _untraced(pairs)] for test in ("chi2", "anova")}
    out.latency_untraced = ms["chi2"]
    out.latency_traced = [1e3 * r[2][0]["chi2"] for r in pairs if r[1]]
    latency = {test: _latency(f"extract_{test}_ms", ms[test]) for test in ms}
    out.named = [setup_s]
    for test in ms:
        out.named.append(_rate(f"extract_{test}_docs_per_s", n_docs * len(ms[test]), sum(ms[test]) / 1e3, len(ms[test])))
        out.named += latency[test]
    out.end_to_end = {"setup_s": setup_s, "op_ms_min": latency["chi2"][0], "op2_ms_min": latency["anova"][0]}
    return out


# ---------------------------------------------------------------------------
# serve-short
# ---------------------------------------------------------------------------


def _multi_label_rows(n_docs: int, n_classes: int, seed: int) -> tuple[list[tuple[str, str]], list[str]]:
    """Join 1-2 short news-like docs, and their labels with '|', per document."""
    rows, names = synth.news_like_corpus(2 * n_docs, n_classes=n_classes, min_len=5, max_len=20, seed=seed)
    rng = np.random.default_rng([seed, 3])
    joined, pos = [], 0
    while len(joined) < n_docs:
        parts = rows[pos : pos + int(rng.integers(1, 3))]
        pos += len(parts)
        joined.append((" ".join(t for t, _ in parts), "|".join(sorted({c for _, c in parts}))))
    return joined, names


def _serving_sizes(tiny: bool) -> tuple[int, int]:
    """(training docs, scored docs) of serve-short; 2,048 scored docs make 16 full 128-doc calls."""
    return (64, 96) if tiny else (256, 2048)


BUNDLE = ("checkpoint.bin", "vocab.tsv", "descriptors.tsv")


def build_serving_bundle(seed: int, tiny: bool, workdir: str) -> None:
    """Train a small multi-label model and save checkpoint, vocabulary and descriptors into ``workdir``."""
    n_train, n_score = _serving_sizes(tiny)
    dims = dict(d_embed=8, gru_units=4) if tiny else dict(d_embed=64, gru_units=64)
    rows, names = _multi_label_rows(n_train + n_score, 6, seed)
    labels = LabelSpace(tuple(names), "multi_label")
    train_docs = synth.to_documents(rows[:n_train], labels)
    # A high learning rate lets eight steps separate the classes, so the
    # threshold search sees realistic, spread-out probabilities.
    cfg = model.ModelConfig(mode="multi_label", learning_rate=0.05, max_epochs=1, patience=0, seed=seed, **dims)
    vocab = corpus.build_vocabulary(train_docs, cfg.vocabulary_max)
    desc = descriptors.extract_descriptors(train_docs, vocab, labels, "chi2", cfg.descriptor_dimension)
    train_ex = model.encode_examples(train_docs, vocab, desc, labels, cfg)
    trained = model.DualChannelModel(cfg, len(vocab), len(labels))
    model.train(trained, train_ex, train_ex[:64])
    checkpoint, vocab_path, desc_path = (Path(workdir) / name for name in BUNDLE)
    model.save_checkpoint(trained, checkpoint, labels.names)
    corpus.save_vocabulary(vocab, vocab_path)
    descriptors.save_descriptors(desc, desc_path)


def _build_serving_bundle_in_child(seed: int, tiny: bool, workdir: Path) -> None:
    """Run :func:`build_serving_bundle` in a child process and wait for it.

    Its training then does not count in this process's ``peak_rss_mb``, which
    covers only loading, scoring, evaluation and prediction.
    """
    paths = [str(Path(__file__).resolve().parent), str(Path(model.__file__).resolve().parents[1])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    code = "import sys, workloads; workloads.build_serving_bundle(int(sys.argv[1]), sys.argv[2] == '1', sys.argv[3])"
    subprocess.run([sys.executable, "-c", code, str(seed), str(int(tiny)), str(workdir)], env=env, check=True)


def serve_short(run: Run) -> Outcome:
    """Load a trained bundle, score short multi-label docs, evaluate, predict one by one."""
    n_train, n_score = _serving_sizes(run.tiny)
    rows, names = _multi_label_rows(n_train + n_score, 6, run.seed)
    labels = LabelSpace(tuple(names), "multi_label")
    score_docs = synth.to_documents(rows[n_train:], labels)
    texts = [text for text, _ in rows[n_train:]]
    _build_serving_bundle_in_child(run.seed, run.tiny, run.workdir)
    checkpoint, vocab_path, desc_path = (run.workdir / name for name in BUNDLE)

    state = {}  # each set-up replaces the last one's, so repeats do not pile up in memory
    loads_per_setup = 8  # one load takes a few ms; a sample of eight is long beside timer and cache effects

    def setup(_):
        for _ in range(loads_per_setup):
            state["net"] = model.load_checkpoint(checkpoint)[0]
            state["vocab"] = corpus.load_vocabulary(vocab_path)
            state["desc"] = descriptors.load_descriptors(desc_path)

    setups = run.times("setup", 5, setup)
    net, vocab, desc = state["net"], state["vocab"], state["desc"]

    calls = _chunks(n_score, 128)
    scored = np.full((n_score, len(labels)), np.nan)

    def score(i):
        idx = calls[i % len(calls)]
        examples = model.encode_examples([score_docs[k] for k in idx], vocab, desc, labels, net.config)
        return idx, model.predict_probabilities(net, examples)

    def check_score(i, result):
        idx, probs = result
        ok = probs.shape == (len(idx), len(labels)) and bool(np.all((probs >= 0.0) & (probs <= 1.0)))
        run.check(ok, f"score call {i}: bad probability matrix {probs.shape}")
        if probs.shape == (len(idx), len(labels)):
            scored[idx.start : idx.stop] = probs

    gold = [set(doc.labels) for doc in score_docs]
    selected_threshold = [0.5]  # the latest evaluation's; single predictions apply it

    def evaluate(_):
        threshold = metrics.select_threshold(scored, gold)
        predicted = [set(np.nonzero(row > threshold)[0]) for row in scored]
        return metrics.build_report("multi_label", labels.names, predicted, gold, scored, threshold)

    def check_report(i, report):
        ok = report.n_examples == n_score and report.threshold in metrics.THRESHOLD_GRID
        run.check(ok, f"evaluate {i}: report over {report.n_examples} rows, threshold {report.threshold}")
        selected_threshold[0] = report.threshold

    def predict_one(i):
        k = i % n_score
        return k, model.predict(net, vocab, desc, texts[k], selected_threshold[0])[1]

    def check_predict(i, result):
        k, probs = result
        gap = float(np.max(np.abs(probs - scored[k])))
        run.check(gap <= 1e-6, f"predict {i}: doc {k} differs from its batched row by {gap}")

    # One full scoring pass fills the matrix that evaluation and the
    # single-document check read. Then the operations interleave, set-up
    # included, so that each samples the whole run.
    first_pass = run.times("score", len(calls), score, check_score)
    done = run.cycle(
        run.seconds - sum(r[0] for r in first_pass),
        [
            ("setup", setup, None, 8),
            ("score", score, check_score, 1),
            ("evaluate", evaluate, check_report, 2),
            ("predict", predict_one, check_predict, 20),
        ],
    )
    score_reps, eval_reps, single = first_pass + done["score"], done["evaluate"], done["predict"]
    setup_s = _setup_metric(setups + done["setup"], loads_per_setup)

    out = Outcome(primary_kind="batch")
    predict_ms = [1e3 * r[0] for r in _untraced(single)]
    out.latency_untraced = predict_ms
    out.latency_traced = [1e3 * r[0] for r in single if r[1]]
    score_ms = [1e3 * r[0] for r in _untraced(score_reps)]
    n_scored = sum(len(r[2][0]) for r in _untraced(score_reps))
    evaluate_ms = [1e3 * r[0] for r in _untraced(eval_reps)]
    predict = _latency("predict_ms", predict_ms, cap=95)
    scoring = _latency("score_ms", score_ms)
    out.named = [
        setup_s,
        _rate("score_docs_per_s", n_scored, sum(score_ms) / 1e3, len(score_ms)),
        *scoring,
        *predict,
        Metric("evaluate_ms_p50", statistics.median(evaluate_ms), "ms", len(evaluate_ms)),
    ]
    out.end_to_end = {"setup_s": setup_s, "op_ms_min": predict[0], "op2_ms_min": scoring[0]}
    return out


WORKLOADS = {"train-news": train_news, "extract-wide": extract_wide, "serve-short": serve_short}
