"""Per-class descriptor words via chi-square and ANOVA F scoring.

Chi-square works on document-level token presence (2x2 one-vs-rest tables);
ANOVA compares per-document raw occurrence counts between the in-class and
out-of-class groups, so the two tests are genuinely different signals.
Multi-label corpora use one-vs-rest membership: a document is "in class" for
each of its labels. Both tests score every (class, token) pair at once from
one sparse document x token count matrix.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import OOV_ID, Document, LabelSpace, Vocabulary, encode, open_text
from .errors import DataError
from .metrics import label_matrix

TESTS = ("chi2", "anova")

_HEADER_RE = re.compile(rf"^#test=({'|'.join(TESTS)}) n=(\d+)$")


@dataclass
class TokenClassStats:
    """Sparse document x token count matrix plus one-vs-rest class membership.

    Column j holds ``tokens[j]``; tokens are in lexicographic order. The
    matrix is stored as parallel entry arrays sorted by column, then
    document: entry k says document ``doc_index[k]`` contains the token of
    column ``column[k]`` ``count[k]`` times. ``membership[d, c]`` is True when
    document d carries label c, and ``df[j]`` is the number of documents
    containing column j's token.
    """

    tokens: list[str]
    doc_index: np.ndarray
    column: np.ndarray
    count: np.ndarray
    membership: np.ndarray
    df: np.ndarray

    @cached_property
    def doc_frequency(self) -> dict[str, int]:
        return dict(zip(self.tokens, self.df.tolist()))

    @cached_property
    def postings(self) -> dict[str, np.ndarray]:
        """Token -> indexes of the documents containing it."""
        return dict(zip(self.tokens, np.split(self.doc_index, np.cumsum(self.df)[:-1])))

    def _sums(self, columns, weights=None) -> tuple[np.ndarray, np.ndarray]:
        """Totals (k,) and in-class sums (n_classes, k) of per-entry ``weights`` (default 1)."""
        n_tokens = len(self.tokens)
        in_class = [
            np.bincount(self.column[member], None if weights is None else weights[member], n_tokens)
            for member in self.membership[self.doc_index].T
        ]
        total = np.bincount(self.column, weights, n_tokens)
        return total[columns], np.stack(in_class)[:, columns]

    def presence_tables(self, columns=slice(None)) -> tuple[np.ndarray, ...]:
        """One-vs-rest 2x2 presence tables (a, b, c, d), each (n_classes, k), for ``columns``."""
        df, a = self._sums(columns)
        n_in = self.membership.sum(axis=0)[:, None]
        b = df - a
        return a, b, n_in - a, len(self.membership) - n_in - b

    def count_moments(self, columns=slice(None)) -> tuple[np.ndarray, ...]:
        """(n, sum, sum of squares) of raw counts in the in-class and out-of-class groups."""
        s_all, s_in = self._sums(columns, self.count)
        q_all, q_in = self._sums(columns, self.count * self.count)
        n_in = self.membership.sum(axis=0)[:, None]
        return n_in, s_in, q_in, len(self.membership) - n_in, s_all - s_in, q_all - q_in


def build_contingency(corpus: list[Document], vocab: Vocabulary, labels: LabelSpace) -> TokenClassStats:
    """Count every vocabulary token in every document into a sparse matrix.

    Padding and out-of-vocabulary tokens are excluded; every class must have
    at least one document.
    """
    if not corpus:
        raise DataError("empty corpus")
    membership = label_matrix([doc.labels for doc in corpus], len(labels))
    for name, size in zip(labels.names, membership.sum(axis=0)):
        if size == 0:
            raise DataError(f"class {name!r} has no documents")

    lookup = vocab.token_to_id
    ids = np.fromiter((lookup.get(tok, OOV_ID) for doc in corpus for tok in doc.tokens), dtype=np.int64)
    docs = np.repeat(np.arange(len(corpus)), [len(doc.tokens) for doc in corpus])
    in_vocab = ids > OOV_ID
    ids, docs = ids[in_vocab], docs[in_vocab]
    tokens = sorted(vocab.id_to_token[i] for i in np.unique(ids).tolist())
    column_of = np.zeros(len(vocab), dtype=np.int64)
    column_of[[lookup[tok] for tok in tokens]] = np.arange(len(tokens))
    # One key per occurrence, column-major: np.unique returns the matrix's
    # cells sorted by column, then document, with their counts.
    cells = column_of[ids]
    cells *= len(corpus)
    cells += docs
    cells, count = np.unique(cells, return_counts=True)
    column, doc_index = np.divmod(cells, len(corpus))
    df = np.bincount(column, minlength=len(tokens))
    return TokenClassStats(tokens, doc_index, column, count.astype(np.float64), membership, df)


def _chi2_from_table(a, b, c, d):
    """Closed-form 2x2 chi-square N(ad - bc)^2 / (product of marginals), elementwise.

    Zero where any marginal vanishes. The marginal product is formed as two
    int64 pair products multiplied in float64, which rounds it once: a single
    four-way int64 product overflows once N passes about 110,000 documents.
    """
    a, b, c, d = (np.asarray(x, dtype=np.int64) for x in (a, b, c, d))
    n = a + b + c + d
    denom = ((a + b) * (c + d)).astype(np.float64) * ((a + c) * (b + d))
    num = (a * d - b * c).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = n * num * num / denom
    return np.where(denom == 0, 0.0, score)[()]


def _anova_f(n_in, s_in, q_in, n_out, s_out, q_out):
    """Two-group F = MS_between / MS_within from group sizes, sums and sums of squares.

    Elementwise over broadcast arrays; +inf where the within-group variance is
    zero but the means differ, 0 where the means agree.
    """
    n_in, n_out, _ = np.broadcast_arrays(n_in, n_out, s_in)
    n = n_in + n_out
    bad = np.flatnonzero((n_in == 0) | (n_out == 0) | (n < 3))
    if bad.size:
        first = bad[0]
        if n_in.flat[first] == 0 or n_out.flat[first] == 0:
            raise DataError("insufficient degrees of freedom: both groups must be non-empty")
        raise DataError(f"insufficient degrees of freedom: {n.flat[first]} total observations")
    mean_in = s_in / n_in
    mean_out = s_out / n_out
    # Two-group identity: SSB = n1*n2/N * (m1 - m2)^2, exact at zero when the
    # group means agree; the computational form q - s*m can go slightly
    # negative in floating point, hence the clamps.
    d = mean_in - mean_out
    ss_between = (n_in * n_out / n) * (d * d)
    ss_within = np.maximum(q_in - s_in * mean_in, 0.0) + np.maximum(q_out - s_out * mean_out, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = ss_between / (ss_within / (n - 2))
    return np.where(ss_between == 0.0, 0.0, np.where(ss_within == 0.0, np.inf, f))[()]


def score_tokens(stats: TokenClassStats, test: str, columns=slice(None)) -> np.ndarray:
    """(n_classes, k) scores of the tokens in ``columns`` against every class."""
    if test == "chi2":
        return _chi2_from_table(*stats.presence_tables(columns))
    return _anova_f(*stats.count_moments(columns))


@dataclass
class ClassDescriptorSet:
    """Ranked (token, score) descriptor lists, one per class."""

    test: str
    dimension: int
    class_names: tuple[str, ...]
    entries: list[list[tuple[str, float]]]

    @cached_property
    def union_vocabulary(self) -> frozenset[str]:
        """Every token on any class's list."""
        return frozenset(tok for class_entries in self.entries for tok, _ in class_entries)


def extract_descriptors(
    corpus: list[Document],
    vocab: Vocabulary,
    labels: LabelSpace,
    test: str,
    n: int,
    min_doc_frequency: int = 2,
) -> ClassDescriptorSet:
    """Top-n tokens per class under the chosen test.

    Ties break by higher document frequency, then lexicographic token order.
    Tokens below ``min_doc_frequency`` are not candidates (a hapax cannot
    yield a stable statistic).
    """
    if test not in TESTS:
        raise DataError(f"unknown test {test!r}, expected one of {TESTS}")
    if n < 1:
        raise DataError(f"descriptor dimension must be >= 1, got {n}")
    stats = build_contingency(corpus, vocab, labels)
    columns = np.flatnonzero(stats.df >= min_doc_frequency)
    if test == "anova" and columns.size:
        for name, size in zip(labels.names, stats.membership.sum(axis=0)):
            if size == len(corpus):
                raise DataError(f"class {name!r} is on every document, so ANOVA has no out-of-class group")
    scores = score_tokens(stats, test, columns)
    df = stats.df[columns]
    entries: list[list[tuple[str, float]]] = []
    for class_scores in scores:
        top = np.lexsort((columns, -df, -class_scores))[:n]
        entries.append(list(zip([stats.tokens[j] for j in columns[top].tolist()], class_scores[top].tolist())))
    return ClassDescriptorSet(test, n, labels.names, entries)


def build_descriptor_channel_input(
    tokens: list[str], descriptors: ClassDescriptorSet, vocab: Vocabulary, max_len: int
) -> np.ndarray:
    """Keep only descriptor-vocabulary tokens (order and duplicates kept), encode."""
    kept = list(filter(descriptors.union_vocabulary.__contains__, tokens))
    return encode(kept, vocab, max_len)


def save_descriptors(descriptors: ClassDescriptorSet, path) -> None:
    """One header line, then class<TAB>token<TAB>score rows in rank order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#test={descriptors.test} n={descriptors.dimension}\n")
        for name, class_entries in zip(descriptors.class_names, descriptors.entries):
            for tok, score in class_entries:
                fh.write(f"{name}\t{tok}\t{format(score, '.17g')}\n")


def load_descriptors(path) -> ClassDescriptorSet:
    """The set ``save_descriptors`` wrote: per class at most ``n`` distinct tokens, no score ``nan``; a header with no rows is a set of no classes."""
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n")
        match = _HEADER_RE.match(header)
        if not match:
            raise DataError(f"{path}: line 1: expected '#test=<{'|'.join(TESTS)}> n=<int>' header")
        test, n = match.group(1), int(match.group(2))
        if n < 1:
            raise DataError(f"{path}: line 1: n must be >= 1")
        class_names: list[str] = []
        scores_by_class: list[dict[str, float]] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}: line {lineno}: expected class<TAB>token<TAB>score")
            name, tok, score_str = parts
            try:
                score = float(score_str)
            except ValueError:
                score = math.nan
            if math.isnan(score):
                raise DataError(f"{path}: line {lineno}: bad score {score_str!r}")
            if not class_names or class_names[-1] != name:
                if name in class_names:
                    raise DataError(f"{path}: line {lineno}: class {name!r} rows are not contiguous")
                class_names.append(name)
                rows: dict[str, float] = {}
                scores_by_class.append(rows)
            if tok in rows:
                raise DataError(f"{path}: line {lineno}: token {tok!r} is listed twice for class {name!r}")
            if len(rows) == n:
                raise DataError(f"{path}: line {lineno}: class {name!r} has more than n={n} rows")
            rows[tok] = score
    return ClassDescriptorSet(test, n, tuple(class_names), [list(rows.items()) for rows in scores_by_class])
