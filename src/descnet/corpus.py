"""Dataset ingestion, text preprocessing, vocabulary, fixed-length encoding.

Everything here is pure given its inputs; corpora and vocabularies are
immutable after construction and safe to share.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

PAD_ID = 0
OOV_ID = 1
PAD_TOKEN = "<pad>"
OOV_TOKEN = "<oov>"

MODES = ("multi_class", "multi_label")
FORMATS = ("csv", "tsv", "jsonl")

# Any character run of length >= 3 collapses to one character, so "yoooouuuuu"
# becomes "you" while doubled letters ("good") survive.
_RUN_RE = re.compile(r"(.)\1{2,}", flags=re.DOTALL)
# \W matches exactly the non-alphanumerics (Unicode letters and digits);
# underscore is word-class for re, so strip it explicitly.
_NON_ALNUM_RE = re.compile(r"[\W_]")


@contextmanager
def open_text(path, newline=None):
    """``open(path)`` as UTF-8 text; undecodable bytes raise DataError at ``path: line N``."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # A line holding invalid bytes decodes differently when they are replaced and when they are dropped.
            lines = Path(path).read_bytes().split(b"\n")
            lineno = next(i for i, b in enumerate(lines, 1) if b.decode("utf-8", "replace") != b.decode("utf-8", "ignore"))
            raise DataError(f"{path}: line {lineno}: invalid UTF-8") from None


@dataclass(frozen=True)
class LabelSpace:
    """Ordered label names plus the task mode, fixed for a dataset's lifetime."""

    names: tuple[str, ...]
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise DataError("label space must have at least one label")
        if len(set(self.names)) != len(self.names):
            raise DataError("label names must be unique")
        if self.mode not in MODES:
            raise DataError(f"unknown mode {self.mode!r}, expected one of {MODES}")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown label {name!r} (label space: {', '.join(self.names)})")


@dataclass
class Document:
    """One record: raw text, its preprocessed tokens, and label indices."""

    id: int
    text: str
    tokens: list[str]
    labels: frozenset[int]


def preprocess_text(text: str) -> list[str]:
    """Lowercase, squeeze >=3-char runs, strip non-alphanumerics, split.

    The four steps run in that order; empty input gives an empty list.
    Tokens are interned, so a corpus holds one string per distinct word
    however often it occurs.
    """
    text = text.lower()
    text = _RUN_RE.sub(r"\1", text)
    text = _NON_ALNUM_RE.sub(" ", text)
    return list(map(sys.intern, text.split()))


def make_document(doc_id: int, text: str, label_names: list[str], label_space: LabelSpace) -> Document:
    indices = frozenset(label_space.index(name) for name in label_names)
    if label_space.mode == "multi_class" and len(indices) != 1:
        raise DataError(
            f"record {doc_id}: multi_class documents need exactly one label, got {sorted(label_names)}"
        )
    return Document(id=doc_id, text=text, tokens=preprocess_text(text), labels=indices)


@dataclass
class EncodedExample:
    """Fixed-length integer encodings for both channels plus the target vector."""

    text_ids: np.ndarray
    descriptor_ids: np.ndarray
    target: np.ndarray


@dataclass
class Vocabulary:
    """Token<->id mapping with ids 0/1 reserved for padding and OOV."""

    token_to_id: dict[str, int]
    id_to_token: list[str]
    doc_frequency: dict[str, int]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, OOV_ID)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id and self.token_to_id[token] >= 2


def build_vocabulary(corpus: list[Document], max_size: int) -> Vocabulary:
    """Keep the ``max_size - 2`` most frequent tokens; ties go lexicographic."""
    if not corpus:
        raise DataError("empty corpus")
    if max_size < 3:
        raise DataError(f"max_size must be >= 3, got {max_size}")

    counts: Counter[str] = Counter()
    doc_freq: Counter[str] = Counter()
    for doc in corpus:
        counts.update(doc.tokens)
        doc_freq.update(set(doc.tokens))

    ranked = sorted(counts, key=lambda t: (-counts[t], t))[: max_size - 2]
    token_to_id = {PAD_TOKEN: PAD_ID, OOV_TOKEN: OOV_ID}
    id_to_token = [PAD_TOKEN, OOV_TOKEN]
    frequencies = {PAD_TOKEN: 0, OOV_TOKEN: 0}
    for tok in ranked:
        token_to_id[tok] = len(id_to_token)
        id_to_token.append(tok)
        frequencies[tok] = doc_freq[tok]
    return Vocabulary(token_to_id, id_to_token, frequencies)


def encode(tokens: list[str], vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Map tokens to ids (OOV -> 1), truncate to ``max_len``, zero-pad right."""
    if max_len < 1:
        raise DataError(f"max_len must be >= 1, got {max_len}")
    ids = np.zeros(max_len, dtype=np.int64)
    for i, tok in enumerate(tokens[:max_len]):
        ids[i] = vocab.id_of(tok)
    return ids


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for idx, tok in enumerate(vocab.id_to_token):
            fh.write(f"{tok}\t{idx}\t{vocab.doc_frequency.get(tok, 0)}\n")


def load_vocabulary(path) -> Vocabulary:
    token_to_id: dict[str, int] = {}
    id_to_token: list[str] = []
    doc_frequency: dict[str, int] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}: line {lineno}: expected token<TAB>id<TAB>doc_frequency")
            tok, id_str, df_str = parts
            try:
                idx, df = int(id_str), int(df_str)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-integer id or frequency")
            if idx != len(id_to_token):
                raise DataError(f"{path}: line {lineno}: ids must be contiguous and sorted")
            if tok in token_to_id:
                raise DataError(f"{path}: line {lineno}: token {tok!r} repeats id {token_to_id[tok]}")
            token_to_id[tok] = idx
            id_to_token.append(tok)
            doc_frequency[tok] = df
    if len(id_to_token) < 2 or id_to_token[0] != PAD_TOKEN or id_to_token[1] != OOV_TOKEN:
        raise DataError(f"{path}: vocabulary must start with {PAD_TOKEN} and {OOV_TOKEN}")
    return Vocabulary(token_to_id, id_to_token, doc_frequency)


def parse_label_cell(cell: str, mode: str) -> list[str]:
    """The label names of one dataset cell; a multi-label cell joins them with '|'."""
    if mode == "multi_label":
        return [part for part in cell.split("|") if part]
    return [cell]


def load_dataset(path, format: str, label_space: LabelSpace) -> list[Document]:
    """Read csv/tsv (``text,label`` header) or jsonl into Documents."""
    if format not in FORMATS:
        raise DataError(f"unknown dataset format {format!r}, expected one of {FORMATS}")
    docs: list[Document] = []
    if format in ("csv", "tsv"):
        delimiter = "," if format == "csv" else "\t"
        with open_text(path, newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                header = next(reader, None)
                if header is None or [h.strip() for h in header] != ["text", "label"]:
                    raise DataError(f"{path}: line 1: expected header 'text{delimiter}label'")
                for row in reader:
                    if not row:
                        continue
                    if len(row) != 2:
                        raise DataError(f"{path}: line {reader.line_num}: expected 2 columns, got {len(row)}")
                    text, cell = row
                    try:
                        docs.append(
                            make_document(len(docs), text, parse_label_cell(cell, label_space.mode), label_space)
                        )
                    except DataError as e:
                        raise DataError(f"{path}: line {reader.line_num}: {e}") from None
            except csv.Error as e:
                raise DataError(f"{path}: line {reader.line_num}: {e}") from None
    else:
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise DataError(f"{path}: line {lineno}: invalid JSON ({e.msg})") from None
                if not isinstance(obj, dict) or "text" not in obj or "labels" not in obj:
                    raise DataError(f"{path}: line {lineno}: expected object with 'text' and 'labels'")
                if not isinstance(obj["text"], str) or not isinstance(obj["labels"], list):
                    raise DataError(f"{path}: line {lineno}: 'text' must be a string and 'labels' a list")
                try:
                    docs.append(make_document(len(docs), obj["text"], obj["labels"], label_space))
                except DataError as e:
                    raise DataError(f"{path}: line {lineno}: {e}") from None
    if not docs:
        raise DataError(f"{path}: no records")
    return docs


def split(corpus: list[Document], val_fraction: float, seed: int) -> tuple[list[Document], list[Document]]:
    """Seeded shuffle into (train, validation); ``max(1, floor(n * val_fraction))`` documents validate."""
    if not 0.0 < val_fraction < 1.0:
        raise DataError(f"val_fraction must be in (0, 1), got {val_fraction}")
    if len(corpus) < 2:
        raise DataError(f"corpus too small to split: {len(corpus)} documents")
    n_val = max(1, int(len(corpus) * val_fraction))
    order = np.random.default_rng([seed, 2]).permutation(len(corpus))
    return [corpus[i] for i in order[n_val:]], [corpus[i] for i in order[:n_val]]
