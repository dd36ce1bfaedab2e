"""Dataset ingestion, text preprocessing, vocabulary, id encoding.

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
    """``open(path)`` as UTF-8 text, past a leading byte-order mark; undecodable bytes raise DataError at ``path: line N``."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
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
    """One record: its preprocessed tokens and label indices."""

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


def make_document(text: str, label_names: list[str], label_space: LabelSpace) -> Document:
    indices = frozenset(label_space.index(name) for name in label_names)
    if label_space.mode == "multi_class" and len(indices) != 1:
        raise DataError(f"multi_class documents need exactly one label, got {sorted(label_names)}")
    return Document(tokens=preprocess_text(text), labels=indices)


@dataclass
class EncodedExamples:
    """A document set's right-padded ids, ``text_ids`` (n, w) and ``descriptor_ids`` (n, w'), and ``target``
    (n, n_classes). Indexing selects rows of all three: an int gives one document, a slice a smaller set."""

    text_ids: np.ndarray
    descriptor_ids: np.ndarray
    target: np.ndarray

    def __len__(self) -> int:
        return len(self.target)

    def __getitem__(self, rows) -> EncodedExamples:
        return EncodedExamples(self.text_ids[rows], self.descriptor_ids[rows], self.target[rows])


@dataclass
class Vocabulary:
    """Token<->id mapping with ids 0/1 reserved for padding and OOV."""

    token_to_id: dict[str, int]
    id_to_token: list[str]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id and self.token_to_id[token] >= 2


def build_vocabulary(corpus: list[Document], max_size: int) -> Vocabulary:
    """Keep the ``max_size - 2`` most frequent tokens; ties go lexicographic."""
    if not corpus:
        raise DataError("empty corpus")
    if max_size < 3:
        raise DataError(f"max_size must be >= 3, got {max_size}")

    counts: Counter[str] = Counter()
    for doc in corpus:
        counts.update(doc.tokens)

    ranked = sorted(counts, key=lambda t: (-counts[t], t))[: max_size - 2]
    id_to_token = [PAD_TOKEN, OOV_TOKEN, *ranked]
    return Vocabulary({tok: idx for idx, tok in enumerate(id_to_token)}, id_to_token)


def encode(tokens: list[str], vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Map tokens to ids (OOV -> 1), truncate to ``max_len``, zero-pad right."""
    if max_len < 1:
        raise DataError(f"max_len must be >= 1, got {max_len}")
    ids = np.zeros(max_len, dtype=np.int64)
    for i, tok in enumerate(tokens[:max_len]):
        ids[i] = vocab.token_to_id.get(tok, OOV_ID)
    return ids


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """One ``token<TAB>id`` line per token, in id order."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx, tok in enumerate(vocab.id_to_token):
            fh.write(f"{tok}\t{idx}\n")


def load_vocabulary(path) -> Vocabulary:
    """The vocabulary ``save_vocabulary`` wrote; the ``token<TAB>id<TAB>doc_frequency``
    lines of earlier versions load too, their third field unread."""
    token_to_id: dict[str, int] = {}
    id_to_token: list[str] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise DataError(f"{path}: line {lineno}: expected token<TAB>id")
            tok, id_str = parts[:2]
            try:
                idx = int(id_str)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-integer id")
            if idx != len(id_to_token):
                raise DataError(f"{path}: line {lineno}: ids must be contiguous and sorted")
            if tok in token_to_id:
                raise DataError(f"{path}: line {lineno}: token {tok!r} repeats id {token_to_id[tok]}")
            token_to_id[tok] = idx
            id_to_token.append(tok)
    if len(id_to_token) < 2 or id_to_token[0] != PAD_TOKEN or id_to_token[1] != OOV_TOKEN:
        raise DataError(f"{path}: vocabulary must start with {PAD_TOKEN} and {OOV_TOKEN}")
    return Vocabulary(token_to_id, id_to_token)


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
                        docs.append(make_document(text, parse_label_cell(cell, label_space.mode), label_space))
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
                    docs.append(make_document(obj["text"], obj["labels"], label_space))
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
