"""Mutation fuzzing of every file reader.

Each reader starts from a valid file, which is then corrupted: bytes flipped,
the file truncated, a field dropped or duplicated, invalid UTF-8, a NUL or a
``nan`` inserted. Whatever the damage, the reader returns or raises
``DataError`` / ``ArtifactError`` (exit 2 / 4 on the command line); any other
exception would end a command in a traceback.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from descnet import nn
from descnet.cli import build_parser, build_run_config
from descnet.corpus import LabelSpace, build_vocabulary, load_dataset, load_vocabulary, save_vocabulary
from descnet.descriptors import extract_descriptors, load_descriptors, save_descriptors
from descnet.errors import ArtifactError, DataError
from descnet.model import DualChannelModel, ModelConfig, load_checkpoint, save_checkpoint
from descnet.synth import marker_corpus

NON_STRINGS = [b"null", b"42", b"-1.5", b"true", b'["w"]', b'{"w": "x"}']
INSERTS = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"nan", b"inf", b"-", b"\n", b"\t", b",", b'"', b"="]

FUZZ = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def mutations(draw, kinds=("flip", "truncate", "drop", "duplicate", "insert")):
    """One to three edits, each a function of (bytes, separator) -> bytes."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        fraction = draw(st.floats(0.0, 1.0))
        if kind == "retype":
            value = draw(st.sampled_from(NON_STRINGS))
            edits.append(lambda data, sep, f=fraction, v=value: _retype_text(data, f, v))
        elif kind == "flip":
            mask = draw(st.integers(1, 255))
            edits.append(lambda data, sep, f=fraction, m=mask: _flip(data, f, m))
        elif kind == "truncate":
            edits.append(lambda data, sep, f=fraction: data[: int(len(data) * f)])
        elif kind == "insert":
            chunk = draw(st.sampled_from(INSERTS))
            edits.append(lambda data, sep, f=fraction, c=chunk: data[: int(len(data) * f)] + c + data[int(len(data) * f) :])
        else:
            which = draw(st.floats(0.0, 1.0))
            edits.append(lambda data, sep, f=fraction, w=which, k=kind: _edit_field(data, sep, f, w, k))
    return edits


def _flip(data: bytes, fraction: float, mask: int) -> bytes:
    if not data:
        return data
    i = min(int(len(data) * fraction), len(data) - 1)
    return data[:i] + bytes([data[i] ^ mask]) + data[i + 1 :]


def _retype_text(data: bytes, line_fraction: float, value: bytes) -> bytes:
    """One JSONL line with its ``"text"`` string replaced by ``value``."""
    lines = data.split(b"\n")
    i = min(int(len(lines) * line_fraction), len(lines) - 1)
    lines[i] = re.sub(rb'"text": "[^"]*"', lambda _: b'"text": ' + value, lines[i], count=1)
    return b"\n".join(lines)


def _edit_field(data: bytes, sep: bytes, line_fraction: float, field_fraction: float, kind: str) -> bytes:
    lines = data.split(b"\n")
    i = min(int(len(lines) * line_fraction), len(lines) - 1)
    fields = lines[i].split(sep)
    j = min(int(len(fields) * field_fraction), len(fields) - 1)
    fields[j : j + 1] = [] if kind == "drop" else [fields[j], fields[j]]
    lines[i] = sep.join(fields)
    return b"\n".join(lines)


def mutate(valid: bytes, sep: bytes, edits) -> bytes:
    data = valid
    for edit in edits:
        data = edit(data, sep)
    return data


def survives(read) -> None:
    """``read()`` returns, or fails with one of the two input-error types."""
    try:
        read()
    except (DataError, ArtifactError):
        pass


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Valid files of every kind, from one small marker corpus."""
    root = tmp_path_factory.mktemp("valid")
    rows, names = marker_corpus(12, n_classes=2, n_noise=6, seed=3)
    labels = LabelSpace(tuple(names), "multi_class")
    csv_lines = ["text,label"] + [f'"{text}, again",{label}' for text, label in rows]
    (root / "data.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    jsonl = [f'{{"text": "{text}", "labels": ["{label}"]}}' for text, label in rows]
    (root / "data.jsonl").write_text("\n".join(jsonl) + "\n", encoding="utf-8")
    docs = load_dataset(root / "data.jsonl", "jsonl", labels)
    vocab = build_vocabulary(docs, 40)
    save_vocabulary(vocab, root / "vocab.tsv")
    save_descriptors(extract_descriptors(docs, vocab, labels, "anova", 3, 1), root / "descriptors.tsv")
    vectors = [f"{tok} " + " ".join(f"{0.1 * (k + i):.3f}" for k in range(4)) for i, tok in enumerate(vocab.id_to_token[2:6])]
    (root / "vectors.vec").write_text(f"{len(vectors)} 4\n" + "\n".join(vectors) + "\n", encoding="utf-8")
    config = "labels = A,B\nd_embed = 8\nlearning_rate = 0.01\nval_fraction = 0.2\nmode = multi_class\nseed = 3\n"
    (root / "run.cfg").write_text(config, encoding="utf-8")
    model_config = ModelConfig(d_embed=4, gru_units=2, descriptor_dimension=3, text_length=6, vocabulary_max=40)
    save_checkpoint(DualChannelModel(model_config, len(vocab), len(names)), root / "checkpoint.bin", names, "ab", "cd")
    return root, labels, vocab


def fuzz_reader(artifacts, tmp_path, name, sep, read, strategy=mutations()):
    valid = (artifacts[0] / name).read_bytes()
    path = tmp_path / name
    read(artifacts[0] / name)  # the unmutated file reads cleanly

    @FUZZ
    @given(strategy)
    def check(edits):
        path.write_bytes(mutate(valid, sep, edits))
        survives(lambda: read(path))

    check()


def test_dataset_csv(artifacts, tmp_path):
    labels = LabelSpace(artifacts[1].names, "multi_label")
    fuzz_reader(artifacts, tmp_path, "data.csv", b",", lambda p: load_dataset(p, "csv", labels))


def test_dataset_jsonl(artifacts, tmp_path):
    def read(path):
        load_dataset(path, "jsonl", artifacts[1])
        # a record whose text is not a JSON string fails; it is never read as words
        lines = path.read_text(encoding="utf-8").split("\n")
        records = [json.loads(line.strip()) for line in lines if line.strip()]
        assert all(isinstance(record["text"], str) for record in records)

    kinds = ("flip", "truncate", "drop", "duplicate", "insert", "retype")
    fuzz_reader(artifacts, tmp_path, "data.jsonl", b",", read, mutations(kinds))


def test_vocabulary(artifacts, tmp_path):
    fuzz_reader(artifacts, tmp_path, "vocab.tsv", b"\t", load_vocabulary)


def test_descriptors(artifacts, tmp_path):
    fuzz_reader(artifacts, tmp_path, "descriptors.tsv", b"\t", load_descriptors)


def test_embeddings(artifacts, tmp_path):
    vocab = artifacts[2]
    layer = nn.EmbeddingLayer(len(vocab), 4, np.random.default_rng(0))
    fuzz_reader(artifacts, tmp_path, "vectors.vec", b" ", lambda p: nn.load_pretrained_embeddings(layer, p, vocab.token_to_id))


def test_config(artifacts, tmp_path):
    parser = build_parser()
    fuzz_reader(artifacts, tmp_path, "run.cfg", b"=", lambda p: build_run_config(parser.parse_args(["train", "--config", str(p)])))


def test_checkpoint(artifacts, tmp_path):
    fuzz_reader(artifacts, tmp_path, "checkpoint.bin", b",", load_checkpoint)
