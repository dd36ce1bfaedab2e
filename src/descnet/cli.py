"""Command-line orchestration: extract-descriptors, train, evaluate, predict, verify.

Configuration is a flat ``key = value`` file plus flag overrides for the settings
a command reads, which it echoes into its output directory so every run is
reproducible from its artifacts. Exit codes: 0 success, 2 input error,
3 numerical failure, 4 artifact incompatibility.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import metrics, nn
from .corpus import LabelSpace, build_vocabulary, load_dataset, load_vocabulary, open_text, save_vocabulary, split
from .descriptors import extract_descriptors, load_descriptors, save_descriptors
from .errors import ArtifactError, DataError
from .model import (
    CONFIG_KINDS,
    DualChannelModel,
    ModelConfig,
    encode_examples,
    file_sha256,
    load_checkpoint,
    predict_probabilities,
    predict_texts,
    save_checkpoint,
    train,
)
from .numerics import NonFiniteError
from .verify import run_all


@dataclass
class RunConfig(ModelConfig):
    """Every tunable of every command, flat for key=value config files.

    ModelConfig's fields, with their defaults, plus the data and path keys.
    """

    format: str = "csv"
    labels: str = ""  # comma-separated label names, in order
    train_path: str = ""
    val_path: str = ""
    test_path: str = ""
    embedding_path: str = ""
    descriptor_path: str = ""
    vocab_path: str = ""
    checkpoint_path: str = ""
    threshold_path: str = ""
    input_path: str = ""
    text: str | None = None  # None means: not given; "" is an empty document
    out_dir: str = "out"
    threshold: float = -1.0  # -1 means: not set
    val_fraction: float = 0.1
    drop_overlength: bool = False
    min_doc_frequency: int = 2

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.val_fraction < 1.0:
            raise DataError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if not (self.threshold == -1.0 or 0.0 <= self.threshold <= 1.0):
            raise DataError(f"threshold must be in [0, 1] (or -1: not set), got {self.threshold}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    def label_space(self) -> LabelSpace:
        names = tuple(name.strip() for name in self.labels.split(",") if name.strip())
        if not names:
            raise DataError("no labels configured: set 'labels = A,B,...'")
        return LabelSpace(names, self.mode)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str, where: str = ""):
    kind = _FIELD_TYPES[key]
    try:
        return CONFIG_KINDS[kind][2](raw)
    except (KeyError, ValueError):
        raise DataError(f"{where}config key {key!r}: cannot parse {raw.strip()!r} as {kind}") from None


def parse_config_file(path) -> dict:
    values = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise DataError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise DataError(f"{path}: line {lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, raw.strip(), f"{path}: line {lineno}: ")
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values under the command's flag overrides, validated as a whole."""
    values = parse_config_file(args.config) if vars(args).get("config") else {}
    for name in COMMANDS[args.command][1]:
        override = getattr(args, name)
        if override is not None:
            values[name] = _coerce(name, override)
    return RunConfig(**values)


def echo_config(config: RunConfig, command: str, record: str = "effective_config.cfg") -> Path:
    """Write the settings ``command`` reads, with the values it used, to ``out_dir/record``."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{name} = {getattr(config, name)}" for name in COMMANDS[command][1]]
    (out_dir / record).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out_dir


def _require(config: RunConfig, *keys: str) -> None:
    for key in keys:
        if not getattr(config, key):
            raise DataError(f"missing required option {key!r} (config key or --{key.replace('_', '-')})")


def _fit_documents(config: RunConfig, labels: LabelSpace):
    """Train's fit documents, its validation documents and the fit documents' vocabulary; extract-descriptors fits the same."""
    docs = load_dataset(config.train_path, config.format, labels)
    if config.val_path:
        fit_docs, val_docs = docs, load_dataset(config.val_path, config.format, labels)
    else:
        fit_docs, val_docs = split(docs, config.val_fraction, config.seed)
    if config.drop_overlength:
        fit_docs = [d for d in fit_docs if len(d.tokens) <= config.text_length]
    if not fit_docs:
        raise DataError("no training documents left after filtering")
    return fit_docs, val_docs, build_vocabulary(fit_docs, config.vocabulary_max)


def _extract(config: RunConfig, fit_docs, vocab, labels: LabelSpace):
    return extract_descriptors(fit_docs, vocab, labels, config.descriptor_test, config.descriptor_dimension, config.min_doc_frequency)


def cmd_extract_descriptors(config: RunConfig) -> int:
    _require(config, "train_path", "labels")
    out_dir = echo_config(config, "extract-descriptors")
    labels = config.label_space()
    fit_docs, _, vocab = _fit_documents(config, labels)
    descriptors = _extract(config, fit_docs, vocab, labels)
    path = out_dir / "descriptors.tsv"
    save_descriptors(descriptors, path)
    print(f"wrote {path} ({config.descriptor_test}, n={config.descriptor_dimension})")
    for name, entries in zip(descriptors.class_names, descriptors.entries):
        preview = ", ".join(tok for tok, _ in entries[:10])
        print(f"{name}: {preview}")
    return 0


def cmd_train(config: RunConfig) -> int:
    _require(config, "train_path", "labels")
    labels = config.label_space()
    descriptors = None
    if config.descriptor_path:
        descriptors = load_descriptors(config.descriptor_path)
        foreign = [name for name in descriptors.class_names if name not in labels.names]
        if foreign:
            raise DataError(
                f"{config.descriptor_path}: descriptors for class {foreign[0]!r}, "
                f"which is not among the configured labels ({', '.join(labels.names)})"
            )
        # The run records how its descriptors were chosen: the file's test and n, not the configured ones.
        config = replace(config, descriptor_test=descriptors.test, descriptor_dimension=descriptors.dimension)
    out_dir = echo_config(config, "train")
    model_config = config.model_config()

    train_docs, val_docs, vocab = _fit_documents(config, labels)
    if descriptors is None:
        descriptors = _extract(config, train_docs, vocab, labels)

    train_examples = encode_examples(train_docs, vocab, descriptors, labels, model_config)
    val_examples = encode_examples(val_docs, vocab, descriptors, labels, model_config)

    model = DualChannelModel(model_config, len(vocab), len(labels))
    if config.embedding_path:
        covered = nn.load_pretrained_embeddings(model.embedding, config.embedding_path, vocab.token_to_id)
        print(f"pretrained embeddings cover {covered}/{len(vocab)} vocabulary rows")

    history = train(model, train_examples, val_examples)

    vocab_file = out_dir / "vocab.tsv"
    save_vocabulary(vocab, vocab_file)
    descriptor_file = out_dir / "descriptors.tsv"
    save_descriptors(descriptors, descriptor_file)

    history_file = out_dir / "history.csv"
    with open(history_file, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_metric\n")
        for stats in history:
            fh.write(f"{stats.epoch},{stats.train_loss!r},{stats.val_metric!r}\n")

    threshold = None
    if config.mode == "multi_label":
        probs = predict_probabilities(model, val_examples)
        threshold = metrics.select_threshold(probs, val_examples.target)
        (out_dir / "threshold.txt").write_text(f"{threshold}\n", encoding="utf-8")

    best = max(history, key=lambda s: s.val_metric)
    checkpoint_file = out_dir / "checkpoint.bin"
    save_checkpoint(
        model,
        checkpoint_file,
        labels.names,
        vocab_sha256=file_sha256(vocab_file),
        descriptor_sha256=file_sha256(descriptor_file),
        epoch=best.epoch,
        val_metric=best.val_metric,
    )
    print(f"trained {len(history)} epochs; best val_metric {best.val_metric!r} at epoch {best.epoch}")
    print(f"wrote {checkpoint_file}, {history_file}, {vocab_file}, {descriptor_file}")
    if threshold is not None:
        print(f"selected threshold {threshold}")
    return 0


def _load_bundle(config: RunConfig):
    _require(config, "checkpoint_path")
    checkpoint_path = Path(config.checkpoint_path)
    model, meta = load_checkpoint(checkpoint_path)
    vocab_path = Path(config.vocab_path) if config.vocab_path else checkpoint_path.parent / "vocab.tsv"
    descriptor_path = (
        Path(config.descriptor_path) if config.descriptor_path else checkpoint_path.parent / "descriptors.tsv"
    )
    if meta.vocab_sha256 and file_sha256(vocab_path) != meta.vocab_sha256:
        raise ArtifactError(f"{vocab_path}: content hash does not match the checkpoint's vocabulary")
    if meta.descriptor_sha256 and file_sha256(descriptor_path) != meta.descriptor_sha256:
        raise ArtifactError(f"{descriptor_path}: content hash does not match the checkpoint's descriptors")
    vocab = load_vocabulary(vocab_path)
    if len(vocab) != model.vocab_size:
        raise ArtifactError(f"{vocab_path}: {len(vocab)} tokens, but the checkpoint's embedding has {model.vocab_size} rows")
    descriptors = load_descriptors(descriptor_path)
    threshold = _resolve_threshold(config, checkpoint_path) if model.config.mode == "multi_label" else None
    return model, meta, vocab, descriptors, threshold


def _resolve_threshold(config: RunConfig, checkpoint_path: Path) -> float:
    if config.threshold >= 0:
        return config.threshold
    path = Path(config.threshold_path) if config.threshold_path else checkpoint_path.parent / "threshold.txt"
    if not path.exists():
        raise DataError(
            f"multi_label needs a threshold: none at {path}; pass --threshold or --threshold-path "
            "(train writes threshold.txt next to the checkpoint)"
        )
    with open_text(path) as fh:
        text = fh.read().strip()
    try:
        threshold = float(text)
    except ValueError:
        raise DataError(f"{path}: expected a single decimal threshold")
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"{path}: threshold {threshold} is outside [0, 1]")
    return threshold


def cmd_evaluate(config: RunConfig) -> int:
    _require(config, "test_path")
    model, meta, vocab, descriptors, threshold = _load_bundle(config)
    out_dir = echo_config(replace(config, threshold=-1.0 if threshold is None else threshold), "evaluate", "evaluate_config.cfg")
    labels = LabelSpace(tuple(meta.label_names), model.config.mode)
    docs = load_dataset(config.test_path, config.format, labels)
    examples = encode_examples(docs, vocab, descriptors, labels, model.config)
    probs = predict_probabilities(model, examples)
    predicted = metrics.decide(probs, model.config.mode, threshold)

    report = metrics.build_report(model.config.mode, labels.names, predicted, examples.target, probs, threshold)
    (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    sys.stdout.write(report.to_text())
    return 0


def cmd_predict(config: RunConfig) -> int:
    model, meta, vocab, descriptors, threshold = _load_bundle(config)
    if config.text is not None:
        texts = [config.text]
    elif config.input_path:
        # One document per line: iterating splits at line breaks only, where str.splitlines also splits at \f, \x85 and \u2028.
        with open_text(config.input_path) as fh:
            texts = [line.rstrip("\n") for line in fh]
    else:
        raise DataError("nothing to predict: pass --text or --input-path")
    if not texts:
        return 0

    picked, probs = predict_texts(model, vocab, descriptors, texts, threshold)
    for row, prob_row in zip(picked, probs):
        names = "|".join(name for name, on in zip(meta.label_names, row) if on)
        prob_str = " ".join(f"{p:.6f}" for p in prob_row)
        print(f"{names}\t{prob_str}")
    return 0


def cmd_verify(config: RunConfig, quick: bool = False, inject_fault: bool = False) -> int:
    results = run_all(quick=quick, inject_fault=inject_fault)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


_FIT = ("format", "labels", "train_path", "val_path", "val_fraction", "drop_overlength", "min_doc_frequency")
_BUNDLE = ("checkpoint_path", "vocab_path", "descriptor_path", "threshold", "threshold_path")
# Each command's handler and the RunConfig settings it reads: its flags, its --help and its record. A config file
# may hold any RunConfig key; the whole file is validated, and a command ignores the keys it does not list.
COMMANDS = {
    "extract-descriptors": (cmd_extract_descriptors, _FIT + ("mode", "seed", "text_length", "vocabulary_max", "descriptor_test",
                                                             "descriptor_dimension", "out_dir")),
    "train": (cmd_train, tuple(f.name for f in fields(ModelConfig)) + _FIT + ("embedding_path", "descriptor_path", "out_dir")),
    "evaluate": (cmd_evaluate, _BUNDLE + ("test_path", "format", "out_dir")),
    "predict": (cmd_predict, _BUNDLE + ("text", "input_path")),
    "verify": (cmd_verify, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descnet",
        description="Dual-channel GRU text classifier with statistically extracted class descriptors.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig()
    for command, (_, settings) in COMMANDS.items():
        # No abbreviations: a prefix of one of this command's flags (--text for --text-length) is not a flag of it.
        sub = subparsers.add_parser(command, help=f"run {command}", allow_abbrev=False)
        if settings:
            sub.add_argument("--config", default="", help="flat key = value config file; keys this command does not read are ignored")
        for name in settings:
            sub.add_argument("--" + name.replace("_", "-"), dest=name, default=None, metavar=_FIELD_TYPES[name].split()[0].upper(),
                             help=f"override {name} (default: {getattr(defaults, name)!r})")
        if command == "verify":
            sub.add_argument("--quick", action="store_true", help="smaller sample counts")
            sub.add_argument("--inject-fault", action="store_true",
                             help="corrupt one adjoint and the batch trim to prove the checks catch them (must FAIL)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_run_config(args)
        # A command's own flags (verify's --quick and --inject-fault) are its handler's keyword arguments.
        own_flags = {k: v for k, v in vars(args).items() if k not in _FIELD_TYPES and k not in ("command", "config")}
        return COMMANDS[args.command][0](config, **own_flags)
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NonFiniteError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except ArtifactError as e:
        print(f"artifact error: {e}", file=sys.stderr)
        return 4
    except MemoryError as e:
        print(f"error: out of memory ({e}); lower d_embed, gru_units or vocabulary_max", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
