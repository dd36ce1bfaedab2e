"""The experiment scripts under ``scripts/`` run against the package as it is.

Every script there gets a ``--help`` run, so an API change they depend on
cannot break one unnoticed. Each run is a subprocess with ``src`` on
PYTHONPATH, the way their docstrings say to run them.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from descnet.synth import news_like_corpus, write_csv

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = [path.name for path in sorted((ROOT / "scripts").glob("*.py"))]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name", SCRIPTS)
def test_help(name):
    assert "usage:" in run_script(name, "--help")


STUDY_OPTIONS = {
    "news": ["--train-csv", "--test-csv", "--seeds"],
    "dimension": ["--dimensions", "--seeds", "--n-train", "--n-val", "--epochs"],
}


@pytest.mark.parametrize("command", STUDY_OPTIONS)
def test_subcommand_help(command):
    """Each descriptor study keeps the options of the script it replaced, and only those."""
    stdout = run_script("descriptor_study.py", command, "--help")
    assert stdout.startswith(f"usage: descriptor_study.py {command} ")
    listed = [line.split()[0] for line in stdout.split("options:")[1].splitlines() if line.startswith("  --")]
    assert listed == STUDY_OPTIONS[command]


def test_make_synthetic_data_buried(tmp_path):
    out = tmp_path / "buried.csv"
    assert "wrote 60 documents" in run_script("make_synthetic_data.py", "buried", "--n-docs", "60", "--out", str(out))
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["text", "label"] and len(rows) == 61


def test_descriptor_dimension_study_small():
    stdout = run_script(
        "descriptor_study.py", "dimension",
        "--dimensions", "5", "10", "--seeds", "1", "--n-train", "64", "--n-val", "32", "--epochs", "1",
    )
    lines = stdout.strip().splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["5", "10"]


def test_descriptor_news_study_on_ag_news_csvs(tmp_path):
    rows, names = news_like_corpus(60, seed=3)
    ag_names = dict(zip(names, ["World", "Sports", "Business", "Sci/Tech"]))
    rows = [(text, ag_names[label]) for text, label in rows]
    write_csv(rows[:40], tmp_path / "train.csv")
    write_csv(rows[40:], tmp_path / "test.csv")
    stdout = run_script(
        "descriptor_study.py", "news",
        "--train-csv", str(tmp_path / "train.csv"), "--test-csv", str(tmp_path / "test.csv"), "--seeds", "1",
    )
    assert stdout.startswith("AG News subset: 40 train / 20 test")
    assert "  Sci/Tech: " in stdout and "seed 0: dual " in stdout
