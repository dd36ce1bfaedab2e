"""The experiment scripts under ``scripts/`` run against the package as it is.

No other test imports them, so an API change they depend on would otherwise
break them unnoticed. Each run is a subprocess with ``src`` on PYTHONPATH,
the way their docstrings say to run them.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ["descriptor_dimension_study.py", "identity_digest.py", "make_synthetic_data.py", "news_study.py", "serving_digest.py"]


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


def test_make_synthetic_data_buried(tmp_path):
    out = tmp_path / "buried.csv"
    assert "wrote 60 documents" in run_script("make_synthetic_data.py", "buried", "--n-docs", "60", "--out", str(out))
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["text", "label"] and len(rows) == 61


def test_descriptor_dimension_study_small():
    stdout = run_script(
        "descriptor_dimension_study.py",
        "--dimensions", "5", "10", "--seeds", "1", "--n-train", "64", "--n-val", "32", "--epochs", "1",
    )
    lines = stdout.strip().splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["5", "10"]
