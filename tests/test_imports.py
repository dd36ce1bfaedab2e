"""The package's third-party dependencies are the ones ``pyproject.toml`` declares.

It declares numpy alone, so every module under ``src/descnet`` may import only
the standard library, numpy and ``descnet`` itself. Other packages (scipy, say)
may be installed beside it, and an import of one would otherwise pass unnoticed.
"""

import ast
import sys
from pathlib import Path

import descnet

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "descnet"}


def imported_packages(source: str) -> set[str]:
    """Top-level package names of every absolute import in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library_numpy_and_itself():
    # The scan finds a third-party import at any depth, in either form.
    sample = "import numpy as np\nfrom . import nn\n\ndef f():\n    from scipy import stats\n    import sklearn.metrics\n"
    assert imported_packages(sample) - ALLOWED == {"scipy", "sklearn"}
    modules = sorted(Path(descnet.__file__).parent.rglob("*.py"))
    assert len(modules) > 1
    found = {f"{path.name}: {name}" for path in modules for name in imported_packages(path.read_text(encoding="utf-8")) - ALLOWED}
    assert not found
