"""The README's library example runs, and every name the package exports or
the scripts import resolves."""

import ast
import importlib
import re

import numpy as np

import ssqite
from conftest import REPO


def test_readme_library_use_runs_and_exports_resolve(monkeypatch):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(REPO)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    exact = ssqite.eigensolve(namespace["h"]).eigenvalues[:3]
    np.testing.assert_allclose(namespace["result"].energies, exact, atol=1.6e-3)
    assert [name for name in ssqite.__all__ if not hasattr(ssqite, name)] == []


def test_script_imports_resolve():
    # Read, not run: the scripts need SciPy, their imports from ssqite do not.
    missing = []
    for script in sorted((REPO / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ssqite":
                module = importlib.import_module(node.module)
                missing += [f"{script.name}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
    assert missing == []
