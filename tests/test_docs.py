"""The README's library example runs, its CLI section matches what the CLI
reads and writes, every name the package exports or the scripts import
resolves, and no module imports a name it never uses."""

import ast
import importlib
import json
import re

import numpy as np

import ssqite
from conftest import REPO
from ssqite.bench_cli import _FIELD_PARSERS, cmd_scan, cmd_trace, parse_config
from ssqite.pauli_algebra import load_geometry_series
from test_bench_cli import trimmed_h2, write_config


def readme_section(title):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return readme.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_use_runs_and_exports_resolve(monkeypatch):
    block = re.search(r"```python\n(.*?)```", readme_section("Library use"), re.S).group(1)
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


def test_no_module_imports_a_name_it_never_uses():
    # A name counts as used when the module reads it or lists it in __all__.
    unused = []
    for path in sorted([*(REPO / "src").rglob("*.py"), *(REPO / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", None) for t in node.targets]:
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.relative_to(REPO)}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_raise_names_an_outcome_the_cli_maps():
    # The CLI exits 2 on an InputError and 1 on the other two; a TypeError
    # is Python's wrong-type contract, which no CLI input reaches.
    allowed = {"InputError", "SingularSystem", "MaxItersExceeded", "TypeError"}
    raised, stray = set(), []
    for path in sorted((REPO / "src" / "ssqite").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:  # a bare raise re-raises
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", getattr(exc, "attr", None))
                raised.add(name)
                if name not in allowed:
                    stray.append(f"{path.name}:{node.lineno}: {name}")
    assert stray == []
    tree = ast.parse((REPO / "src" / "ssqite" / "errors.py").read_text(encoding="utf-8"))
    declared = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert declared - raised == {"SsqiteError"}


def test_readme_cli_keys_match_config_parser():
    keys = re.findall(r"^\| `(\w+)` \|", readme_section("CLI"), re.M)
    assert keys == list(_FIELD_PARSERS)


def test_readme_cli_shows_written_headers(tmp_path):
    # One level at one geometry: a run of a few hundred iterations.
    cfg = parse_config(write_config(tmp_path, trimmed_h2(tmp_path, keep=1), k=1))
    assert cmd_scan(cfg) == 0
    bond = load_geometry_series(cfg.hamiltonian_path).bond_lengths[0]
    assert cmd_trace(cfg, bond_length=bond) == 0
    section = readme_section("CLI")
    for name in ("scan.csv", "trace.csv"):
        header = (cfg.output_dir / name).read_text(encoding="utf-8").splitlines()[0]
        assert f"`{header}`" in section, name
    summary = json.loads((cfg.output_dir / "summary.json").read_text(encoding="utf-8"))
    assert sorted(re.findall(r"^- `(\w+)`:", section, re.M)) == sorted(summary)
