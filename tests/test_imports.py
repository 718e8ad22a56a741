"""Guard: no module under ``src/repro`` imports a name it never uses.

An AST scan of every module except the ``__init__.py`` re-export
surfaces.  An imported name counts as used when the module reads it as
a name, mentions it inside a string constant (quoted annotations), or
lists it in ``__all__``.  Import statements marked ``# noqa: F401`` are
exempt — the experiment harness imports its modules only to register
them.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported_names(tree: ast.Module, lines):
    """``(bound name, line)`` for every import outside a noqa-F401 span."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        span = lines[node.lineno - 1 : node.end_lineno]
        if any("noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            if alias.name == "*" or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, node.lineno


def _used_names(tree: ast.Module):
    names = set()
    strings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.append(node.value)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                elt.value
                for elt in getattr(node.value, "elts", [])
                if isinstance(elt, ast.Constant)
            )
    names.update(re.findall(r"[A-Za-z_]\w*", "\n".join(strings)))
    return names


def unused_imports(path: Path):
    """Imported names ``path`` never uses, as ``"name (line N)"``."""
    source = path.read_text()
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        f"{name} (line {line})"
        for name, line in _imported_names(tree, source.splitlines())
        if name not in used
    ]


def test_src_modules_use_every_import():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        str(p.relative_to(SRC)): names
        for p in modules
        if (names := unused_imports(p))
    }
    assert not unused, f"unused imports: {unused}"


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from typing import List, Optional\n"
        "import numpy as np\n"
        "from os import path  # noqa: F401\n"
        "def f(x: 'Optional[int]'):\n"
        "    return np.zeros(x)\n"
    )
    assert unused_imports(module) == ["List (line 1)"]
