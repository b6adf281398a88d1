"""No file imports a name it never references (pyflakes F401).

``ruff`` is the CI linter but cannot be installed in the offline dev
image, so this stdlib walk keeps the one lint class a deletion-heavy PR
strands — dead imports — inside tier-1.  As for ruff, ``__init__.py``
re-exports and ``# noqa`` lines are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """``["file:line name", ...]`` for every import ``path`` never uses."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or any("# noqa" in line
                       for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return found


def test_no_unused_imports():
    found = [hit
             for top in ("src", "tests", "benchmarks", "examples")
             for path in sorted((ROOT / top).rglob("*.py"))
             if path.name != "__init__.py"
             for hit in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)
