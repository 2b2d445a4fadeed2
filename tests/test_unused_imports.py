"""No module under src/wildcycles/ or tests/ imports a name it never reads.

A check on the syntax tree alone, with the stdlib ast: `import a.b` binds
`a`, `import a as b` and `from m import a as b` bind `b`, and a bound name
is used when the module reads it anywhere. Imports from __future__ and the
re-exports of an __init__.py are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """(line, name) of each name that source imports and never reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in used:
                    unused.append((node.lineno, name))
    return unused


def test_unused_imports_finds_each_kind():
    source = "from __future__ import annotations\nimport os.path\nimport sys, json as j\nfrom a import b, c\n"
    source += "def f(x: b) -> None:\n    return os.sep, sys\n"
    assert unused_imports(source) == [(3, "j"), (4, "c")]


def test_no_module_imports_a_name_it_never_reads():
    paths = [p for p in sorted((ROOT / "src" / "wildcycles").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    found = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in paths for line, name in unused_imports(p.read_text())]
    assert found == []
