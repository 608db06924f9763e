"""Every name a program module imports is used.

A name imported but never read is left over from deleted code.  The check
walks each ``emhash`` module's syntax tree, so it needs no linter: an import
counts as used when its bound name is read anywhere in the module or listed
in ``__all__``.  A line marked ``# noqa: F401`` keeps an import on purpose.
The package ``__init__`` is exempt, since re-exporting is its job.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "emhash"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[bound] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_a_leftover_import():
    source = "import tracemalloc\nimport time\nfrom .mean_field import sigmoid\ntime.sleep(0)\n"
    assert unused_imports(source) == ["line 1: tracemalloc", "line 3: sigmoid"]
    assert unused_imports("import tracemalloc  # noqa: F401\n") == []
