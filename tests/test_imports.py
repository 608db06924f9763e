"""Checks on the program's source that need no linter.

Every name a program module imports is used: a name imported but never read
is left over from deleted code.  The check walks each ``emhash`` module's
syntax tree: an import counts as used when its bound name is read anywhere
in the module or listed in ``__all__``.  A line marked ``# noqa: F401`` keeps
an import on purpose.  The package ``__init__`` is exempt, since re-exporting
is its job.

Every import sits at module level, so the import graph is what the module
heads say: an import inside a function hides a cycle until that function
runs.

Every private top-level function or class is referenced in its own module,
outside its own definition: a private helper that outlives its last caller
is dead code.

Every public top-level function or class is named by another statement of
the package (``__init__`` aside, whose re-exports name everything) or by the
benchmark's code under ``perfbench/``: a public function that only tests
call is a reference, and belongs in ``tests/oracles.py``.

Every name a module lists in ``__all__`` is bound at its top level, by a
definition, an assignment or an import: a stale entry breaks ``from
emhash.<module> import *`` although every other use of the module works.

Only ``dataio`` touches binary files: no other module opens a file in a
binary mode or calls ``read_bytes``/``write_bytes``, so every binary format
goes through its one frame writer and checked reader.

No module widens a whole similarity block: similarity entries are checked
without ``np.isin``, whose table method copies its input to int64, and no
unsliced block is cast to float.  A row or block of rows (a subscript) may
be cast.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "emhash"
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


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


def _bound_names(statement) -> set[str]:
    # Names a top-level statement binds in its module.
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return {alias.asname or alias.name.split(".")[0] for alias in statement.names}
    targets = []
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    return {
        node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)
    }


def stale_all_entries(source: str) -> list[str]:
    """Names listed in ``__all__`` that the module's top level never binds."""
    tree = ast.parse(source)
    bound = set().union(*(_bound_names(statement) for statement in tree.body))
    listed = [
        (elt.lineno, elt.value)
        for statement in tree.body
        if isinstance(statement, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in statement.targets)
        for elt in statement.value.elts
    ]
    return [f"line {line}: {name}" for line, name in listed if name not in bound]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_all_entry_is_bound(path):
    assert stale_all_entries(path.read_text()) == []


def test_check_sees_a_stale_all_entry():
    source = (
        "from dataclasses import dataclass\n"
        "import numpy.linalg as la\n"
        "__all__ = [\n"
        "    'solve_row',\n"
        "    'row_scale',\n"
        "    'SharedEig',\n"
        "    'ZERO_TOL',\n"
        "    'LO',\n"
        "    'HI',\n"
        "    'dataclass',\n"
        "    'la',\n"
        "    'MISSING',\n"
        "]\n"
        "ZERO_TOL = 1e-12\n"
        "LO, HI = 0, 1\n"
        "def solve_row(a, b, lin, work):\n"
        "    row_scale = 1.0\n"
        "    return row_scale\n"
        "class Kept:\n"
        "    SharedEig = None\n"
    )
    assert stale_all_entries(source) == [
        "line 5: row_scale",
        "line 6: SharedEig",
        "line 12: MISSING",
    ]
    # The package's own module, with a deleted function still listed.
    source = (SRC / "mean_field.py").read_text()
    mutant = source.replace('    "build_scale",\n', '    "build_scale",\n    "row_scale",\n', 1)
    assert mutant != source
    assert [entry.split(": ")[1] for entry in stale_all_entries(mutant)] == ["row_scale"]


def binary_file_access(source: str) -> list[str]:
    """``open`` calls with a binary mode, and ``read_bytes``/``write_bytes`` calls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("read_bytes", "write_bytes"):
            found.append((node.lineno, name))
        elif name == "open":
            # open(path, mode) as a builtin, path.open(mode) as a method.
            position = 1 if isinstance(func, ast.Name) else 0
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            modes += node.args[position : position + 1]
            binary = [m for m in modes if isinstance(m, ast.Constant) and "b" in str(m.value)]
            if binary:
                found.append((node.lineno, f"open {ast.unparse(binary[0])}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_dataio_touches_binary_files(path):
    found = binary_file_access(path.read_text())
    assert (found != []) if path.name == "dataio.py" else (found == [])


def test_check_sees_binary_file_access():
    source = (
        "with open(path, 'wb') as fh:\n"
        "    fh.write(b'x')\n"
        "raw = Path(path).read_bytes()\n"
        "out.write_bytes(raw)\n"
        "with path.open(mode='rb') as fh:\n"
        "    pass\n"
        "text = open(path).read()\n"
        "lines = Path(path).open('r')\n"
        "Path(path).write_text('x')\n"
    )
    assert binary_file_access(source) == [
        "line 1: open 'wb'",
        "line 3: read_bytes",
        "line 4: write_bytes",
        "line 5: open 'rb'",
    ]
    # The package's own module, reading its model file itself again.
    source = (SRC / "codec.py").read_text()
    mutant = source.replace(
        "    p, d, payload = dataio.read_frame(",
        "    raw = Path(path).read_bytes()\n    p, d, payload = dataio.read_frame(",
        1,
    )
    assert mutant != source
    assert [entry.split(": ")[1] for entry in binary_file_access(mutant)] == ["read_bytes"]


# Names that hold a whole similarity block in the program: the view's ``.s``
# attribute, and these local names.
SIMILARITY_NAMES = {"s", "sim_full", "raw"}
FLOAT_DTYPES = {"float", "float64", "double"}


def _is_float(node) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in FLOAT_DTYPES
    return (isinstance(node, ast.Name) and node.id in FLOAT_DTYPES) or (
        isinstance(node, ast.Attribute) and node.attr in FLOAT_DTYPES
    )


def _is_whole_similarity(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in SIMILARITY_NAMES) or (
        isinstance(node, ast.Attribute) and node.attr == "s"
    )


def widened_similarity(source: str) -> list[str]:
    """``np.isin`` calls, and float casts of an unsliced similarity block."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "isin"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, "np.isin"))
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        target = None
        if node.func.attr == "astype" and node.args and _is_float(node.args[0]):
            target = node.func.value
        elif node.func.attr in ("asarray", "array", "asanyarray") and node.args and any(
            k.arg == "dtype" and _is_float(k.value) for k in node.keywords
        ):
            target = node.args[0]
        if target is not None and _is_whole_similarity(target):
            found.append((node.lineno, f"float cast of {ast.unparse(target)}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_whole_similarity_widening(path):
    assert widened_similarity(path.read_text()) == []


def test_check_sees_a_widened_similarity():
    source = (
        "ok = np.isin(s, (-1, 0, 1)).all()\n"
        "a = sim.s.astype(float)\n"
        "b = np.asarray(sim_full, dtype=np.float64)\n"
        "row = sim.s[i, :m].astype(float)\n"
        "kept = s.astype(np.int8, copy=False)\n"
    )
    assert widened_similarity(source) == [
        "line 1: np.isin",
        "line 2: float cast of sim.s",
        "line 3: float cast of sim_full",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_a_leftover_import():
    source = "import tracemalloc\nimport time\nfrom .mean_field import sigmoid\ntime.sleep(0)\n"
    assert unused_imports(source) == ["line 1: tracemalloc", "line 3: sigmoid"]
    assert unused_imports("import tracemalloc  # noqa: F401\n") == []


def nested_imports(source: str) -> list[str]:
    """Imports that are not statements of the module body itself."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_check_sees_a_nested_import():
    source = (
        "import numpy as np\n"
        "def f():\n"
        "    from .energy_models import SimilarityView\n"
        "    return SimilarityView\n"
        "class C:\n"
        "    import json\n"
    )
    assert nested_imports(source) == [
        "line 3: from .energy_models import SimilarityView",
        "line 6: import json",
    ]


def unreferenced_private_definitions(source: str) -> list[str]:
    """Private top-level functions and classes no other module statement names."""
    tree = ast.parse(source)
    private = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }
    referenced = set()
    for statement in tree.body:
        names = {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)}
        own = getattr(statement, "name", None)
        referenced |= names - {own}
    return [
        f"line {node.lineno}: {name}"
        for name, node in private.items()
        if name not in referenced
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    assert unreferenced_private_definitions(path.read_text()) == []


def test_check_sees_an_unreferenced_private_definition():
    source = (
        "def _pivots(x):\n"
        "    return _pivots(x - 1) if x else 0\n"
        "class _Kept:\n"
        "    pass\n"
        "def _used():\n"
        "    return _Kept()\n"
        "def public():\n"
        "    return _used()\n"
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n"
    )
    assert unreferenced_private_definitions(source) == ["line 1: _pivots"]


def _named(statement) -> set[str]:
    # Names a statement reads, the attributes it takes and the names it imports.
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unnamed_public_definitions(sources: dict[str, str], outside: str = "") -> list[str]:
    """Public top-level functions and classes of the modules in ``sources``
    (name -> source) that no other statement of them names and no word of
    ``outside`` is."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            named = any(
                node.name in _named(statement)
                for other in trees.values()
                for statement in other.body
                if statement is not node
            )
            if not named and not re.search(rf"\b{node.name}\b", outside):
                found.append(f"{module}: {node.name}")
    return found


def test_every_public_definition_is_named():
    sources = {path.name: path.read_text() for path in MODULES}
    outside = "\n".join(path.read_text() for path in PERFBENCH)
    assert unnamed_public_definitions(sources, outside) == []


def test_perfbench_alone_names_these_definitions():
    """Names the benchmark's tracer and workload writer hold in the package:
    free them here when the benchmark stops naming them."""
    sources = {path.name: path.read_text() for path in MODULES}
    assert unnamed_public_definitions(sources) == [
        "dataio.py: write_feature_matrix",
        "dataio.py: write_label_file",
        "energy_models.py: ksh_anchor_system",
        "energy_models.py: lfh_system",
    ]


def test_check_sees_an_unnamed_public_definition():
    sources = {
        "a.py": "def used():\n    return 1\ndef recursive(x):\n    return recursive(x)\n"
                "class Kept:\n    pass\ndef benchmarked():\n    pass\n",
        "b.py": "from .a import used\nimport numpy as np\nvalue = np.asarray(Kept)\n",
    }
    assert unnamed_public_definitions(sources, "tracer wraps a.benchmarked") == [
        "a.py: recursive",
    ]
