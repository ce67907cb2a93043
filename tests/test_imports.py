"""Every module-level import under src/igusa, tests and scripts is read
somewhere in its module: an import nobody reads is dead weight, and it
can hide that the code which needed it is gone.  And the tests'
reference routes stay apart from the routes they check."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src/igusa", "tests", "scripts")


def _sources():
    for folder in SCANNED:
        for dirpath, _, names in os.walk(os.path.join(ROOT, folder)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _unread_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unread_import_is_found():
    assert _unread_imports("import os\nimport sys as s\nfrom a import b, c\nprint(c)\n") == [
        (1, "os"),
        (2, "s"),
        (3, "b"),
    ]
    assert _unread_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_every_module_level_import_is_read():
    unread = []
    for path in _sources():
        with open(path, encoding="utf-8") as fh:
            for line, name in _unread_imports(fh.read()):
                unread.append(f"{os.path.relpath(path, ROOT)}:{line}: {name}")
    assert unread == []


# the routes that tests/reference.py is the independent check of
CHECKED_ROUTES = {"value_balls", "ball_counts", "spf_evaluate", "spf_counts", "shift_scale"}


def _imports(path: str):
    """(module, names) of every import statement in a file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, set()
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", {alias.name for alias in node.names}


def test_reference_stays_independent():
    imported = set().union(*(names for _, names in _imports(os.path.join(ROOT, "tests", "reference.py"))))
    assert imported & CHECKED_ROUTES == set()
    importers = [
        os.path.relpath(path, ROOT)
        for path in _sources()
        if not path.startswith(os.path.join(ROOT, "tests"))
        and any(module.split(".")[-1] == "reference" or "reference" in names
                for module, names in _imports(path))
    ]
    assert importers == []
