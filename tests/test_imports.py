"""Every module-level import under src/igusa and tests is read
somewhere in its module: an import nobody reads is dead weight, and it
can hide that the code which needed it is gone.  And the tests'
reference routes stay apart from the routes they check."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src/igusa", "tests")


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


# the routes that tests/reference.py and the reference_* functions of
# tests/helpers.py are the independent check of, the evaluation kernel
# that those routes share, and ratfun's int kernel
CHECKED_ROUTES = {"value_balls", "ball_counts", "_normal_form", "_ball_counter",
                  "spf_evaluate", "spf_counts", "_lift", "shift_scale",
                  "eval_mod", "classify_mod_p", "_classify", "_eval_terms", "_pow_mod", "residue_axes",
                  "recover_numerator", "reduce_factors",
                  "denominator_polynomial", "_exact_quotient", "_denominator_ints",
                  "_scaled", "_trim", "_poly_mul"}


def _imports(tree: ast.AST):
    """(module, names) of every import statement in a syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, set()
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", {alias.name for alias in node.names}


def _tree(path: str) -> ast.AST:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def test_reference_stays_independent():
    trees = [_tree(os.path.join(ROOT, "tests", "reference.py"))]
    trees += [node for node in _tree(os.path.join(ROOT, "tests", "helpers.py")).body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("reference_")]
    assert len(trees) > 3  # reference.py and the three reference_* functions at least
    imported = set().union(*(names for tree in trees for _, names in _imports(tree)))
    assert imported & CHECKED_ROUTES == set()
    importers = [
        os.path.relpath(path, ROOT)
        for path in _sources()
        if not path.startswith(os.path.join(ROOT, "tests"))
        and any(module.split(".")[-1] == "reference" or "reference" in names
                for module, names in _imports(_tree(path)))
    ]
    assert importers == []
