"""Every module-level import under src/igusa and tests is read
somewhere in its module: an import nobody reads is dead weight, and it
can hide that the code which needed it is gone.  Every public function
and class of src/igusa is named in src/igusa outside its own definition:
one that only tests call or construct is dead code too.  Every
defaulted parameter of a module-level function of src/igusa is passed
by some call in src/igusa: an option that no caller sets is a second
code path that only tests reach.  And the tests' reference routes stay
apart from the routes they check."""

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
# that those routes share, ratfun's int kernel, and the CLI's JSON
# renderer, which the tests check against json.dumps
CHECKED_ROUTES = {"ball_counts", "_normal_form", "_ball_counter",
                  "spf_evaluate", "_lift_node", "_grid_counts", "_lift",
                  "eval_mod", "_classify", "_pow_mod", "residue_axes",
                  "recover_numerator", "reduce_factors",
                  "_exact_quotient", "_denominator_ints",
                  "_scaled", "_trim", "_poly_mul", "_render_json"}


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


def _unnamed_functions(trees):
    """"path: name" of each public module-level function or class of the
    (path, tree) pairs that no ``Name`` or ``Attribute`` node names outside
    its own definition, in any of the trees; a docstring or an import names
    nothing."""
    statements = [(node, {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                          if isinstance(n, (ast.Name, ast.Attribute))})
                  for _, tree in trees for node in tree.body]
    return [f"{path}: {node.name}" for path, tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            and not any(node.name in names for other, names in statements if other is not node)]


def test_unnamed_function_is_found():
    source = ('"""d and a, named in text only"""\n'
              "from m import d\n\n"
              "def a():\n    return a()\n\n"
              "def b():\n    pass\n\n"
              "def _c():\n    pass\n\n"
              "def d():\n    pass\n\n"
              "class E:\n    def make(self):\n        return E()\n\n"
              "class F:\n    pass\n\n"
              "x = m.b\n"
              "y: F\n")
    assert _unnamed_functions([("m.py", ast.parse(source))]) == ["m.py: a", "m.py: d", "m.py: E"]


def _package_trees():
    """(path, tree) of each module of src/igusa."""
    trees = [(os.path.relpath(path, ROOT), _tree(path)) for path in _sources()
             if path.startswith(os.path.join(ROOT, "src", "igusa"))]
    assert len(trees) > 10
    return trees


def test_every_public_function_is_named_in_the_package():
    # a public function or class that only its own tests reach is dead
    # code: the library keeps the private helper the tests reach, and
    # tests call that
    assert _unnamed_functions(_package_trees()) == []


def _unset_defaults(trees):
    """"path: function(parameter)" for each defaulted parameter of a
    module-level function of the (path, tree) pairs that no call in the
    trees passes, by keyword or by position.  A call is matched by the
    name it calls, a bare name or an attribute; one that unpacks * or **
    arguments passes every parameter."""
    calls = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)

    def passes(call, position, name):
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or (position is not None and len(call.args) > position)
                or any(k.arg in (None, name) for k in call.keywords))

    unset = []
    for path, tree in trees:
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            unset += [f"{path}: {node.name}({name})" for i, name in defaulted
                      if not any(passes(call, i, name) for call in calls.get(node.name, []))]
    return unset


def test_unset_default_is_found():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
              "def g(x=0):\n    return h(x)\n\n"
              "def h(y=0, z=0):\n    pass\n\n"
              "def k(w=0):\n    pass\n\n"
              "class C:\n    def f(self, u=0):\n        pass\n\n"
              "f(0, 1, e=5)\n"
              "m.g()\n"
              "k(*[])\n")
    assert _unset_defaults([("m.py", ast.parse(source))]) == [
        "m.py: f(c)", "m.py: f(d)", "m.py: g(x)", "m.py: h(z)",
    ]


def test_every_default_is_passed_in_the_package():
    # the one exception: the console script calls main(), while the
    # benchmark and the tests call main(argv)
    assert _unset_defaults(_package_trees()) == ["src/igusa/cli.py: main(argv)"]
