"""The package exports no name that only the tests use, no module of it
imports another's private name, no function of it has a default that no
call in the program (the package and perfbench) overrides, and no test
module imports a name it never reads."""

import ast
import math
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "frnse"


def unused_public_names(src):
    """(module, name) of each top-level function or class in src/*.py,
    public or _-prefixed but not a dunder, that no module there references
    by name, attribute or import; a mention in a docstring or comment is not
    a reference."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    defined = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [(module, name) for module, name in defined if name not in used]


def test_every_public_name_is_used_in_src():
    assert unused_public_names(SRC) == []


def test_scan_ignores_definitions_and_docstrings(tmp_path):
    (tmp_path / "a.py").write_text('"""f and C are named here."""\n\n'
                                   "def f():\n    pass\n\n\nclass C:\n    pass\n\n\n"
                                   "def g():\n    return h\n\n\ndef h():\n    pass\n\n\n"
                                   "def _private():\n    pass\n\n\n"
                                   "def _used():\n    pass\n\n\ndef __dunder__():\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import g\nimport a\n\na.C\na._used()\n")
    assert unused_public_names(tmp_path) == [("a", "f"), ("a", "_private")]


TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


def unpassed_defaults(src, callers):
    """(module, function, parameter) of each defaulted parameter of a
    function or method in src/*.py that no call in a *.py file of callers
    passes, by keyword or by position. Calls match by the callee's name; a
    call to a class passes its __init__'s parameters, and a call that
    spreads *args or **kwargs passes every parameter it could reach."""
    calls = {}
    for folder in callers:
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    spread = any(isinstance(arg, ast.Starred) for arg in node.args)
                    calls.setdefault(name, []).append(
                        (math.inf if spread else len(node.args), {k.arg for k in node.keywords}))
    found = []
    for path in sorted(src.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                continue
            for fn in scope.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                method = isinstance(scope, ast.ClassDef)
                name = scope.name if method and fn.name == "__init__" else fn.name
                bound = int(method and "staticmethod" not in
                            {getattr(d, "id", None) for d in fn.decorator_list})
                params = fn.args.posonlyargs + fn.args.args
                first = len(params) - len(fn.args.defaults)
                defaulted = [(i - bound, arg.arg) for i, arg in enumerate(params[first:], first)]
                defaulted += [(math.inf, arg.arg) for arg, default
                              in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default]
                for position, param in defaulted:
                    if not any(count > position or param in keys or None in keys
                               for count, keys in calls.get(name, [])):
                        found.append((path.stem, fn.name, param))
    return found


def test_every_default_is_overridden_somewhere():
    # a knob that only a test sets is not a knob of the program
    assert unpassed_defaults(SRC, [SRC, PERFBENCH]) == []


def test_default_scan(tmp_path):
    src, callers = tmp_path / "src", tmp_path / "tests"
    src.mkdir()
    callers.mkdir()
    (src / "a.py").write_text('"""g(x, y=2) is named here."""\n\n'
                              "def f(x, y=1, *, z=2, w=3):\n    pass\n\n\n"
                              "def g(x, y=1):\n    pass\n\n\n"
                              "def h(k=0):\n    pass\n\n\n"
                              "class C:\n    def __init__(self, u=0):\n        pass\n\n"
                              "    def m(self, v=0):\n        pass\n\n"
                              "    @staticmethod\n    def s(t=0):\n        pass\n")
    (callers / "b.py").write_text("from a import C, f, g, h\n\n"
                                  "f(1, 2, w=4)\ng(1)\nh(**{})\nC(5).m()\nC.s(1)\n")
    assert unpassed_defaults(src, [src, callers]) == [
        ("a", "f", "z"), ("a", "g", "y"), ("a", "m", "v")]


def private_imports(src):
    """(module, name) of each _-prefixed name, dunders aside, that a src/*.py
    module imports from another module of the package."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == src.name):
                found += [(path.stem, alias.name) for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_private_cross_module_import():
    assert private_imports(SRC) == []


def test_private_import_scan(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("def _f():\n    pass\n\n\ndef g():\n    return _f\n")
    (pkg / "b.py").write_text("import os\nfrom os import _exit\nfrom pkg.a import _f\n"
                              "from .a import _f, g\nfrom . import _a, __version__\n")
    assert private_imports(pkg) == [("b", "_f"), ("b", "_f"), ("b", "_a")]


def unread_imports(tests):
    """(module, name) of each name a tests/*.py module binds by an import
    but never reads."""
    unread = []
    for path in sorted(tests.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound != "*" and bound not in read:
                        unread.append((path.stem, bound))
    return unread


def test_every_test_import_is_read():
    assert unread_imports(TESTS) == []


def test_import_scan_counts_reads_only(tmp_path):
    (tmp_path / "t.py").write_text("import os.path\nimport numpy as np\n"
                                   "from a import b, c as d\n\n"
                                   "def f():\n    from g import h\n    b = 1\n"
                                   "    return np.pi, os.sep, d\n")
    assert unread_imports(tmp_path) == [("t", "b"), ("t", "h")]
