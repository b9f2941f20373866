"""Static checks on the package source."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cesmarket"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``__future__`` imports excepted)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .errors import A, B as C\n"
        "np.zeros(C)\n"
    )
    assert unused_imports(source) == ["2: os", "3: A"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Private names, module-level or methods, that no module of the package reads.

    `sources` maps module names to their source.  A name is private when it
    starts with one underscore.  A module-level name is read when it appears
    as a loaded name or an imported name anywhere in the package; attributes
    do not count, so a method of the same name does not keep a module-level
    leftover alive.  A private method defined in a class body is read when
    it appears as a loaded attribute anywhere in the package.
    """
    defined, read = [], set()
    methods, attributes = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods += [
                    (module, item.lineno, f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and _is_private(item.name)
                ]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            defined += [(module, node.lineno, name) for name in targets if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return [
        f"{module}:{line}: {name}" for module, line, name in defined if name not in read
    ] + [
        f"{module}:{line}: {label}"
        for module, line, label, name in methods
        if name not in attributes
    ]


def test_private_checker_flags_unread_names():
    sources = {
        "a": "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\n",
        "b": "from .a import _B, _f\nclass _C:\n    pass\ndef _g(m):\n    return m._g\n",
        # a method is read as an attribute; a bare name of the same spelling
        # or a store does not count
        "c": (
            "class K:\n    def _h(self):\n        return self._k()\n"
            "    def _k(self):\n        return _m\n    def _m(self):\n"
            "        self._h = 1\n    def __init__(self):\n        pass\n"
        ),
    }
    assert unreferenced_privates(sources) == [
        "b:2: _C", "b:4: _g", "c:2: K._h", "c:6: K._m"
    ]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []


SOLVES = ("solve", "lstsq")


def stray_solves(sources: dict[str, str]) -> list[str]:
    """Uses of np.linalg.solve or np.linalg.lstsq outside _newton_step.

    `sources` maps module names to their source.  A use is any read of the
    attribute `solve` or `lstsq` on a name or attribute called `linalg`;
    one anywhere inside a function named _newton_step, nested functions
    included, is allowed, since that is the package's one linear solve.
    """
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        allowed = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_newton_step"
            for inner in ast.walk(node)
        }
        uses = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in SOLVES
            and "linalg" in (getattr(node.value, "attr", None), getattr(node.value, "id", None))
            and id(node) not in allowed
        ]
        found += [
            f"{module}:{node.lineno}: linalg.{node.attr}"
            for node in sorted(uses, key=lambda node: node.lineno)
        ]
    return found


def test_solve_checker_flags_solves_outside_the_step():
    sources = {
        "a": (
            "import numpy as np\ndef _newton_step(B, r):\n    def inner():\n"
            "        return np.linalg.lstsq(B, r)\n    return np.linalg.solve(B, r), inner\n"
        ),
        "b": (
            "import numpy as np\nfrom numpy import linalg\ndef f(B, r):\n"
            "    return np.linalg.solve(B, r)\nsolve = linalg.lstsq\n"
            "rank = np.linalg.matrix_rank\n"
        ),
    }
    assert stray_solves(sources) == ["b:4: linalg.solve", "b:5: linalg.lstsq"]


def test_every_linear_solve_is_the_newton_step():
    sources = {p.name: p.read_text() for p in MODULES}
    assert stray_solves(sources) == []
