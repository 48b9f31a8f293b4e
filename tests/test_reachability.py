"""Every function, class, method and dataclass field in the package is
reached from the program or from the acceptance gate, not only from unit
tests.

A definition counts as reached when its name is referenced outside its own
body in the package, in ``scripts/``, in ``bench/`` (whose span tracer
patches functions by name, so plain strings count as references), or in
``tests/test_acceptance.py`` or ``tests/helpers.py``.  A field (an annotated
name in a class body) counts as read when its name is loaded anywhere in
those files other than its own declaration; storing to it, or passing it as
a constructor keyword, is not a read.  Docstrings do not count.  The check
is by name only, so a name shared by two definitions keeps both alive; it
finds code that nothing calls, not every dead path.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toral_nodal"


def _roots() -> list[Path]:
    return (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
            + sorted((ROOT / "bench").glob("*.py"))
            + [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "helpers.py"])


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _references(path: Path, loads_only: bool = False) -> list[tuple[str, int]]:
    """(name, line) of every identifier a file refers to; with loads_only,
    names and attributes count only where they are read."""
    tree = _tree(path)
    docs = _docstrings(tree)
    refs = []
    for node in ast.walk(tree):
        if loads_only and isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            continue
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias) and node.asname:
            refs.append((node.name, node.lineno))  # used under its alias
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and node.value.isidentifier()):
            refs.append((node.value, node.lineno))
    return refs


def _definitions(path: Path) -> list[tuple[str, int, int]]:
    """(qualified name, first line, last line) of every top-level function
    and class and every non-dunder method."""
    tree = _tree(path)
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    out.append((f"{node.name}.{item.name}", item.lineno, item.end_lineno))
    return out


def _fields(path: Path) -> list[tuple[str, int, int]]:
    """(qualified name, first line, last line) of every annotated field of
    a top-level class."""
    tree = _tree(path)
    return [(f"{node.name}.{item.target.id}", item.lineno, item.end_lineno)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def _unreached(declared, loads_only: bool) -> list[str]:
    where: dict[str, list[tuple[Path, int]]] = {}
    for path in _roots():
        for name, line in _references(path, loads_only):
            where.setdefault(name, []).append((path, line))
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, first, last in declared(path):
            name = qualname.rsplit(".", 1)[-1]
            if not any(other != path or not first <= line <= last
                       for other, line in where.get(name, ())):
                missing.append(f"{path.name}:{first} {qualname}")
    return missing


def test_every_definition_is_reached():
    missing = _unreached(_definitions, loads_only=False)
    assert not missing, "reached only from unit tests, or not at all:\n" + "\n".join(missing)


def test_every_field_is_read():
    missing = _unreached(_fields, loads_only=True)
    assert not missing, "read only by unit tests, or not at all:\n" + "\n".join(missing)
