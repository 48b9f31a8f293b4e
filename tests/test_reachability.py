"""Every function, class and method in the package is reached from the
program or from the acceptance gate, not only from unit tests.

A definition counts as reached when its name is referenced outside its own
body in the package, in ``scripts/``, in ``bench/`` (whose span tracer
patches functions by name, so plain strings count as references), or in
``tests/test_acceptance.py`` or ``tests/helpers.py``.  Docstrings do not
count.  The check is by name only, so a name shared by two definitions
keeps both alive; it finds code that nothing calls, not every dead path.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toral_nodal"

# Definitions still reached only from unit tests, kept with their tests
# until a later change deletes them (ROADMAP item 7).  The set may only
# shrink: a name here must exist and stay unreached.
PENDING = frozenset({
    "near_stationary_interval",     # curve
    "stability_count",              # medians
    "l2_ratio", "l4_vs_B",          # oscillatory
    "smooth_cutoff", "smooth_cutoff_d1", "arc_cover_count",
    "eigenfunction_to_json", "eigenfunction_from_json",  # wavefield
    "witness_eigenfunction_json",   # counterexamples
})


def _roots() -> list[Path]:
    return (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
            + sorted((ROOT / "bench").glob("*.py"))
            + [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "helpers.py"])


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


def _references(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every identifier a file refers to."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docs = _docstrings(tree)
    refs = []
    for node in ast.walk(tree):
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
    tree = ast.parse(path.read_text(), filename=str(path))
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


def unreached() -> list[str]:
    where: dict[str, list[tuple[Path, int]]] = {}
    for path in _roots():
        for name, line in _references(path):
            where.setdefault(name, []).append((path, line))
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, first, last in _definitions(path):
            name = qualname.rsplit(".", 1)[-1]
            if not any(other != path or not first <= line <= last
                       for other, line in where.get(name, ())):
                missing.append(f"{path.name}:{first} {qualname}")
    return missing


def test_every_definition_is_reached():
    missing = [m for m in unreached() if m.split()[-1] not in PENDING]
    assert not missing, "reached only from unit tests, or not at all:\n" + "\n".join(missing)


def test_pending_definitions_are_still_unreached():
    stale = PENDING - {m.split()[-1] for m in unreached()}
    assert not stale, "reached or gone, drop from PENDING: " + ", ".join(sorted(stale))
