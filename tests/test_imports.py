"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quandlehom"


def unused_imports(source):
    """Names bound by an import statement and never read (a field or local of
    the same name does not count as a read)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - used)


def test_package_modules_have_no_unused_imports():
    unused = {path.name: unused_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
