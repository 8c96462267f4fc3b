"""Every module of the package uses each name it imports, imports only at
module level, and every function and class it defines at module level,
public or private, is reached from the package or the benchmark."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quandlehom"
PERFBENCH = PACKAGE.parent.parent / "perfbench"

# Public functions only the tests and the acceptance criteria reach.
TEST_ONLY = {"chain_to_vector", "check_isomorphism", "reflection", "reverse_o6", "sigma_shift"}


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


def function_level_imports(source):
    """(function, line) for each import statement inside a function body."""
    hits = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hits.update(
                (node.name, sub.lineno)
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Import, ast.ImportFrom))
            )
    return sorted(hits)


def test_package_functions_hold_no_imports():
    found = {path.name: function_level_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def _references(node):
    """The names a node loads, bare (``name``) and as ``(base, attr)`` for
    an attribute load ``<...>.base.attr``."""
    names, attrs = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            base = sub.value
            if isinstance(base, (ast.Name, ast.Attribute)):
                attrs.add((base.id if isinstance(base, ast.Name) else base.attr, sub.attr))
    return names, attrs


def unreferenced_definitions(package, readers):
    """(module, name) for each module-level function or class of the
    package's modules, public or private, that nothing loads, as a Name or
    as ``<module>.name``, in the package outside its own body or in
    ``readers``."""
    defined, uses = [], []
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt.name))
                uses.append(((path.stem, stmt.name), _references(stmt)))
            else:
                uses.append((None, _references(stmt)))
    for path in sorted(readers):
        uses.append((None, _references(ast.parse(path.read_text()))))
    return sorted(
        (module, name)
        for module, name in defined
        if not any(
            owner != (module, name) and (name in names or (module, name) in attrs)
            for owner, (names, attrs) in uses
        )
    )


def test_package_functions_are_reached_outside_the_tests():
    unreached = unreferenced_definitions(PACKAGE, PERFBENCH.glob("*.py"))
    # equal, not a subset: an entry that the package reaches again goes stale
    assert {n for _, n in unreached} == TEST_ONLY


# Span names that name no function: intlinalg.rational_kernel_basis was
# removed, and the benchmark's alias for it is repaired with the benchmark.
STALE_ALIASES = {"intlinalg.rational_kernel_basis"}


def test_benchmark_span_aliases_name_package_functions():
    # The benchmark names its spans "<module>.<function>"; renaming a
    # function it aliases would drop that span's metrics without an error.
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    (aliases,) = [
        ast.literal_eval(stmt.value)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "ALIASES" for t in stmt.targets)
    ]
    defined = {
        "%s.%s" % (path.stem, stmt.name)
        for path in PACKAGE.glob("*.py")
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
    }
    assert {key for key in aliases if key not in defined} == STALE_ALIASES
