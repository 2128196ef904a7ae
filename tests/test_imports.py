"""Every name a module of the package imports is used in that module, and
every function and class the package defines is used somewhere.

The package ``__init__`` re-exports names and is left out of the import
check.  Checked with the standard library's ``ast``, since no linter is a
test dependency.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "skacap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: Where a use of a package name counts.
USERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)", "b (line 2)"
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def unused_definitions(defining: dict[str, str], using: dict[str, str]) -> list[str]:
    """``def``/``class`` names (dunders aside) of the ``defining`` sources
    that no source of ``using`` names outside the definition itself.

    A use is a name, an attribute or an imported name; both arguments map
    a file label to its source.
    """
    spans: dict[str, list[tuple[str, int, int]]] = {}
    for label, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    spans.setdefault(node.name, []).append(
                        (label, node.lineno, node.end_lineno)
                    )
    used = set()
    for label, source in using.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            if name in spans and not any(
                label == where and first <= node.lineno <= last
                for where, first, last in spans[name]
            ):
                used.add(name)
    return sorted(
        f"{name} ({where}:{first})"
        for name, places in spans.items() if name not in used
        for where, first, _ in places[:1]
    )


def test_the_check_sees_an_unused_definition():
    lib = "class A:\n    def f(self):\n        return self.f()\n    def g(self):\n        pass\n"
    use = "from lib import A\nA().g()\n"
    assert unused_definitions({"lib": lib}, {"lib": lib, "use": use}) == ["f (lib:2)"]


def test_every_defined_name_is_used():
    def sources(paths):
        return {str(p.relative_to(ROOT)): p.read_text() for p in paths}

    assert unused_definitions(sources(PACKAGE.glob("*.py")), sources(USERS)) == []
