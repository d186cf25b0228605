"""Every third-party module the package imports is a declared dependency,
every name a package module imports is used in that module, and every
private name the package defines is referenced in the package.

A module that is merely installed where the tests run (scipy, say) would
otherwise pass here and fail on a clean install.  pyproject.toml is read
with a regular expression, as Python 3.10 has no tomllib.  An import left
behind by a deletion is caught by the second check; the re-exports of
__init__.py and ``from __future__`` imports are exempt from it.  A private
constant, function or method left behind is caught by the third; the
server's ``_verb_*`` handlers, dispatched by name, are exempt from it.
A fourth check keeps the backend layer from importing the engines above
it, and the server from importing the client side of the protocol.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pairshot"


def declared_modules() -> set[str]:
    """Import names of [project].dependencies in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S).group(1)
    specs = re.findall(r"[\"']([^\"']+)[\"']", block)
    names = (re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in specs)
    return {name.lower().replace("-", "_") for name in names}


def imported_modules() -> dict[str, list[str]]:
    """Top-level module of every absolute import in the package, with its files."""
    found: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                found.setdefault(module.split(".")[0], []).append(str(path.relative_to(ROOT)))
    return found


def test_declared_dependencies_are_read():
    assert declared_modules() == {"numpy"}


def test_every_third_party_import_is_declared():
    imported = imported_modules()
    assert "numpy" in imported and "json" in imported
    third_party = set(imported) - set(sys.stdlib_module_names) - {"pairshot"}
    undeclared = {name: imported[name] for name in third_party - declared_modules()}
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"


def unused_imports(source: str) -> list[str]:
    """Names that source imports (outside ``from __future__``) but never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os, json as j\nfrom typing import Any\nj.x\n"
    assert unused_imports(source) == ["os (line 2)", "Any (line 3)"]


def test_every_imported_name_is_used():
    unused = {
        str(path.relative_to(ROOT)): names
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
        and (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not unused, f"imported but never used: {unused}"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private module-level names and private methods of module-level
    classes (one leading underscore, not dunder), with their lines."""
    found: dict[str, int] = {}

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        found.update((name, node.lineno) for name in names if private(name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and private(item.name):
                    found[item.name] = item.lineno
    return found


def referenced_names(tree: ast.Module) -> set[str]:
    """Names that tree reads, as a name, an attribute or an import."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private names that a source of sources defines and none references."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    used = set().union(*map(referenced_names, trees.values()))
    return [
        f"{path}: {name} (line {line})"
        for path, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in used and not name.startswith("_verb_")
    ]


def test_unreferenced_private_name_is_found():
    source = (
        "_LIMIT = 3\n_USED: int = 1\ndef _helper():\n    return _USED\n"
        "class _Ring:\n    def _grow(self):\n        return self._helper\n"
        "    def _verb_ping(self):\n        pass\n    def __len__(self):\n        return 0\n"
        "def public():\n    _local = 1\n    return _Ring()._grow()\n"
    )
    assert unreferenced_private_names({"m.py": source}) == ["m.py: _LIMIT (line 1)"]
    imported = {"a.py": "_TABLE = {}\n", "b.py": "from .a import _TABLE\n"}
    assert unreferenced_private_names(imported) == []


def test_every_private_name_is_referenced():
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    unreferenced = unreferenced_private_names(sources)
    assert not unreferenced, f"private but never referenced: {unreferenced}"


def package_imports(source: str, package: str) -> set[str]:
    """Dotted names that source, a module of package, imports absolutely or
    relatively: each module it imports from, and each name it takes from
    one (which may be a submodule)."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:  # relative to package, or to a package level - 1 steps above it
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{node.module}" if node.module else parent
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_package_imports_resolve_relative_names():
    source = (
        "import json\nimport pairshot.cli\nfrom ..pet import run_pet\n"
        "from . import adapter\nfrom .toy import ToyBackend\n"
        "def late():\n    from ..ingestion.srs import load_requirement_pairs\n"
    )
    assert package_imports(source, "pairshot.backend") == {
        "json", "pairshot.cli", "pairshot.pet", "pairshot.pet.run_pet",
        "pairshot.backend", "pairshot.backend.adapter", "pairshot.backend.toy",
        "pairshot.backend.toy.ToyBackend", "pairshot.ingestion.srs",
        "pairshot.ingestion.srs.load_requirement_pairs",
    }


# What the backend layer must not import: the engines and what drives them,
# so that a backend server process loads model code only.
ABOVE_THE_BACKEND = ("harness", "pet", "setfit", "finetune", "logistic", "metrics",
                     "cli", "synthetic", "ingestion")


def test_the_backend_imports_no_engine_and_the_server_no_client():
    offending = {}
    for path in sorted((PACKAGE / "backend").glob("*.py")):
        imported = package_imports(path.read_text(encoding="utf-8"), "pairshot.backend")
        banned = [f"pairshot.{name}" for name in ABOVE_THE_BACKEND]
        if path.name == "serve.py":  # the server speaks the protocol without the client
            banned.append("pairshot.backend.adapter")
        hits = sorted(name for name in imported
                      if any(name == ban or name.startswith(ban + ".") for ban in banned))
        if hits:
            offending[str(path.relative_to(ROOT))] = hits
    assert not offending, f"the backend imports above itself: {offending}"
