"""Every third-party module the package imports is a declared dependency.

A module that is merely installed where the tests run (scipy, say) would
otherwise pass here and fail on a clean install.  pyproject.toml is read
with a regular expression, as Python 3.10 has no tomllib.
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
    assert {"numpy", "requests"} <= declared_modules()


def test_every_third_party_import_is_declared():
    imported = imported_modules()
    assert "numpy" in imported and "json" in imported
    third_party = set(imported) - set(sys.stdlib_module_names) - {"pairshot"}
    undeclared = {name: imported[name] for name in third_party - declared_modules()}
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"
