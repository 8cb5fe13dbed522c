"""Every public function, class and method of swapmeter has a caller in swapmeter.

A public name is one without a leading underscore: a top-level function
or class of a module under src/swapmeter, or a method of such a class.
It passes when its name is referenced (as a name or an attribute) in
src/swapmeter beyond its own definition, or when tests/test_acceptance.py
imports it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "swapmeter"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions(module: ast.Module):
    """(qualified name, name) of each public top-level def or class and public method."""
    for node in module.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def _references(module: ast.Module) -> Counter:
    refs: Counter = Counter()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def _acceptance_imports() -> set[str]:
    names = set()
    for node in ast.walk(_parse(ACCEPTANCE)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("swapmeter"):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller_in_the_package():
    modules = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    refs: Counter = Counter()
    for module in modules.values():
        refs.update(_references(module))
    allowed = _acceptance_imports()
    unused = [
        f"{path.stem}.{qualified}"
        for path, module in modules.items()
        for qualified, name in _public_definitions(module)
        if refs[name] == 0 and name not in allowed
    ]
    assert unused == [], f"public names no code in src/swapmeter uses: {unused}"
