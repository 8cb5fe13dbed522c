"""Every public function, class, method and constant of swapmeter has a use in swapmeter.

A public name is one without a leading underscore: a top-level function
or class of a module under src/swapmeter, or a method of such a class.
It passes when its name is referenced (as a name or an attribute) in
src/swapmeter beyond its own definition, or when tests/test_acceptance.py
imports it. A public constant, a name a module assigns at top level,
passes when src/swapmeter reads it (as a name or an attribute) or when
tests/test_acceptance.py imports it.
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


def _public_constants(module: ast.Module):
    """Each public name assigned at the top level of a module."""
    for node in module.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    if not name.id.startswith("_"):
                        yield name.id


def _reads(path: Path, module: ast.Module):
    """(module, name) of each name `module` reads, resolved to the module that binds it.

    A name imported with `from swapmeter.<m> import name` is m's; any other
    name is the reading module's own. `<m>.name`, after `from swapmeter
    import <m>`, is m's.
    """
    imported: dict[str, tuple[str, str]] = {}
    submodules: dict[str, str] = {}
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "swapmeter":
            submodules.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("swapmeter."):
            owner = node.module.rpartition(".")[2]
            imported.update({a.asname or a.name: (owner, a.name) for a in node.names})
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield imported.get(node.id, (path.stem, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in submodules:
                yield submodules[node.value.id], node.attr


def test_every_public_constant_is_read_in_the_package():
    modules = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    reads = {read for path, module in modules.items() for read in _reads(path, module)}
    allowed = _acceptance_imports()
    unread = [
        f"{path.stem}.{name}"
        for path, module in modules.items()
        for name in _public_constants(module)
        if (path.stem, name) not in reads and name not in allowed
    ]
    assert unread == [], f"public constants no code in src/swapmeter reads: {unread}"
