"""Every module-level private name in ``src/nilmevents`` is used, and so is every import.

The source is parsed with :mod:`ast`, not imported, so a helper or an
import that a refactor leaves behind fails here even when nothing calls
it.  A name counts as used where it is loaded, as a bare name or as an
attribute; a module's ``__all__`` entries count as used there too.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "nilmevents"

# Imports that nothing in the package reads, kept because the benchmark's
# tracer (perfbench/tracer.py) wraps these module attributes by name and
# reports any it cannot find.  ROADMAP item 16 retargets or drops those
# spans; each import goes once its target does.
TRACED_IMPORTS = {
    ("pipeline", "validate_series"): "tracer target core.validate_series",
    ("base", "validate_series"): "tracer target core.validate_series",
    ("filtering", "detect_base"): "tracer target filtering.redetect",
}


def parsed_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}


def loaded_names(tree: ast.AST) -> set[str]:
    """The names a tree reads: bare names, attributes and ``__all__`` entries."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def module_level_privates(tree: ast.Module) -> list[str]:
    """The private names a module defines at its top level (no dunders)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def imported_names(tree: ast.Module) -> list[str]:
    """The names the imports of a module bind, ``from __future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.append(alias.asname or alias.name.split(".")[0])
    return names


def test_every_module_level_private_name_is_used_somewhere_in_the_package() -> None:
    modules = parsed_modules()
    used = set().union(*(loaded_names(tree) for tree in modules.values()))
    unused = [
        f"{module}.{name}"
        for module, tree in modules.items()
        for name in module_level_privates(tree)
        if name not in used
    ]
    assert unused == []


def test_every_import_is_used_in_its_module() -> None:
    unused = [
        f"{module}.{name}"
        for module, tree in parsed_modules().items()
        for name in imported_names(tree)
        if name not in loaded_names(tree) and (module, name) not in TRACED_IMPORTS
    ]
    assert unused == []


def test_each_traced_import_is_still_there() -> None:
    """An exemption whose import is gone is stale and goes too."""
    modules = parsed_modules()
    for module, name in TRACED_IMPORTS:
        assert name in imported_names(modules[module])
