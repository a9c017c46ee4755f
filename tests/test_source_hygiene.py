"""Every module-level private name in ``src/nilmevents`` is used, and so is every import.

The source is parsed with :mod:`ast`, not imported, so a helper or an
import that a refactor leaves behind fails here even when nothing calls
it.  A name counts as used where it is loaded, as a bare name or as an
attribute; a module's ``__all__`` entries count as used there too.
"""

from __future__ import annotations

import ast
import subprocess
import sys
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


def test_importing_the_package_does_not_import_subprocess() -> None:
    """Only a trace write that splits starts a process, so only it imports ``subprocess``."""
    probe = (
        f"import sys; sys.path.insert(0, {str(SOURCE.parent)!r}); import nilmevents; "
        "print('subprocess' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def imports_numpy_random(code: str, *args: str) -> bool:
    """Whether ``code`` imports ``numpy.random``, run in a new interpreter with ``args``."""
    probe = (
        f"import sys; sys.path.insert(0, {str(SOURCE.parent)!r}); {code}; "
        "print('numpy.random' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()[-1] == "True"


def test_only_a_noisy_synth_imports_numpy_random(tmp_path: Path) -> None:
    """Its first import costs 13-16 ms and 6.2 MB of peak RSS (numpy 2.4, Python 3.11,
    a 2-CPU VM), and only noise needs it.

    numpy 2 imports ``numpy.random`` on first use; numpy 1 imports it with
    numpy, and then every run imports it.
    """
    cli = "from nilmevents.cli import cli_main; assert cli_main(sys.argv[1:]) == 0"
    scenarios = str(SOURCE.parent.parent / "scenarios")
    rangehood, truth, kitchen = (str(tmp_path / name) for name in ("r.csv", "rt.csv", "k.csv"))
    with_numpy = imports_numpy_random("import numpy")
    assert imports_numpy_random("import nilmevents") == with_numpy
    # The rangehood replica has 1 W of noise, the kitchen replica none.
    synth = (cli, "synth", f"{scenarios}/rangehood.json", "--out", rangehood, "--truth", truth)
    assert imports_numpy_random(*synth)
    synth = (cli, "synth", f"{scenarios}/kitchen.json", "--out", kitchen)
    assert imports_numpy_random(*synth) == with_numpy
    detect = (cli, "detect", kitchen, "--config", f"{scenarios}/kitchen.config")
    assert imports_numpy_random(*detect) == with_numpy
    assert imports_numpy_random(cli, "compare", rangehood, truth) == with_numpy


def test_the_row_helper_imports_only_the_standard_library() -> None:
    """``_rows.py`` runs as a script under ``-I``, with neither numpy nor the package to import."""
    tree = parsed_modules()["_rows"]
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(node, ast.Import) or node.level == 0 for node in imports)
    modules = [
        alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names
    ]
    modules += [node.module for node in imports if isinstance(node, ast.ImportFrom)]
    assert {name.split(".")[0] for name in modules} <= sys.stdlib_module_names
