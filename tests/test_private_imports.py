"""No l1svm module imports another's private names, and only `sweeps` starts processes."""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "l1svm"


def _private_imports():
    """(module, name) for each underscore name a module imports from another l1svm module."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "l1svm":
                continue  # another package's name
            found.update((path.stem, alias.name) for alias in node.names
                         if alias.name.startswith("_"))
    return found


def test_no_private_name_crosses_modules():
    assert _private_imports() == set()


def _process_imports():
    """The modules that import multiprocessing or a process pool, at any depth."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if any(alias.name == "ProcessPoolExecutor" for alias in node.names):
                    found.add(path.stem)
            else:
                continue
            if any(name.split(".")[0] == "multiprocessing" or name == "concurrent.futures.process"
                   for name in modules):
                found.add(path.stem)
    return found


def test_only_sweeps_starts_processes():
    assert _process_imports() == {"sweeps"}
