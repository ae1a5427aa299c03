"""Checks on the source tree itself rather than on what the code computes."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import regir

SRC = Path(regir.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# name -> why it may stay unreferenced inside the package
UNREFERENCED_ALLOWED = {
    "drmm_features": "perfbench/probes.py calls it; it moves to tests/oracles.py "
                     "with the next change to the benchmark",
    "pacrr_features": "perfbench/probes.py calls it; it moves to tests/oracles.py "
                      "with the next change to the benchmark",
}


def _names(node) -> Counter:
    """How often each identifier is read under `node`, as a name or as an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_module_level_definition_is_referenced_in_the_package():
    """A library function exists because the pipeline calls it: every
    undecorated module-level function and class is referenced somewhere in
    the package outside its own body, or allowed above. Decorated ones
    (commands, dataclasses) are registered or built by their decorator and
    not checked."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))]
    refs = sum((_names(tree) for tree in trees), Counter())
    unreferenced = sorted(
        node.name for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.decorator_list and refs[node.name] == _names(node)[node.name])
    assert unreferenced == sorted(UNREFERENCED_ALLOWED)


def test_every_name_the_benchmark_imports_from_the_package_exists():
    """The benchmark calls the library by name; a change that renames or
    removes one of those names fails here rather than in a benchmark run."""
    wanted = []  # (file, module, name or None for `import module`)
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                wanted += [(path.name, alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                wanted += [(path.name, node.module, alias.name)
                           for alias in node.names]
    wanted = [w for w in wanted if w[1].split(".")[0] == "regir"]
    missing = []
    for file, module, name in wanted:
        try:
            found = importlib.import_module(module)
        except ImportError:
            found = None
        if found is None or (name is not None and not hasattr(found, name)):
            missing.append(f"{file}: {module} {name or ''}".strip())
    assert wanted and missing == []
