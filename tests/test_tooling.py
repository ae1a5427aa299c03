"""Checks on the source tree itself rather than on what the code computes."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import regir

SRC = Path(regir.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

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


def test_package_inits_hold_only_their_docstring():
    """Each name has one import path, its defining module: a package's
    `__init__.py` holds its docstring and, in `regir` itself, the
    `__version__` the benchmark imports; no re-exports."""
    inits = sorted(SRC.rglob("__init__.py"))
    for init in inits:
        tree = ast.parse(init.read_text(encoding="utf-8"))
        rest = [ast.unparse(node.targets[0]) if isinstance(node, ast.Assign)
                else ast.unparse(node) for node in tree.body[1:]]
        assert ast.get_docstring(tree), init
        assert rest == (["__version__"] if init.parent == SRC else []), init
    assert len(inits) == 2


def test_every_oracle_is_used_by_a_test():
    """An oracle exists because a test compares the library against it:
    every module-level function and class in tests/oracles.py is referenced
    by some other file under tests/, as the package's own definitions are
    referenced in the package."""
    oracles = TESTS / "oracles.py"
    refs = sum((_names(ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(TESTS.glob("*.py")) if path != oracles), Counter())
    defined = [node.name for node in ast.parse(oracles.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert defined and [name for name in defined if not refs[name]] == []


def _imports_from_the_package(tree) -> list[tuple[str, str, str | None]]:
    """(local name, module, imported name or None for `import module`) of
    each import from the package in `tree`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.asname or alias.name, alias.name, None)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [(alias.asname or alias.name, node.module, alias.name)
                      for alias in node.names]
    return [f for f in found if f[1].split(".")[0] == "regir"]


def test_every_name_the_benchmark_imports_from_the_package_exists():
    """The benchmark calls the library by name; a change that renames or
    removes one of those names fails here rather than in a benchmark run."""
    missing = []
    wanted = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        wanted += [(path.name, module, name)
                   for _, module, name in _imports_from_the_package(tree)]
    for file, module, name in wanted:
        try:
            found = importlib.import_module(module)
        except ImportError:
            found = None
        if found is None or (name is not None and not hasattr(found, name)):
            missing.append(f"{file}: {module} {name or ''}".strip())
    assert wanted and missing == []


def _unbound_calls(source: str, file: str) -> tuple[int, list[str]]:
    """How many calls in `source` go to a callable it imports from the
    package, by name or through `_timed(fn, *args)` (which calls fn(*args)),
    and those whose arguments do not bind to the callable's signature: too
    many positional arguments, or an unknown or missing-in-between keyword.
    A call that unpacks `*args` has its keywords checked only."""
    tree = ast.parse(source)
    callables = {}
    for local, module, name in _imports_from_the_package(tree):
        found = getattr(importlib.import_module(module), name or "", None)
        if callable(found):
            callables[local] = found
    checked, problems = 0, []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        name, args = node.func.id, node.args
        if name == "_timed" and args and isinstance(args[0], ast.Name):
            name, args = args[0].id, args[1:]
        if name not in callables:
            continue
        try:
            signature = inspect.signature(callables[name])
        except ValueError:  # a built-in without one
            continue
        starred = any(isinstance(a, ast.Starred) for a in args)
        keywords = {k.arg: None for k in node.keywords if k.arg is not None}
        checked += 1
        try:
            signature.bind_partial(*([] if starred else [None] * len(args)),
                                   **keywords)
        except TypeError as exc:
            problems.append(f"{file}: line {node.lineno}: {name}: {exc}")
    return checked, problems


def test_the_call_check_finds_calls_that_do_not_bind():
    source = ("from regir.ranking import RankedList as Ranked, read_run\n"
              "Ranked([], presorted=True)\n"
              "Ranked(sorted=True)\n"
              "_timed(read_run, 'a.tsv')\n"
              "_timed(read_run, 'a.tsv', 'b.tsv')\n")
    checked, problems = _unbound_calls(source, "probe.py")
    assert checked == 4
    assert [p.split(":")[1] for p in problems] == [" line 3", " line 5"]


def test_every_call_the_benchmark_makes_into_the_package_binds():
    """The benchmark calls the library with positional and keyword arguments
    (`tag=`, `presorted=`, `comment=`, ...); a signature change that would
    break a call fails here rather than in a benchmark run."""
    checked, problems = 0, []
    for path in sorted(PERFBENCH.glob("*.py")):
        n, found = _unbound_calls(path.read_text(encoding="utf-8"), path.name)
        checked, problems = checked + n, problems + found
    assert checked > 0 and problems == []
