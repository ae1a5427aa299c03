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

# qualified name -> the benchmark's call that keeps it while no command
# reaches it
UNREACHED_ALLOWED = {
    "PostingsIndex.score_all": "perfbench/probes.py times bm25.score_ms_p50 on it",
    "TextPipeline.__call__": "perfbench/probes.py, stages.py and checks.py "
                             "tokenize a text with pipeline(text)",
    "TextPipeline.denoise": "perfbench/checks.py calls it, and so does "
                            "TextPipeline.__call__",
    "dedup_terms": "perfbench/probes.py calls it before drmm_features",
    "drmm_features": "perfbench/probes.py times features.drmm_ms_p50 on it",
    "pacrr_features": "perfbench/probes.py times features.pacrr_ms_p50 on it",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node) -> Counter:
    """How often each identifier is read under `node`, as a name or as an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _own_names(node) -> Counter:
    """The identifiers a definition or statement reads: a class's bases,
    decorators and body but its methods, which are definitions of their
    own; anything else's whole node."""
    if not isinstance(node, ast.ClassDef):
        return _names(node)
    parts = [*node.bases, *node.keywords, *node.decorator_list,
             *(item for item in node.body if not isinstance(item, _FUNCTIONS))]
    return sum(map(_names, parts), Counter())


def _is_special(name: str) -> bool:
    """A method Python calls on its own (`__init__`, `__len__`, ...); but
    `__call__`, which a call of an instance reaches and a name-based walk
    cannot tell from any other call."""
    return name.startswith("__") and name.endswith("__") and name != "__call__"


def test_every_definition_is_reached_from_a_cli_command():
    """A library function exists because the pipeline calls it. From the
    roots (each function cli.py registers as a command or group, the
    methods of a class cli.py derives from click, which click calls, and
    the package's module-level and class-level statements, which run on
    import), a definition is reached when a reached one reads its name:
    every module-level function and class and every method of that name.
    A reached class reaches its special methods. Every definition is
    reached, or allowed above."""
    definitions, roots = {}, []  # qualified name -> node
    for path in sorted(SRC.rglob("*.py")):
        cli = path == SRC / "cli.py"
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                roots.append(node)
                continue
            definitions[node.name] = node
            if cli and any(getattr(getattr(d, "func", None), "attr", None)
                           in ("command", "group") for d in node.decorator_list):
                roots.append(node)
            if isinstance(node, ast.ClassDef):
                click_class = cli and any(_names(b)["click"] for b in node.bases)
                roots += [item for item in node.body if click_class
                          or not isinstance(item, _FUNCTIONS)]
                definitions.update((f"{node.name}.{item.name}", item)
                                   for item in node.body
                                   if isinstance(item, _FUNCTIONS))
    by_name = {}
    for qualified in definitions:
        by_name.setdefault(qualified.rpartition(".")[2], []).append(qualified)
    reached = {name for name, node in definitions.items() if node in roots}
    todo = [*roots]
    while todo:
        node = todo.pop()
        found = [q for name in _own_names(node) for q in by_name.get(name, [])]
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, _FUNCTIONS) and _is_special(item.name)]
        for qualified in found:
            if qualified not in reached:
                reached.add(qualified)
                todo.append(definitions[qualified])
    assert sorted(definitions.keys() - reached) == sorted(UNREACHED_ALLOWED)


# the library calls that `experiment.py` composes for `regir run` and the
# CLI's stage commands alike: the loaders and builders `Inputs` wraps (the
# judgments, split manifest, index, text pipeline, vectors and embeddings),
# the index and centroid builds, BM25 and fusion-weight tuning, the feature
# store, training, the final lists and their scores, the R@k curve and the
# year histogram
STAGE_GLUE = ("load_qrels", "SplitManifest", "load_index", "build_pipeline",
              "load_stopwords", "load_word_vectors", "load_doc_vectors",
              "load_token_vectors", "TypeEmbeddings", "tune_bm25", "write_grid_csv",
              "write_params", "train_model", "save_checkpoint",
              "write_training_log", "rerank_run", "candidates", "finalize",
              "build_index", "save_index", "build_centroid_store", "save_doc_vectors",
              "tune_alpha", "write_alpha_grid_csv", "year_diff_histogram",
              "write_year_hist_csv", "emit_rk_curve", "write_rk_curve_csv",
              "evaluate_run", "write_eval_csv", "FeatureStore")


def test_the_cli_leaves_the_stage_glue_to_experiment():
    """Each of these jobs has one home: cli.py neither imports nor names
    any of the calls above."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    names = _names(tree)
    assert [n for n in STAGE_GLUE if n in imported or names[n]] == []


def test_the_rerank_package_reads_no_text():
    """The matchers read queries and documents as term ids from the
    pipeline's bags: no module under rerank/ reads a `.text` attribute or
    calls `tokenize`."""
    found = []
    for path in sorted((SRC / "rerank").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                if getattr(node.func, "id", getattr(node.func, "attr", None)) == "tokenize":
                    found.append(f"{path.name}: line {node.lineno}: tokenize()")
            elif isinstance(node, ast.Attribute) and node.attr == "text":
                found.append(f"{path.name}: line {node.lineno}: .text")
    assert found == []


# the functions of rerank/features.py that take a doc_id: the providers'
# `ids`, which resolve a text to row ids, and the string entry points the
# benchmark calls
DOC_ID_ALLOWED = {"ids", "drmm_features", "pacrr_features"}


def test_the_matchers_features_read_row_ids_only():
    """A text is resolved to row ids once, before the features are
    computed: no function in rerank/features.py has a parameter whose name
    ends in `doc_id`, but those allowed above."""
    tree = ast.parse((SRC / "rerank" / "features.py").read_text(encoding="utf-8"))
    found = sorted(f"{node.name}({arg.arg})" for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and node.name not in DOC_ID_ALLOWED
                   for arg in (*node.args.posonlyargs, *node.args.args,
                               *node.args.kwonlyargs)
                   if arg.arg.endswith("doc_id"))
    assert found == []


def _text_reads(node, function: str, found: list) -> None:
    """(innermost enclosing function, line) of each `.text` read under
    `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and child.attr == "text":
            found.append((function, child.lineno))
        inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else function)
        _text_reads(child, inner, found)


def test_only_the_encoder_and_the_stats_read_a_document_s_text():
    """A document becomes terms on one path: the pipeline's bags of its
    collection, which `text.encode_bags` tokenizes. Beside it only
    `corpus.corpus_stats`, which counts whitespace-split words, reads a
    `.text` attribute in the package."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        reads = []
        _text_reads(ast.parse(path.read_text(encoding="utf-8")), "<module>", reads)
        found += [(path.relative_to(SRC).as_posix(), fn) for fn, _ in reads]
    assert sorted(set(found)) == [("corpus.py", "corpus_stats"),
                                  ("text.py", "encode_bags")]


# (module, function) -> how often it reads builtin `sum`, each time over
# integer counts
INTEGER_SUMS = {
    ("metrics.py", "recall_at_k"): 1,  # hits in the top k
    ("metrics.py", "r_precision"): 1,  # hits in the top R
    ("corpus.py", "corpus_stats"): 1,  # empty bodies
    ("cli.py", "date_filter_cmd"): 2,  # entries kept and in all
    ("cli.py", "year_hist"): 1,  # judged pairs
}


def _sum_reads(node, function: str, found: Counter) -> None:
    """Counts each read of the name `sum` under `node` by its innermost
    enclosing function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and child.id == "sum":
            found[function] += 1
        inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else function)
        _sum_reads(child, inner, found)


def test_only_the_drmm_model_takes_log_counts():
    """DRMM's features are count histograms, and the model turns a batch of
    them into log-counts in one place: no module of the package but
    rerank/drmm.py names `log1p`."""
    found = [f"{path.relative_to(SRC).as_posix()}: line {node.lineno}"
             for path in sorted(SRC.rglob("*.py")) if path != SRC / "rerank" / "drmm.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (node.id if isinstance(node, ast.Name)
                 else getattr(node, "attr", None)) == "log1p"]
    assert found == []
    assert _names(ast.parse((SRC / "rerank" / "drmm.py").read_text(encoding="utf-8"))
                  )["log1p"] == 1


def test_the_digit_rule_is_written_once():
    """A word of digits only is no token, by one predicate: `tokenize`
    filters its words with it and `encode_bags` its vocabulary, and no
    module of the package but text.py names `isdigit`, which it names
    once."""
    found = [f"{path.relative_to(SRC).as_posix()}: line {node.lineno}"
             for path in sorted(SRC.rglob("*.py")) if path != SRC / "text.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (node.id if isinstance(node, ast.Name)
                 else getattr(node, "attr", None)) == "isdigit"]
    assert found == []
    assert _names(ast.parse((SRC / "text.py").read_text(encoding="utf-8"))
                  )["isdigit"] == 1


def test_builtin_sum_adds_only_integer_counts():
    """Builtin `sum` compensates float rounding from Python 3.12 on, so a
    float it adds would differ across the Python versions the package
    supports: every float sum goes through `metrics.float_sum`, and `sum`
    is read only where it counts integers."""
    found = Counter()
    for path in sorted(SRC.rglob("*.py")):
        reads = Counter()
        _sum_reads(ast.parse(path.read_text(encoding="utf-8")), "<module>", reads)
        found.update({(path.relative_to(SRC).as_posix(), fn): n
                      for fn, n in reads.items()})
    assert dict(found) == INTEGER_SUMS


def _block_bounds() -> set[tuple[str, str]]:
    """(module name, constant) of every module-level constant in the package
    that bounds a block of work: `*_ENTRIES` and `_BLOCK*`."""
    return {(path.stem, target.id)
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
            and (target.id.endswith("_ENTRIES") or target.id.startswith("_BLOCK"))}


def test_every_block_bound_is_set_small_by_a_test():
    """A bound on a block of work hides a fault at a block's edge unless
    some test runs the code with blocks small enough to have many edges:
    every such constant is set through `monkeypatch.setattr(module, name,
    ...)` in a test under tests/."""
    bounds = _block_bounds()
    set_in_tests = set()
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setattr"
                    and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
                module = ast.unparse(node.args[0]).split(".")[-1]
                set_in_tests.add((module, node.args[1].value))
    assert len(bounds) >= 6 and sorted(bounds - set_in_tests) == []


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
