"""Orphan guards: every ``src/repro`` module and definition must be used.

A module counts as reached when some non-``__init__`` module under
``src/``, or some file under ``benchmarks/`` or ``perfbench/``, imports
it.  A package ``__init__`` re-export alone does not count, and neither
do the tests: code that only its own unit tests and its package import is
code no entry point runs.  A name imported through its package
(``from repro.ml import MLPClassifier``) counts for the module that
defines it.  The scan reads absolute imports (the package uses no
relative ones) with the standard-library ``ast`` module only.

A function, class or method under ``src/repro`` counts as referenced
when its name appears outside its own definition: as an ``Attribute`` or
as a word of a string constant in any file under ``src/``,
``benchmarks/``, ``perfbench/`` or ``examples/``, or as a word of a CI
workflow; functions and classes also count as a bare ``Name``.  A method
(a ``def`` directly in a class body) does not: a parameter or local
variable spelled like it is no call of it.  Strings in a package's
``__all__`` do not count (a re-export is not a use), and neither do
docstrings (a mention is not a use) or the tests.  Dunder methods are
exempt: Python calls them.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
IMPORTER_DIRS = ("benchmarks", "perfbench")
REFERENCE_DIRS = ("src", "benchmarks", "perfbench", "examples")
WORKFLOWS = ".github/workflows"
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Modules that only their package ``__init__`` imports, on purpose.
ALLOWED_ORPHANS = {
    # ``repro.scenarios`` imports it for its side effect: the import
    # registers the built-in scenarios that every scenario lookup needs.
    "repro.scenarios.transforms",
}

#: Definitions only tests reference, on purpose (qualified name -> why).
ALLOWED_UNREFERENCED = {
    "repro.core.framework:OnlineLearningFramework"
    ".evaluate_policy_on_scenario": (
        "its fate waits for per-cell evaluation streams (ROADMAP item 2)"),
    "repro.control.policy:RandomPolicy": (
        "tests use it as a policy that draws from a generator, to check "
        "that the engine refuses a generator the policy holds, and the "
        "property invariants"),
    "repro.fleet.supervisor:FleetSupervisor.health_of": (
        "tests read one device's health with it"),
    "repro.fleet.supervisor:FleetSupervisor.health_history": (
        "tests check health transitions with it; the health checks will "
        "extend to recovery (ROADMAP item 6)"),
    "repro.service.run:ServiceRun.run_to_completion": (
        "tests drive service runs to the end with it"),
    "repro.gpu.simulator:GPUSimulator.run_fixed": (
        "tests check the GPU model at a fixed configuration with it"),
    "repro.gpu.simulator:GPURunSummary.busy_time_series_s": (
        "tests check per-frame busy times with it"),
    "repro.noc.simulator:NoCSimulator.zero_load_latency": (
        "tests bound every simulated packet's latency from below with it"),
    "repro.soc.platform:generic_big_little": (
        "tests build their small and random platforms with it"),
}


def _imports(tree: ast.AST) -> Iterator[Tuple[str, Optional[str]]]:
    """(module, imported name) pairs; the name is None for ``import x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                yield node.module, alias.name


def _scan(root: Path = ROOT) -> Tuple[Set[str], Set[str]]:
    """(every non-package module under src/repro, the modules reached)."""
    src = root / "src"
    modules: Set[str] = set()
    packages: Dict[str, ast.AST] = {}
    importers: List[ast.AST] = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "__init__.py":
            packages[".".join(parts[:-1])] = tree
            continue
        if path.name != "__main__.py":
            modules.add(".".join(parts))
        importers.append(tree)
    for directory in IMPORTER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            importers.append(ast.parse(path.read_text(), filename=str(path)))

    # (package, name) -> the module the package imports ``name`` from.
    exports = {(package, name): module
               for package, tree in packages.items()
               for module, name in _imports(tree) if name is not None}

    def defining_module(module: str, name: str) -> Optional[str]:
        seen: Set[str] = set()
        while module in packages and module not in seen:
            seen.add(module)
            if f"{module}.{name}" in modules:
                return f"{module}.{name}"
            module = exports.get((module, name), "")
        return module if module in modules else None

    reached: Set[str] = set()
    for tree in importers:
        for module, name in _imports(tree):
            if module in modules:
                reached.add(module)
            elif name is not None:
                target = defining_module(module, name)
                if target is not None:
                    reached.add(target)
    return modules, reached


def test_every_module_is_imported_outside_its_package_init():
    modules, reached = _scan()
    orphans = sorted(modules - reached - ALLOWED_ORPHANS)
    assert not orphans, (
        f"modules only their package __init__ (or nothing) imports: "
        f"{orphans} — wire them into an entry point or delete them"
    )


def test_allowlist_names_real_orphans():
    modules, reached = _scan()
    assert ALLOWED_ORPHANS <= modules
    assert not ALLOWED_ORPHANS & reached, (
        "an allowlisted module is imported now; drop it from the allowlist"
    )


def _definitions(tree: ast.AST, prefix: str = "", in_class: bool = False
                 ) -> Iterator[Tuple[str, ast.AST, bool]]:
    """(qualified name, node, is a method) of every non-dunder def and
    class, nested too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = f"{prefix}{node.name}"
            is_class = isinstance(node, ast.ClassDef)
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield name, node, in_class and not is_class
            yield from _definitions(node, f"{name}.", is_class)
        else:
            yield from _definitions(node, prefix, in_class)


def _docstrings(tree: ast.AST) -> Set[int]:
    """``id``s of the docstring constants of every module, class and
    function under ``tree``."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}


def _references(tree: ast.AST) -> Tuple[Counter, Counter]:
    """(bare names, attributes and string-constant words) under ``tree``;
    docstrings hold no words that count."""
    names: Counter = Counter()
    words: Counter = Counter()
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            words[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            words.update(_WORD.findall(node.value))
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            # The walk visits these strings too; this nets them out.
            words.subtract(_references(node.value)[1])
    return names, words


def _unreferenced(root: Path = ROOT) -> List[str]:
    """Qualified names of the ``src/repro`` definitions nothing references."""
    names: Counter = Counter()
    words: Counter = Counter()
    definitions: List[Tuple[str, str, ast.AST, bool]] = []
    for directory in REFERENCE_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            tree_names, tree_words = _references(tree)
            names.update(tree_names)
            words.update(tree_words)
            if directory == "src":
                parts = path.relative_to(root / "src").with_suffix("").parts
                module = ".".join(parts[:-1] if parts[-1] == "__init__"
                                  else parts)
                definitions.extend((f"{module}:{name}", name.rsplit(".")[-1],
                                    node, method)
                                   for name, node, method in _definitions(tree))
    for workflow in sorted((root / WORKFLOWS).glob("*.yml")):
        words.update(_WORD.findall(workflow.read_text()))

    def uses(name: str, node: ast.AST, method: bool) -> int:
        own_names, own_words = _references(node)
        count = words[name] - own_words[name]
        return count if method else count + names[name] - own_names[name]

    return sorted(
        qualified for qualified, name, node, method in definitions
        if uses(name, node, method) <= 0
    )


def test_every_definition_is_referenced_outside_itself():
    unreferenced = sorted(set(_unreferenced()) - set(ALLOWED_UNREFERENCED))
    assert not unreferenced, (
        f"definitions nothing outside themselves references: {unreferenced} "
        "— wire them into an entry point or delete them (and their tests)"
    )


def test_definition_allowlist_names_real_orphans():
    stale = set(ALLOWED_UNREFERENCED) - set(_unreferenced())
    assert not stale, (
        f"allowlisted definitions {sorted(stale)} are referenced now (or "
        "gone); drop them from the allowlist"
    )


# The scan itself, checked on small synthetic source trees.


def _tree(root: Path, files: Dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_package_reexport_alone_does_not_reach_a_module(tmp_path):
    modules, reached = _scan(_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.used import helper\n"
            "from repro.pkg.orphan import unused\n"
        ),
        "src/repro/pkg/used.py": "def helper(): pass\n",
        "src/repro/pkg/orphan.py": "def unused(): pass\n",
        "src/repro/app.py": "from repro.pkg import helper\n",
    }))
    assert modules == {"repro.app", "repro.pkg.used", "repro.pkg.orphan"}
    assert reached == {"repro.pkg.used"}


def test_names_resolve_through_nested_package_reexports(tmp_path):
    modules, reached = _scan(_tree(tmp_path, {
        "src/repro/__init__.py": "from repro.sub import Thing\n",
        "src/repro/sub/__init__.py": "from repro.sub.impl import Thing\n",
        "src/repro/sub/impl.py": "class Thing: pass\n",
        "src/repro/sub/extra.py": "",
        "src/repro/user.py": (
            "from repro import Thing\n"
            "from repro.sub import extra\n"
        ),
    }))
    assert reached == {"repro.sub.impl", "repro.sub.extra"}


def test_benchmarks_and_perfbench_count_but_tests_do_not(tmp_path):
    modules, reached = _scan(_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/a.py": "",
        "src/repro/b.py": "thing = 1\n",
        "src/repro/c.py": "",
        "benchmarks/test_bench_a.py": "import repro.a\n",
        "perfbench/targets.py": "from repro.b import thing\n",
        "tests/test_c.py": "import repro.c\n",
    }))
    assert modules == {"repro.a", "repro.b", "repro.c"}
    assert reached == {"repro.a", "repro.b"}


def test_main_modules_are_exempt_but_their_imports_count(tmp_path):
    modules, reached = _scan(_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/tool/__init__.py": "",
        "src/repro/tool/__main__.py": "from repro.tool.cli import main\n",
        "src/repro/tool/cli.py": "def main(): pass\n",
    }))
    assert modules == {"repro.tool.cli"}
    assert reached == {"repro.tool.cli"}


def test_a_definition_used_only_by_itself_is_unreferenced(tmp_path):
    assert _unreferenced(_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/a.py": (
            "def walk(n):\n"
            "    return walk(n - 1) if n else 0\n"
            "class Box:\n"
            "    def __len__(self): return 0\n"
            "    def size(self): return len(self)\n"
            "def used(): pass\n"
            "used(Box)\n"
        ),
    })) == ["repro.a:Box.size", "repro.a:walk"]


def test_benchmarks_perfbench_examples_strings_and_ci_count(tmp_path):
    assert _unreferenced(_tree(tmp_path, {
        "src/repro/__init__.py": "__all__ = ['exported']\n",
        "src/repro/a.py": (
            "def bench(): pass\n"
            "def traced(): pass\n"
            "def example(): pass\n"
            "def ci(): pass\n"
            "def exported(): pass\n"
            "def tested(): pass\n"
        ),
        "benchmarks/test_bench_a.py": "from repro.a import bench\nbench()\n",
        "perfbench/targets.py": "TARGETS = [('repro.a', None, 'traced')]\n",
        "examples/demo.py": "import repro.a\nrepro.a.example()\n",
        ".github/workflows/ci.yml": "run: python -c 'ci()'\n",
        "tests/test_a.py": "from repro.a import tested\ntested()\n",
    })) == ["repro.a:exported", "repro.a:tested"]


def test_a_method_counts_by_attribute_or_string_not_by_bare_name(tmp_path):
    """A parameter spelled like a method is no use of it; a nested
    function still counts by its bare name."""
    assert _unreferenced(_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/a.py": (
            "class Box:\n"
            "    def depth(self): return 0\n"
            "    def width(self): return 0\n"
            "    def label(self): return 0\n"
            "def grow(depth):\n"
            "    def helper(): return depth\n"
            "    return helper()\n"
            "grow(Box().width())\n"
            "CALLED = 'label'\n"
        ),
    })) == ["repro.a:Box.depth"]


def test_a_docstring_mention_is_no_use(tmp_path):
    """A name only module, class and function docstrings mention, in
    ``src/`` or elsewhere, is unreferenced; the same word in any other
    string still counts."""
    assert _unreferenced(_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/a.py": (
            '"""Module text naming merge."""\n'
            "class Box:\n"
            '    """Class text naming score."""\n'
            "    def merge(self): pass\n"
            "    def score(self): pass\n"
            "    def label(self): pass\n"
            "def grow():\n"
            '    """Function text naming points."""\n'
            "    return 'label'\n"
            "def points(): pass\n"
            "def shown(): pass\n"
            "grow(Box)\n"
        ),
        "examples/demo.py": '"""Run shown."""\n',
    })) == ["repro.a:Box.merge", "repro.a:Box.score", "repro.a:points",
            "repro.a:shown"]
