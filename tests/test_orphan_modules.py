"""Orphan-module guard: every ``src/repro`` module must be imported by code.

A module counts as reached when some non-``__init__`` module under
``src/``, or some file under ``benchmarks/`` or ``perfbench/``, imports
it.  A package ``__init__`` re-export alone does not count, and neither
do the tests: code that only its own unit tests and its package import is
code no entry point runs.  A name imported through its package
(``from repro.ml import MLPClassifier``) counts for the module that
defines it.  The scan reads absolute imports (the package uses no
relative ones) with the standard-library ``ast`` module only.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
IMPORTER_DIRS = ("benchmarks", "perfbench")

#: Modules that only their package ``__init__`` imports, on purpose.
ALLOWED_ORPHANS = {
    # ``repro.scenarios`` imports it for its side effect: the import
    # registers the built-in scenarios that every scenario lookup needs.
    "repro.scenarios.transforms",
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
