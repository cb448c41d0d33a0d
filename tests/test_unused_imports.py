"""Unused-import guard: no ``src/repro`` module imports a name it never uses.

Package ``__init__`` modules are exempt: importing is how they re-export.
In every other module each name an import binds must be used.  A name
counts as used when the module references it, when it appears in a
quoted annotation (``"ScenarioTrace"`` under ``TYPE_CHECKING``), when
``__all__`` lists it, or when its import statement carries a
``# noqa: F401`` comment (a deliberate re-export).  The scan uses the
standard-library ``ast`` module only.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

_NOQA = "noqa: F401"


def _bindings(node: ast.AST) -> Iterator[str]:
    """Names an ``import`` statement binds (``import a.b`` binds ``a``)."""
    for alias in node.names:
        if alias.asname is not None:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        elif alias.name != "*":
            yield alias.name


def _annotation_names(annotation: ast.AST) -> Iterator[str]:
    """Names inside the quoted parts of one annotation."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(quoted):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree: ast.AST) -> Set[str]:
    """Names listed in a module-level ``__all__``."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(element.value for element in ast.walk(node.value)
                         if isinstance(element, ast.Constant)
                         and isinstance(element.value, str))
    return names


def unused_imports(source: str) -> List[str]:
    """Imported names ``source`` never uses, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        statement = lines[node.lineno - 1:node.end_lineno]
        if any(_NOQA in line for line in statement):
            continue
        imported.extend((name, node) for name in _bindings(node))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        used.update(_annotation_names(annotation))
    used |= _exported(tree)
    return [name for name, _ in imported if name not in used]


def _scan(root: Path = ROOT) -> Dict[str, List[str]]:
    """Module path (relative to ``src/repro``) -> its unused names."""
    package = root / "src" / "repro"
    found: Dict[str, List[str]] = {}
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unused_imports(path.read_text())
        if names:
            found[path.relative_to(package).as_posix()] = names
    return found


def test_no_module_imports_a_name_it_never_uses():
    found = _scan()
    assert not found, (
        f"imported but never used: {found} — delete the imports, or mark "
        f"a deliberate re-export with '# {_NOQA}'"
    )


# The scan itself, checked on small synthetic source trees.


def _tree(root: Path, files: Dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_flags_unused_names_and_skips_package_inits(tmp_path):
    found = _scan(_tree(tmp_path, {
        "src/repro/__init__.py": "from repro.a import helper\n",
        "src/repro/a.py": (
            "from __future__ import annotations\n"
            "import os\n"
            "import numpy as np\n"
            "from typing import Dict, List\n"
            "def helper(x: List[int]) -> int:\n"
            "    return len(x)\n"
        ),
        "src/repro/sub/b.py": "import os.path\nos.path.join('a')\n",
    }))
    assert found == {"a.py": ["os", "np", "Dict"]}


def test_quoted_annotations_all_and_noqa_count_as_uses(tmp_path):
    found = _scan(_tree(tmp_path, {
        "src/repro/a.py": (
            "from typing import TYPE_CHECKING, Optional\n"
            "from repro.b import (  # noqa: F401  (re-exported)\n"
            "    Exported,\n"
            "    AlsoExported,\n"
            ")\n"
            "from repro.c import Listed, Unlisted\n"
            "import repro.d as d_alias\n"
            "if TYPE_CHECKING:\n"
            "    from repro.e import Quoted\n"
            "__all__ = ['Listed']\n"
            "def f(x: 'Optional[Quoted]') -> None:\n"
            "    return None\n"
        ),
    }))
    assert found == {"a.py": ["Unlisted", "d_alias"]}
