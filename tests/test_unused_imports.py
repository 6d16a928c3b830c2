"""No library module imports a name that it never uses.

An import left behind by a deleted code path costs every command's start-up
and tells a reader of a dependency that is not there.  The exceptions are
the names perfbench/spans.py patches by module attribute: a module keeps
those importable even where its own code no longer calls them.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "treeharmonics").glob("*.py") if p.name != "__init__.py")

_spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
_spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spans)
PATCHED = {(module, attr) for module, attr, _ in _spans.WRAPPED}


def imported_names(tree: ast.Module):
    """The names a module's imports bind, `from __future__` imports aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree) if name not in used and (path.stem, name) not in PATCHED]
    assert unused == []
