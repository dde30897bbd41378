"""The package imports nothing at run time beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import scvamp

ALLOWED = {"numpy", "scvamp"}


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_numpy_beyond_the_standard_library():
    sources = sorted(Path(scvamp.__file__).parent.rglob("*.py"))
    assert len(sources) > 5
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in _top_level_imports(path)
        if name not in ALLOWED and name not in sys.stdlib_module_names
    }
    assert not foreign, f"third-party imports: {sorted(foreign)}"
