"""The package imports nothing beyond the standard library and numpy, in Python 3.10 syntax."""

import ast
import sys
from pathlib import Path

import pytest

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


def test_sources_parse_as_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10; 3.11 syntax such as except* fails here
    for path in sorted(Path(scvamp.__file__).parent.rglob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
