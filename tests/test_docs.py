"""Every dotted ``scvamp.`` name that README or a module docstring cites exists."""

import ast
import importlib
import re
from pathlib import Path

import scvamp

PACKAGE = Path(scvamp.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
_DOTTED = re.compile(r"\bscvamp(?:\.[A-Za-z_]\w*)+")


def _resolves(name):
    """Whether the longest importable prefix of ``name`` has the rest as attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _documents():
    yield "README.md", README.read_text()
    for path in sorted(PACKAGE.rglob("*.py")):
        doc = ast.get_docstring(ast.parse(path.read_text())) or ""
        yield str(path.relative_to(PACKAGE.parent)), doc


def test_documented_names_resolve():
    cited = {(source, name) for source, text in _documents() for name in _DOTTED.findall(text)}
    assert {source for source, _ in cited} >= {"README.md", "scvamp/__init__.py"}
    missing = sorted(f"{source}: {name}" for source, name in cited if not _resolves(name))
    assert not missing, f"documented names that do not exist: {missing}"


def test_resolver_checks_the_module_and_every_attribute():
    assert _resolves("scvamp.codes.make_regular_code")
    assert _resolves("scvamp.runner.POLICIES")
    assert not _resolves("scvamp.no_such_module.name")
    assert not _resolves("scvamp.codes.no_such_name")
    assert not _resolves("scvamp.runner.POLICIES.no_such_name")
