"""The demo scripts import only names the library still has.

No test runs the demos (the training one takes minutes), so each script is
parsed instead and every name it imports from soundscan is looked up.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _soundscan_imports(tree):
    """(module, name or None) for every import of soundscan in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "soundscan":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "soundscan":
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    imports = list(_soundscan_imports(tree))
    assert imports, f"{demo.name} imports nothing from soundscan"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or name == "*":
            continue
        # `from soundscan import data` names a submodule of the package
        submodule = hasattr(module, "__path__") and \
            importlib.util.find_spec(f"{module_name}.{name}") is not None
        assert hasattr(module, name) or submodule, f"{demo.name}: {module_name} has no {name}"
