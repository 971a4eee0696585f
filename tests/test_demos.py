"""The demo scripts import only names the library still has, and the quick
ones run.

Every script is parsed and every name it imports from soundscan is looked
up. The demos that finish in well under a second also run to exit 0, which
catches a changed call signature too; the training demo takes minutes, so
it is only parsed.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_DEMOS = ["01_dsp_features.py", "02_multiscale_scanning.py",
               "04_metrics_and_prototypes.py"]


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


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_quick_demo_runs(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                            cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert not any(tmp_path.iterdir()), f"{name} wrote files"
