"""The package's public names: `soundscan.__all__` lists exactly the names
that `soundscan/__init__.py` imports, plus `__version__`, and each resolves,
so a deleted function or type cannot linger as a stale export."""

import ast
from pathlib import Path

import soundscan


def _names_bound_in_init():
    tree = ast.parse(Path(soundscan.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names - {"__all__"}


def test_every_export_resolves():
    missing = [name for name in soundscan.__all__ if not hasattr(soundscan, name)]
    assert not missing


def test_all_lists_exactly_the_imported_names():
    assert len(soundscan.__all__) == len(set(soundscan.__all__)), "a name is listed twice"
    bound = _names_bound_in_init()
    assert "__version__" in bound
    assert set(soundscan.__all__) == bound
