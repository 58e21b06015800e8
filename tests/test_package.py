import ast
from pathlib import Path

import ecglab

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve_without_duplicates():
    assert len(set(ecglab.__all__)) == len(ecglab.__all__)
    missing = [name for name in ecglab.__all__ if not hasattr(ecglab, name)]
    assert missing == []


def test_every_public_name_is_used_outside_the_tests():
    """A public name that only tests call is a test-only wrapper. A use is a
    name or attribute read in an ``ecglab`` module other than ``__init__``
    (which re-exports every name) or in a ``bench/`` script; a definition
    or an import is not one."""
    sources = [p for p in (ROOT / "src" / "ecglab").glob("*.py") if p.name != "__init__.py"]
    sources += list((ROOT / "bench").glob("*.py"))
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(ecglab.__all__) - used) == []
