"""Every public name has a caller outside the tests that check it."""

import ast
from pathlib import Path

import noonsim

ROOT = Path(__file__).resolve().parent.parent
# public helpers that only tests call, to build their own reference operators
REFERENCE_HELPERS = ["embed"]


def referenced_names(path: Path) -> set[str]:
    """Names, attributes and whole string constants of one file, outside the definition they name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own.update(id(sub) for sub in ast.walk(node)
                       if isinstance(sub, ast.Name) and sub.id == node.name)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and id(node) not in own:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # a name looked up by getattr, as bench/spans.py does
    return names


def test_every_public_name_has_a_caller():
    files = [p for d in ("src", "demos", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    files.append(ROOT / "tests" / "test_acceptance.py")
    exports = ROOT / "src" / "noonsim" / "__init__.py"  # where __all__ names them all
    used = set().union(*(referenced_names(p) for p in files if p != exports))
    assert [name for name in noonsim.__all__ if name not in used] == REFERENCE_HELPERS
