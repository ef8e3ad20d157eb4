"""Checks on the source text itself, with the standard library's parser."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "ucrsynth").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def top_level_names(tree: ast.Module):
    """(name, line) per top-level def, class and plain name assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_no_top_level_name_is_bound_twice():
    # a second definition silently replaces the first: a shadowed test
    # never runs, and a shadowed function is dead code
    assert MODULES
    twice = []
    for path in MODULES:
        first: dict[str, int] = {}
        for name, line in top_level_names(ast.parse(path.read_text(), str(path))):
            if name in first:
                twice.append(f"{path.relative_to(ROOT)}:{line}: {name} (first at line {first[name]})")
            first.setdefault(name, line)
    assert not twice, "\n".join(twice)
