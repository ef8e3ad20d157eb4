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


def test_every_private_helper_is_used():
    # a top-level _name that nothing in src/ refers to outside its own
    # definition is dead code, such as a helper left behind by its caller
    defined = {}  # (path, private name) -> the lines of its definition
    refs = []  # (path, line, name) per name, attribute and imported name
    for path in MODULES:
        if "src" not in path.relative_to(ROOT).parts:
            continue
        tree = ast.parse(path.read_text(), str(path))
        end = {node.lineno: node.end_lineno for node in tree.body}
        for name, line in top_level_names(tree):
            if name.startswith("_") and not name.startswith("__"):
                defined[path, name] = range(line, end[line] + 1)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or node.name
                refs.append((path, node.lineno, name))
    assert defined
    dead = [
        f"{path.relative_to(ROOT)}:{lines.start}: {name}"
        for (path, name), lines in defined.items()
        if not any(ref == name and (at != path or line not in lines) for at, line, ref in refs)
    ]
    assert not dead, "\n".join(dead)
