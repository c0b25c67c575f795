"""Checks on the source itself, read as syntax trees."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "realstrata"


def _defined(tree):
    """(name, statement) for every name a module-level def, class or
    assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def _read(node):
    """The names a statement reads: names loaded, attributes, imported
    names, and string constants (monkeypatch.setattr and getattr name an
    attribute by a string)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def test_every_module_level_name_is_read_somewhere():
    # A module-level name in the package that nothing in src/, tests/ or
    # demos/ reads outside its own definition is dead code.
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    reads = {path: [(node, _read(node)) for node in tree.body]
             for path, tree in trees.items()}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, definition in _defined(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in names
                       for other, stmts in reads.items()
                       for node, names in stmts
                       if other != path or node is not definition):
                unread.append(f"{path.name}: {name}")
    assert unread == []
